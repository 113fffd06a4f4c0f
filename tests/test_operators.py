"""Operator core: realizations, algebra, sectors, and text round-trips."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hamlower.errors import ParseError, ResourceLimitError, ValidationError
from hamlower.operators import (
    AXES,
    HERMITIAN_SLAB_ROWS,
    PAULI_MATRICES,
    FermionOperator,
    FockSector,
    LineReader,
    PauliTerm,
    SpinHamiltonian,
    _checked_hermitian,
    _read_fermion,
    component_eig_values,
    default_site_modes,
    dense_spin_limit,
    eig_hermitian,
    eig_values,
    excitation_table,
    fermion_to_text,
    jordan_map_spin_to_fermion,
    low_spectrum,
    pauli_product,
    realize_fermion,
    realize_spin,
    singly_occupied_projector,
    spin_components,
    spin_from_text,
    spin_to_text,
)
from pauli_reference import multiply_factor_tuples


def kron_realize(h: SpinHamiltonian) -> np.ndarray:
    """Independent oracle: literal kron chain, site 0 leftmost."""
    dim = 2 ** h.num_spins
    out = np.zeros((dim, dim), dtype=complex)
    for term in h.terms:
        axes = {site: axis for site, axis in term.factors}
        m = np.array([[term.coefficient]], dtype=complex)
        for site in range(h.num_spins):
            m = np.kron(m, PAULI_MATRICES[axes.get(site, "I")])
        out += m
    return out


@st.composite
def spin_hamiltonians(draw, max_spins=4):
    n = draw(st.integers(1, max_spins))
    num_terms = draw(st.integers(0, 5))
    terms = []
    for _ in range(num_terms):
        sites = draw(st.sets(st.integers(0, n - 1), min_size=0, max_size=n))
        factors = [(s, draw(st.sampled_from(AXES))) for s in sorted(sites)]
        coeff = draw(st.floats(-3, 3, allow_nan=False, width=32))
        terms.append(PauliTerm(coeff, factors))
    return SpinHamiltonian(n, terms)


class TestRealizeSpin:
    def test_z_on_first_of_two_spins(self):
        h = SpinHamiltonian(2, [PauliTerm(1.0, [(0, "Z")])])
        assert np.allclose(realize_spin(h), np.diag([1.0, 1.0, -1.0, -1.0]))

    def test_x_on_second_of_two_spins(self):
        h = SpinHamiltonian(2, [PauliTerm(1.0, [(1, "X")])])
        expected = np.kron(np.eye(2), PAULI_MATRICES["X"])
        assert np.allclose(realize_spin(h), expected)

    def test_heisenberg_pair_spectrum(self):
        terms = [PauliTerm(1.0, [(0, a), (1, a)]) for a in AXES]
        h = SpinHamiltonian(2, terms)
        vals = eig_hermitian(realize_spin(h)).values
        assert np.allclose(vals, [-3.0, 1.0, 1.0, 1.0])

    def test_y_phases(self):
        h = SpinHamiltonian(1, [PauliTerm(1.0, [(0, "Y")])])
        assert np.allclose(realize_spin(h), PAULI_MATRICES["Y"])

    @settings(max_examples=60, deadline=None)
    @given(spin_hamiltonians())
    def test_matches_kron_oracle(self, h):
        assert np.allclose(realize_spin(h), kron_realize(h), atol=1e-12)

    @settings(max_examples=30, deadline=None)
    @given(spin_hamiltonians(max_spins=3))
    def test_hermitian(self, h):
        m = realize_spin(h)
        assert np.allclose(m, m.conj().T)

    def test_embedding_in_larger_register(self):
        h = SpinHamiltonian(1, [PauliTerm(2.0, [(0, "Z")])])
        m = realize_spin(h, num_spins=2)
        assert np.allclose(m, np.diag([2.0, 2.0, -2.0, -2.0]))

    def test_dense_limit_enforced(self, monkeypatch):
        monkeypatch.setenv("HAMLOWER_DENSE_LIMIT", "3")
        assert dense_spin_limit() == 3
        h = SpinHamiltonian(4, [PauliTerm(1.0, [(0, "Z")])])
        with pytest.raises(ResourceLimitError):
            realize_spin(h)

    def test_dense_limit_env_validation(self, monkeypatch):
        monkeypatch.setenv("HAMLOWER_DENSE_LIMIT", "zero")
        with pytest.raises(ValidationError):
            dense_spin_limit()


class TestLowSpectrum:
    def test_dense_path(self):
        terms = [PauliTerm(1.0, [(0, a), (1, a)]) for a in AXES]
        h = SpinHamiltonian(2, terms)
        assert np.allclose(low_spectrum(h, 2), [-3.0, 1.0])

    def test_component_above_dense_limit_raises(self, monkeypatch):
        terms = [PauliTerm(1.0, [(i, a), (i + 1, a)])
                 for i in range(3) for a in AXES]
        terms += [PauliTerm(0.3, [(i, "Z")]) for i in range(4)]
        h = SpinHamiltonian(4, terms)
        monkeypatch.setenv("HAMLOWER_DENSE_LIMIT", "3")
        with pytest.raises(ResourceLimitError):
            low_spectrum(h, 3)

    @pytest.mark.parametrize("k", [3, 20, 100])
    def test_components_merge_to_whole_spectrum(self, k):
        # Coupled blocks {0, 3} and {1, 2, 5}, untouched site 4, a constant.
        # k = 3 is below the smaller coupled block's dimension, 20 above it,
        # and 100 above the whole dimension of 64.
        terms = [PauliTerm(0.7, [(0, "X"), (3, "Y")]),
                 PauliTerm(-0.4, [(0, "Z")]),
                 PauliTerm(1.1, [(1, "Z"), (2, "Z")]),
                 PauliTerm(0.6, [(2, "X"), (5, "X")]),
                 PauliTerm(-0.2, [(5, "Y")]),
                 PauliTerm(0.35, [])]
        h = SpinHamiltonian(6, terms)
        assert spin_components(h) == [[0, 3], [1, 2, 5], [4]]
        expected = np.linalg.eigvalsh(realize_spin(h))[:k]
        low = low_spectrum(h, k)
        assert low.shape == expected.shape
        assert np.allclose(low, expected, atol=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(spin_hamiltonians(max_spins=4), st.integers(1, 20))
    def test_matches_dense_eigenvalues(self, h, k):
        expected = np.linalg.eigvalsh(realize_spin(h))[:k]
        assert np.allclose(low_spectrum(h, k), expected, atol=1e-10)


class TestEigensolverChecks:
    @pytest.mark.parametrize("solve", [eig_values, eig_hermitian,
                                       component_eig_values])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), complex(0, float("nan"))])
    def test_non_finite_matrix_is_rejected(self, solve, bad):
        with pytest.raises(ValidationError, match="non-finite"):
            solve(np.array([[bad, 0], [0, 1.0]]))

    @pytest.mark.parametrize("solve", [eig_values, eig_hermitian,
                                       component_eig_values])
    def test_inf_facing_a_finite_mirror_is_rejected(self, solve):
        # The difference is inf there, which an inf scale would excuse.
        with pytest.raises(ValidationError, match="non-finite"):
            solve(np.array([[0.0, np.inf], [0.0, 0.0]]))

    @pytest.mark.parametrize("solve", [eig_values, eig_hermitian,
                                       component_eig_values])
    def test_non_hermitian_matrix_is_rejected(self, solve):
        with pytest.raises(ValidationError, match="not Hermitian"):
            solve(np.array([[0.0, 1.0], [0.0, 0.0]]))

    @staticmethod
    def hermitian_stack(rng, count, m):
        raw = rng.normal(size=(count, m, m)) + 1j * rng.normal(size=(count, m, m))
        return raw + raw.conj().swapaxes(-2, -1)

    def test_stack_matches_single_solves(self):
        stack = self.hermitian_stack(np.random.default_rng(4), 5, 6)
        spectrum = eig_hermitian(stack)
        values = eig_values(stack)
        assert spectrum.values.shape == values.shape == (5, 6)
        assert spectrum.vectors.shape == (5, 6, 6)
        for k, matrix in enumerate(stack):
            single = eig_hermitian(matrix)
            assert np.abs(spectrum.values[k] - single.values).max() <= 1e-12
            assert np.abs(spectrum.vectors[k] - single.vectors).max() <= 1e-12
            assert np.abs(values[k] - eig_values(matrix)).max() <= 1e-12

    @pytest.mark.parametrize("solve", [eig_values, eig_hermitian])
    def test_stack_is_checked_matrix_by_matrix(self, solve):
        stack = self.hermitian_stack(np.random.default_rng(5), 3, 4)
        stack[0] *= 1e6
        # 1e-7 is far below the largest entry of the stack, but not below
        # that of the matrix it sits in.
        stack[2, 0, 1] += 1e-7
        with pytest.raises(ValidationError, match="not Hermitian"):
            solve(stack[2])
        with pytest.raises(ValidationError, match="not Hermitian"):
            solve(stack)
        stack[2, 0, 1] = np.nan
        with pytest.raises(ValidationError, match="non-finite"):
            solve(stack)
        with pytest.raises(ValidationError, match="square"):
            solve(stack[:, :, :3])


class TestSlabCheck:
    """Matrices larger than one slab are checked in row slabs, with the
    whole matrix's maxima and the one-pass messages."""

    N = 2 * HERMITIAN_SLAB_ROWS + 5   # the last slab holds 5 rows

    @classmethod
    def hermitian(cls, rng, count=None):
        shape = (cls.N, cls.N) if count is None else (count, cls.N, cls.N)
        raw = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        return raw + raw.conj().swapaxes(-2, -1)

    def test_a_hermitian_matrix_passes_and_is_returned(self):
        matrix = self.hermitian(np.random.default_rng(61))
        assert _checked_hermitian(matrix) is matrix

    @pytest.mark.parametrize("solve", [eig_values, eig_hermitian,
                                       component_eig_values])
    def test_asymmetry_seen_only_by_the_last_slab(self, solve):
        # Entry and mirror both sit in the last slab's rows.
        matrix = self.hermitian(np.random.default_rng(62))
        matrix[-1, -2] += 1e-6
        with pytest.raises(ValidationError, match="not Hermitian"):
            solve(matrix)

    @pytest.mark.parametrize("solve", [eig_values, eig_hermitian,
                                       component_eig_values])
    @pytest.mark.parametrize("bad, at", [(np.nan, (-1, -2)), (np.inf, (-1, 0))],
                             ids=["nan", "inf-facing-finite-mirror"])
    def test_non_finite_entry_in_the_last_slab(self, solve, bad, at):
        # The inf entry's finite mirror sits in the first slab, which reads
        # the inf as a mirror; no difference is formed before the finiteness
        # test, so no invalid-value warning either.
        matrix = self.hermitian(np.random.default_rng(63))
        matrix[at] = bad
        with pytest.raises(ValidationError, match="non-finite"):
            solve(matrix)

    def test_tolerance_reads_the_whole_matrix_scale(self):
        # The largest entry sits in the last slab and excuses an asymmetry
        # in the first slab that the first slab's own entries would not.
        matrix = np.eye(self.N, dtype=complex)
        matrix[-1, -1] = 1e6
        matrix[0, 1] = 5e-5
        _checked_hermitian(matrix)
        matrix[0, 1] = 2e-4
        with pytest.raises(ValidationError, match="not Hermitian"):
            _checked_hermitian(matrix)

    def test_stack_is_checked_matrix_by_matrix(self):
        stack = self.hermitian(np.random.default_rng(64), count=3)
        stack[0] *= 1e6
        _checked_hermitian(stack)
        # Far below the largest entry of the stack, but not below that of
        # the matrix it sits in.
        stack[2, -1, -2] += 1e-7
        with pytest.raises(ValidationError, match="not Hermitian"):
            _checked_hermitian(stack)
        stack[2, -1, -2] = np.nan
        with pytest.raises(ValidationError, match="non-finite"):
            _checked_hermitian(stack)

    def test_temporaries_stay_slab_sized(self):
        n = 8 * HERMITIAN_SLAB_ROWS
        raw = np.random.default_rng(65).normal(size=(n, n)).astype(complex)
        matrix = raw + raw.T
        tracemalloc.start()
        try:
            _checked_hermitian(matrix)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # A whole-matrix pass holds two complex copies of the matrix; a
        # slab pass holds a few slab-sized ones.
        slab = HERMITIAN_SLAB_ROWS * n * matrix.itemsize
        assert peak <= 3 * slab < matrix.nbytes / 2


class TestComponentEigValues:
    @staticmethod
    def permuted_blocks(rng, sizes, complex_entries):
        """Hermitian blocks of the given sizes, with rows and columns shuffled."""
        dim = sum(sizes)
        matrix = np.zeros((dim, dim), dtype=complex if complex_entries else float)
        start = 0
        for size in sizes:
            raw = rng.normal(size=(size, size))
            if complex_entries:
                raw = raw + 1j * rng.normal(size=(size, size))
            matrix[start:start + size, start:start + size] = raw + raw.conj().T
            start += size
        perm = rng.permutation(dim)
        return matrix[np.ix_(perm, perm)]

    @staticmethod
    def assert_matches_whole(matrix):
        whole = eig_values(matrix)
        split = component_eig_values(matrix)
        assert split.shape == whole.shape
        assert np.abs(split - whole).max() <= 1e-12 * np.abs(whole).max()

    @pytest.mark.parametrize("complex_entries", [False, True])
    def test_permuted_blocks_match_the_whole_solve(self, complex_entries):
        rng = np.random.default_rng(7)
        # Repeated sizes share one stacked solve; 1x1 blocks are isolated
        # indices with a zero row.
        matrix = self.permuted_blocks(rng, [1, 3, 5, 3, 1, 8, 5, 5, 2],
                                      complex_entries)
        matrix[0, 0] = 0.0
        self.assert_matches_whole(matrix)

    @pytest.mark.parametrize("complex_entries", [False, True])
    def test_one_component_matches_the_whole_solve(self, complex_entries):
        matrix = self.permuted_blocks(np.random.default_rng(8), [12],
                                      complex_entries)
        self.assert_matches_whole(matrix)

    def test_chain_is_one_component(self):
        # A path needs several hooking rounds to reach one label.
        dim = 40
        matrix = np.diag(np.arange(dim, dtype=float))
        idx = np.arange(dim - 1)
        matrix[idx, idx + 1] = matrix[idx + 1, idx] = 1.0
        perm = np.random.default_rng(9).permutation(dim)
        self.assert_matches_whole(matrix[np.ix_(perm, perm)])

    def test_one_by_one(self):
        assert component_eig_values(np.array([[-2.5]])).tolist() == [-2.5]

    def test_rejects_a_stack(self):
        with pytest.raises(ValidationError, match="one matrix"):
            component_eig_values(np.zeros((2, 3, 3)))


class TestPauliAlgebra:
    def test_product_table(self):
        assert pauli_product("X", "Y") == (1.0j, "Z")
        assert pauli_product("Y", "X") == (-1.0j, "Z")
        assert pauli_product("Z", "Z") == (1.0 + 0.0j, "I")
        assert pauli_product("I", "Y") == (1.0 + 0.0j, "Y")

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_factor_product_matches_matrices(self, data):
        n = data.draw(st.integers(1, 3))

        def draw_factors():
            sites = data.draw(st.sets(st.integers(0, n - 1)))
            return tuple((s, data.draw(st.sampled_from(AXES))) for s in sorted(sites))

        f1, f2 = draw_factors(), draw_factors()
        phase, prod = multiply_factor_tuples(f1, f2)
        m1 = kron_realize(SpinHamiltonian(n, [PauliTerm(1.0, f1)]))
        m2 = kron_realize(SpinHamiltonian(n, [PauliTerm(1.0, f2)]))
        mp = kron_realize(SpinHamiltonian(n, [PauliTerm(1.0, prod)]))
        assert np.allclose(m1 @ m2, phase * mp, atol=1e-12)

    def test_term_validation(self):
        with pytest.raises(ValidationError):
            PauliTerm(1.0, [(0, "X"), (0, "Y")])
        with pytest.raises(ValidationError):
            PauliTerm(1.0, [(0, "Q")])
        with pytest.raises(ValidationError):
            PauliTerm(float("nan"), [])
        with pytest.raises(ValidationError):
            PauliTerm(1.0 + 0.5j, [])

    def test_canonicalize_merges_and_sorts(self):
        h = SpinHamiltonian(2, [
            PauliTerm(1.0, [(1, "X"), (0, "Z")]),
            PauliTerm(0.5, [(0, "Z"), (1, "X")]),
            PauliTerm(2.0, [(0, "Y")]),
            PauliTerm(1e-15, [(1, "Z")]),
        ]).canonicalize()
        assert h.terms == (
            PauliTerm(2.0, [(0, "Y")]),
            PauliTerm(1.5, [(0, "Z"), (1, "X")]),
        )

    def test_scaled_overflow_is_rejected(self):
        with pytest.raises(ValidationError, match="non-finite"):
            PauliTerm(1e308, [(0, "X")]).scaled(10.0)

    def test_canonical_form_is_kept(self):
        h = SpinHamiltonian(2, [PauliTerm(1.0, [(1, "X")]),
                                PauliTerm(0.5, [(0, "Z")])]).canonicalize()
        assert h.canonicalize() is h
        scaled = h.scaled(2.0)
        assert scaled.canonicalize() is not scaled

    def test_addition_cancels(self):
        a = SpinHamiltonian(1, [PauliTerm(1.0, [(0, "X")])])
        b = SpinHamiltonian(1, [PauliTerm(-1.0, [(0, "X")])])
        assert (a + b).terms == ()


class TestFockSector:
    def test_half_filled_two_modes_order(self):
        sector = FockSector(2, 1)
        assert [sector.state_label(s) for s in sector.states] == ["10", "01"]

    def test_half_filled_four_modes_order(self):
        sector = FockSector(4, 2)
        labels = [sector.state_label(s) for s in sector.states]
        assert labels == ["1100", "1010", "1001", "0110", "0101", "0011"]

    def test_dimension(self):
        assert FockSector(6, 3).dimension == 20

    def test_validation(self):
        with pytest.raises(ValidationError):
            FockSector(2, 3)


class TestRealizeFermion:
    def test_number_operator(self):
        n0 = FermionOperator(2, [(1.0, ((0, True), (0, False)))])
        sector = FockSector(2, 1)
        assert np.allclose(realize_fermion(n0, sector), np.diag([1.0, 0.0]))

    def test_hopping_is_symmetric(self):
        hop = FermionOperator(2, [(1.0, ((0, True), (1, False)))])
        hop = hop + hop.dagger()
        sector = FockSector(2, 1)
        assert np.allclose(realize_fermion(hop, sector),
                           np.array([[0.0, 1.0], [1.0, 0.0]]))

    def test_anticommutation_relations(self):
        num_modes = 3
        # a_m changes particle number, so realize on the full Fock space
        mats = {}
        for m in range(num_modes):
            a_m = FermionOperator(num_modes, [(1.0, ((m, False),))])
            mats[m] = _full_fock_matrix(a_m, num_modes)
        for p in range(num_modes):
            for q in range(num_modes):
                ap, aq = mats[p], mats[q]
                acc = ap @ aq + aq @ ap
                assert np.allclose(acc, 0.0, atol=1e-12)
                acc2 = ap @ aq.conj().T + aq.conj().T @ ap
                expected = np.eye(2 ** num_modes) if p == q else 0.0
                assert np.allclose(acc2, expected, atol=1e-12)

    def test_jw_sign_across_occupied_mode(self):
        # a+_2 on |100> passes one occupied mode (mode 0): sign -1
        op = FermionOperator(3, [(1.0, ((2, True),))])
        m = _full_fock_matrix(op, 3)
        # |100> has bits 0b100 = 4, |101> = 5 in mode-0-leftmost encoding
        assert m[_fock_index(5, 3), _fock_index(4, 3)] == -1.0

    def test_normal_order_contraction(self):
        # a_0 a+_0 = 1 - a+_0 a_0
        op = FermionOperator(1, [(1.0, ((0, False), (0, True)))]).normal_order()
        assert op.terms == ((1.0 + 0.0j, ()),
                            (-1.0 + 0.0j, ((0, True), (0, False))))

    def test_normal_order_preserves_matrix(self):
        rng = np.random.default_rng(7)
        terms = []
        for _ in range(5):
            mono = tuple((int(rng.integers(0, 3)), bool(rng.integers(0, 2)))
                         for _ in range(int(rng.integers(1, 4))))
            terms.append((complex(rng.standard_normal()), mono))
        op = FermionOperator(3, terms)
        before = _full_fock_matrix(op, 3)
        after = _full_fock_matrix(op.normal_order(), 3)
        assert np.allclose(before, after, atol=1e-12)

    def test_nilpotency(self):
        op = FermionOperator(2, [(1.0, ((0, True), (0, True)))]).normal_order()
        assert op.terms == ()


def _fock_index(state: int, num_modes: int) -> int:
    """Position of a basis integer in the particle-number-blocked full space."""
    offset = 0
    n = state.bit_count()
    for k in range(n):
        offset += len(FockSector(num_modes, k).states)
    return offset + FockSector(num_modes, n).index[state]


def _reference_apply_monomial(mono, state: int, num_modes: int):
    """Per-state reference: (sign, state) after the monomial, or (0, None)."""
    sign = 1
    for mode, dagger in reversed(mono):
        pos = num_modes - 1 - mode
        bit = 1 << pos
        occupied = state & bit
        if dagger:
            if occupied:
                return 0, None
            if (state >> (pos + 1)).bit_count() & 1:
                sign = -sign
            state |= bit
        else:
            if not occupied:
                return 0, None
            if (state >> (pos + 1)).bit_count() & 1:
                sign = -sign
            state &= ~bit
    return sign, state


def _reference_realize_fermion(op: FermionOperator, sector: FockSector):
    """Per-state, per-monomial loop over the sector basis."""
    dim = sector.dimension
    out = np.zeros((dim, dim), dtype=complex)
    for coeff, mono in op.terms:
        for col, state in enumerate(sector.states):
            sign, new_state = _reference_apply_monomial(
                mono, state, sector.num_modes)
            row = sector.index.get(new_state)
            if row is not None:
                out[row, col] += coeff * sign
    return out


def _full_fock_matrix(op: FermionOperator, num_modes: int) -> np.ndarray:
    """Dense matrix on the whole Fock space, sectors stacked by particle count."""
    dim = 2 ** num_modes
    out = np.zeros((dim, dim), dtype=complex)
    states = [s for k in range(num_modes + 1)
              for s in FockSector(num_modes, k).states]
    index = {s: i for i, s in enumerate(states)}
    for coeff, mono in op.terms:
        for state in states:
            sign, new_state = _reference_apply_monomial(mono, state, num_modes)
            if new_state is None:
                continue
            out[index[new_state], index[state]] += coeff * sign
    return out


@st.composite
def fermion_operators(draw):
    num_modes = draw(st.integers(1, 6))
    mode = st.integers(0, num_modes - 1)
    monomial = st.lists(st.tuples(mode, st.booleans()), max_size=4)
    part = st.floats(-2.0, 2.0, allow_nan=False)
    coeff = st.builds(complex, part, part)
    terms = draw(st.lists(st.tuples(coeff, monomial.map(tuple)), max_size=6))
    return FermionOperator(num_modes, terms)


class TestVectorizedRealization:
    # create on an occupied mode, annihilate an empty one, leave the sector,
    # a number operator with a complex weight, and a constant
    EDGE_CASES = FermionOperator(3, [
        (1.0, ((0, True), (0, True), (0, False))),
        (0.5, ((2, False), (2, False))),
        (-0.25, ((1, True),)),
        (0.3 - 0.7j, ((1, True), (1, False))),
        (2.0, ()),
    ])

    @given(op=fermion_operators())
    @example(op=EDGE_CASES)
    @settings(max_examples=150, deadline=None)
    def test_matches_per_state_reference(self, op):
        for particles in range(op.num_modes + 1):
            sector = FockSector(op.num_modes, particles)
            got = realize_fermion(op, sector)
            want = _reference_realize_fermion(op, sector)
            assert np.array_equal(got, want)


class TestExcitationTable:
    @pytest.mark.parametrize("modes", [1, 3, 5])
    def test_matches_realized_bilinears(self, modes):
        for particles in range(modes + 1):
            sector = FockSector(modes, particles)
            pairs, targets, signs = excitation_table(sector)
            assert pairs.shape == (sector.dimension,
                                   particles * (modes - particles + 1))
            for p in range(modes):
                for q in range(modes):
                    got = np.zeros((sector.dimension,) * 2)
                    source, slot = np.nonzero(pairs == p * modes + q)
                    got[targets[source, slot], source] = signs[source, slot]
                    bilinear = FermionOperator(modes, [(1.0, ((p, True), (q, False)))])
                    assert np.array_equal(got, realize_fermion(bilinear, sector))


class TestSpinFermionMap:
    @pytest.mark.parametrize("axis", AXES)
    def test_single_site_image(self, axis):
        term = PauliTerm(1.0, [(0, axis)])
        op = jordan_map_spin_to_fermion(term, num_sites=1)
        sector = FockSector(2, 1)
        assert np.allclose(realize_fermion(op, sector), PAULI_MATRICES[axis])

    def test_two_site_string_image(self):
        term = PauliTerm(0.7, [(0, "X"), (1, "Y")])
        op = jordan_map_spin_to_fermion(term, num_sites=2)
        sector = FockSector(4, 2)
        proj = singly_occupied_projector(sector, num_sites=2)
        got = proj.T @ realize_fermion(op, sector) @ proj
        want = kron_realize(SpinHamiltonian(2, [term]))
        assert np.allclose(got, want, atol=1e-12)

    def test_zz_image(self):
        term = PauliTerm(1.0, [(0, "Z"), (1, "Z")])
        op = jordan_map_spin_to_fermion(term, num_sites=2)
        sector = FockSector(4, 2)
        proj = singly_occupied_projector(sector, num_sites=2)
        got = proj.T @ realize_fermion(op, sector) @ proj
        assert np.allclose(got, np.diag([1.0, -1.0, -1.0, 1.0]), atol=1e-12)

    def test_projector_shape(self):
        sector = FockSector(4, 2)
        proj = singly_occupied_projector(sector, num_sites=2)
        assert proj.shape == (6, 4)
        assert np.allclose(proj.T @ proj, np.eye(4))

    @pytest.mark.parametrize("sites", range(1, 7))
    def test_projector_matches_the_state_loop(self, sites):
        sector = FockSector(2 * sites, sites)
        cols = []
        for state in sector.states:
            occ = sector.occupations(state)
            if all(occ[up] + occ[down] == 1
                   for up, down in map(default_site_modes, range(sites))):
                cols.append(sector.index[state])
        want = np.zeros((sector.dimension, len(cols)))
        for k, i in enumerate(cols):
            want[i, k] = 1.0
        got = singly_occupied_projector(sector, sites)
        assert got.dtype == want.dtype and got.shape == (sector.dimension, 2 ** sites)
        assert got.tobytes() == want.tobytes()


class TestTextFormats:
    def test_spin_round_trip(self):
        h = SpinHamiltonian(3, [
            PauliTerm(0.5, [(0, "X"), (2, "Y")]),
            PauliTerm(-1.25, [(1, "Z")]),
        ])
        assert spin_from_text(spin_to_text(h)) == h

    def test_canonical_text_matches_raw_unsorted_terms(self):
        raw = [PauliTerm(0.25, [(2, "Y")]), PauliTerm(-1.5, [(0, "X"), (2, "Z")]),
               PauliTerm(0.75, []), PauliTerm(0.5, [(1, "Z")]),
               PauliTerm(0.125, [(2, "Z"), (0, "X")]), PauliTerm(1e-13, [(0, "Y")])]
        canonical = SpinHamiltonian(3, raw).canonicalize()
        text = spin_to_text(canonical)
        assert text == spin_to_text(SpinHamiltonian(3, raw))
        assert text == spin_to_text(SpinHamiltonian(3, raw[::-1]))
        assert text == ("spins 3\n0.75\n0.5 Z@1\n0.25 Y@2\n-1.375 X@0 Z@2\n")

    def test_spin_parse_errors_carry_line_numbers(self):
        with pytest.raises(ParseError, match="line 2"):
            spin_from_text("spins 2\n1.0 Q@0\n")
        with pytest.raises(ParseError, match="line 1"):
            spin_from_text("nonsense\n")
        with pytest.raises(ParseError):
            spin_from_text("")

    def test_spin_merge_overflow_is_a_parse_error(self):
        with pytest.raises(ParseError, match="non-finite"):
            spin_from_text("spins 1\n1e308 Z@0\n1e308 Z@0\n")

    def test_spin_comments_and_blank_lines(self):
        text = "# a comment\nspins 1\n\n1.0 Z@0  # trailing\n"
        h = spin_from_text(text)
        assert h.terms == (PauliTerm(1.0, [(0, "Z")]),)

    def test_fermion_round_trip(self):
        op = FermionOperator(3, [
            (1.5, ((0, True), (1, False))),
            (-2.0, ((2, True), (2, False))),
        ])
        text = fermion_to_text(op)
        back = _read_fermion(LineReader.from_text(text, "fermion document"))
        assert back.terms == op.terms

    def test_fermion_rejects_complex(self):
        op = FermionOperator(1, [(1.0j, ((0, True), (0, False)))])
        with pytest.raises(ValidationError):
            fermion_to_text(op)

    @settings(max_examples=30, deadline=None)
    @given(spin_hamiltonians())
    def test_spin_round_trip_property(self, h):
        assert spin_from_text(spin_to_text(h)) == h
