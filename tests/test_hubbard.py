"""Hubbard lattice construction, exchange physics, and serialization tests."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from hamlower.errors import (
    ParseError,
    RegimeError,
    ResourceLimitError,
    ValidationError,
)
from hamlower.hubbard import (
    HubbardModel,
    build_hubbard,
    check_regime,
    exact_spectrum,
    exchange_error_budget,
    half_filling_sector,
    heisenberg_from_hubbard,
    hopping_operator,
    hubbard_from_text,
    hubbard_to_text,
    interaction_operator,
    particle_hole_map,
    sector_values,
    singlet_triplet_splitting,
    verify_exchange,
)
from hamlower import hubbard, operators, sw
from hamlower.operators import (
    AXES,
    FermionOperator,
    PauliTerm,
    SpinHamiltonian,
    component_blocks,
    component_eig_values,
    component_indices,
    default_site_modes,
    eig_hermitian,
    eig_values,
    jordan_map_spin_to_fermion,
    realize_fermion,
    realize_spin,
    stacked_eig_values,
)


def dimer(t=1.0, u=100.0, fields=()):
    return HubbardModel(2, t, u, ((0, 1),), fields)


class TestModelValidation:
    def test_accepts_simple_chain(self):
        m = HubbardModel(3, 1.0, 50.0, ((0, 1), (1, 2)))
        assert m.num_modes == 6
        assert m.max_degree() == 2
        assert m.fields == ((0.0, 0.0, 0.0),) * 3

    def test_edge_validation(self):
        with pytest.raises(ValidationError):
            HubbardModel(2, 1.0, 10.0, ((0, 0),))
        with pytest.raises(ValidationError):
            HubbardModel(2, 1.0, 10.0, ((0, 2),))
        with pytest.raises(ValidationError):
            HubbardModel(2, 1.0, 10.0, ((0, 1), (1, 0)))

    def test_scalar_validation(self):
        with pytest.raises(ValidationError):
            HubbardModel(2, -1.0, 10.0, ((0, 1),))
        with pytest.raises(ValidationError):
            HubbardModel(2, 1.0, 0.0, ((0, 1),))
        with pytest.raises(ValidationError):
            HubbardModel(0, 1.0, 10.0, ())

    def test_field_table_validation(self):
        with pytest.raises(ValidationError):
            HubbardModel(2, 1.0, 10.0, ((0, 1),), ((0.0, 0.0, 0.0),))
        with pytest.raises(ValidationError):
            HubbardModel(1, 1.0, 10.0, (), ((0.0, math.inf, 0.0),))

    def test_exact_size_cap(self):
        big = HubbardModel(7, 1.0, 100.0, ())
        with pytest.raises(ResourceLimitError):
            build_hubbard(big)
        with pytest.raises(ResourceLimitError):
            half_filling_sector(big)


def reference_hubbard(model):
    """Hopping, repulsion and fields summed term by term, then normal ordered."""
    modes = model.num_modes
    out = FermionOperator(modes, [])
    for i, j in model.edges:
        for spin in (0, 1):
            a = default_site_modes(i)[spin]
            b = default_site_modes(j)[spin]
            out = out + FermionOperator(
                modes, [(-model.t, ((a, True), (b, False)))])
            out = out + FermionOperator(
                modes, [(-model.t, ((b, True), (a, False)))])
    for site in range(model.sites):
        up, down = default_site_modes(site)
        out = out + FermionOperator(
            modes, [(model.u, ((up, True), (up, False), (down, True), (down, False)))])
    for site, row in enumerate(model.fields):
        for axis, b in zip(AXES, row):
            if b != 0.0:
                out = out + jordan_map_spin_to_fermion(
                    PauliTerm(b, [(site, axis)]), model.sites)
    return out.normal_order()


BUILD_MODELS = {
    "ring": HubbardModel(4, 1.3, 140.0, ((0, 1), (1, 2), (2, 3), (3, 0))),
    "chain": HubbardModel(3, 0.7, 80.0, ((0, 1), (1, 2))),
    "xz-fields": HubbardModel(3, 1.0, 100.0, ((0, 1), (1, 2)),
                              ((0.1, 0.0, -0.2), (0.0, 0.0, 0.3), (0.05, 0.0, 0.0))),
    "xyz-fields": HubbardModel(3, 1.0, 100.0, ((0, 1), (1, 2), (2, 0)),
                               ((0.1, 0.2, -0.3), (0.0, -0.1, 0.0), (0.3, 0.1, 0.2))),
}


class TestBuildHubbard:
    @pytest.mark.parametrize("name", sorted(BUILD_MODELS))
    def test_equals_term_by_term_build(self, name):
        assert build_hubbard(BUILD_MODELS[name]) == reference_hubbard(BUILD_MODELS[name])

    @pytest.mark.parametrize("name", sorted(BUILD_MODELS))
    def test_text_is_byte_identical(self, name, monkeypatch):
        text = hubbard_to_text(BUILD_MODELS[name])
        monkeypatch.setattr(hubbard, "build_hubbard", reference_hubbard)
        assert hubbard_to_text(BUILD_MODELS[name]) == text


class TestExactSpectra:
    def test_free_dimer_spectrum(self):
        m = dimer(t=1.0)
        sector = half_filling_sector(m)
        values = eig_hermitian(
            realize_fermion(hopping_operator(m), sector)).values
        assert np.allclose(values, [-2, 0, 0, 0, 0, 2], atol=1e-12)

    def test_atomic_limit_spectrum(self):
        # Without hopping the half-filled dimer has four zero-energy spin
        # states and two doubly-occupied states at U.
        m = HubbardModel(2, 0.0, 25.0, ((0, 1),))
        assert np.allclose(exact_spectrum(m), [0, 0, 0, 0, 25, 25], atol=1e-12)

    def test_dimer_ground_state_closed_form(self):
        m = dimer(t=1.3, u=40.0)
        expected = (m.u - math.sqrt(m.u ** 2 + 16 * m.t ** 2)) / 2
        assert exact_spectrum(m)[0] == pytest.approx(expected, abs=1e-11)

    def test_splitting_approaches_exchange_value(self):
        m = dimer(t=1.0, u=100.0)
        splitting = singlet_triplet_splitting(m)
        assert splitting == pytest.approx(4 * m.t ** 2 / m.u, abs=5e-4)

    def test_triplet_degeneracy(self):
        values = exact_spectrum(dimer())
        assert values[1:4] == pytest.approx([values[1]] * 3, abs=1e-12)
        assert values[1] - values[0] > 1e-3

    def test_zeeman_field_splits_triplet(self):
        m = dimer(fields=((0.0, 0.0, 0.2), (0.0, 0.0, 0.2)))
        values = exact_spectrum(m)
        # The S_z = +/-1 triplet states shift by -/+ 2 * 0.2.
        gaps = np.diff(values[:4])
        assert gaps.max() > 0.3

    def test_number_conservation(self):
        m = dimer()
        op = build_hubbard(m)
        for coeff, mono in op.terms:
            assert sum(1 if d else -1 for _, d in mono) == 0


class TestExchangeModel:
    def test_closed_form_terms(self):
        m = dimer(t=2.0, u=200.0)
        h = heisenberg_from_hubbard(m)
        j = m.t ** 2 / m.u
        expected = SpinHamiltonian(2, [PauliTerm(-j, [])] + [
            PauliTerm(j, [(0, a), (1, a)]) for a in "XYZ"])
        assert h == expected

    def test_singlet_is_ground(self):
        h = heisenberg_from_hubbard(dimer())
        spectrum = eig_hermitian(realize_spin(h))
        singlet = np.zeros(4)
        singlet[1], singlet[2] = 1 / math.sqrt(2), -1 / math.sqrt(2)
        overlap = abs(singlet @ spectrum.vectors[:, 0])
        assert overlap == pytest.approx(1.0, abs=1e-10)
        assert spectrum.values[0] == pytest.approx(-4 * 1.0 / 100.0, rel=1e-12)
        assert spectrum.values[1:] == pytest.approx([0.0] * 3, abs=1e-12)

    def test_fields_pass_through(self):
        m = dimer(fields=((0.1, 0.0, -0.2), (0.0, 0.0, 0.0)))
        h = heisenberg_from_hubbard(m)
        coeffs = {t.factors: t.coefficient for t in h.terms}
        assert coeffs[((0, "X"),)] == pytest.approx(0.1)
        assert coeffs[((0, "Z"),)] == pytest.approx(-0.2)

    def test_regime_guard(self):
        with pytest.raises(RegimeError):
            heisenberg_from_hubbard(HubbardModel(2, 1.0, 9.9, ((0, 1),)))
        check_regime(HubbardModel(2, 1.0, 10.0, ((0, 1),)))
        # Degree raises the bar: a 3-site star with degree 2 needs U >= 20 t.
        with pytest.raises(RegimeError):
            heisenberg_from_hubbard(HubbardModel(3, 1.0, 15.0, ((0, 1), (0, 2))))


class TestVerifyExchange:
    def test_dimer_is_exact(self):
        report = verify_exchange(dimer())
        assert report.passed
        assert report.first_order_norm == 0.0
        assert report.measured <= 1e-10
        assert report.splitting_closed_form == pytest.approx(0.04)
        assert report.splitting_derived == pytest.approx(0.04, abs=5e-4)

    def test_chain_within_budget(self):
        m = HubbardModel(3, 1.0, 100.0, ((0, 1), (1, 2)))
        report = verify_exchange(m)
        assert report.passed
        assert report.measured <= exchange_error_budget(m)

    def test_fields_preserve_the_block_structure(self):
        m = dimer(fields=((0.0, 0.0, 0.3), (0.1, 0.2, 0.0)))
        report = verify_exchange(m)
        assert report.passed
        assert report.first_order_norm == 0.0

    def test_square_with_transverse_fields(self):
        m = HubbardModel(4, 1.0, 200.0,
                         ((0, 1), (1, 2), (2, 3), (3, 0)),
                         ((0.05, 0.0, 0.0),) * 4)
        report = verify_exchange(m)
        assert report.passed

    def test_explicit_tolerance_can_fail(self):
        m = HubbardModel(3, 1.0, 100.0, ((0, 1), (1, 2)))
        # Nonzero transverse fields make the second-order block deviate from
        # the field-free closed form; an absurdly tight tolerance must fail.
        m = HubbardModel(3, 1.0, 100.0, ((0, 1), (1, 2)),
                         ((0.3, 0.0, 0.0), (0.0, 0.0, 0.0), (0.0, 0.0, 0.3)))
        report = verify_exchange(m, tolerance=1e-18)
        assert not report.passed

    def test_regime_guard_applies(self):
        with pytest.raises(RegimeError):
            verify_exchange(HubbardModel(2, 1.0, 5.0, ((0, 1),)))

    def test_index_split_solves_four_matrices_and_no_qr(self, monkeypatch):
        solves = []  # (helper, matrix dim, largest block handed to eigvalsh)
        blocks = []
        running = []  # the counted helper being run, if any
        eigvalsh = np.linalg.eigvalsh

        def sized(matrix, *args, **kwargs):
            blocks.append(np.shape(matrix)[-1])
            if not running:
                solves.append(("eigvalsh", blocks[-1], blocks[-1]))
            return eigvalsh(matrix, *args, **kwargs)

        def counted(helper, dim=lambda matrix: np.shape(matrix)[0]):
            def solve(matrix):
                blocks.clear()
                running.append(helper)
                values = helper(matrix)
                running.pop()
                solves.append((helper.__name__, dim(matrix), max(blocks)))
                return values
            return solve

        def refuse(*args, **kwargs):
            raise AssertionError("QR factorization on the index split")

        monkeypatch.setattr(np.linalg, "eigvalsh", sized)
        monkeypatch.setattr(sw, "eig_values", counted(eig_values))
        monkeypatch.setattr(sw, "stacked_eig_values", counted(
            stacked_eig_values, lambda stacks: sum(s.shape[0] * s.shape[1]
                                                   for s in stacks)))
        monkeypatch.setattr(sw, "component_eig_values",
                            counted(component_eig_values))
        monkeypatch.setattr(np.linalg, "qr", refuse)
        ring = BUILD_MODELS["ring"]
        xyz = HubbardModel(ring.sites, ring.t, ring.u, ring.edges,
                           ((0.01, 0.02, -0.03), (0.0, -0.01, 0.02),
                            (0.03, 0.01, 0.0), (-0.02, 0.0, 0.01)))
        assert verify_exchange(xyz).passed
        # On the 70-state sector the low block is solved whole.  The high
        # block, held as component stacks, splits by site occupations (at
        # most two singly occupied sites, so 4 spin states) and v by N-up
        # (36 = 6 * 6).  Of h0 + v only the even particle-hole block is
        # solved: the 16 singly-occupied fixed points and one state of each
        # of the 27 pairs.  The odd block's floor lies above both values read.
        assert solves == [("eig_values", 16, 16),
                          ("stacked_eig_values", 54, 4),
                          ("component_eig_values", 70, 36),
                          ("eigvalsh", 43, 43)]

    def test_each_input_is_checked_for_hermiticity_once(self, monkeypatch):
        # Whole matrices go through _checked_hermitian, block-diagonal ones
        # through their component stacks; each reaches one verdict.
        checked, stacked, verdicts = [], [], []
        whole, stacks = operators._checked_hermitian, operators.stacked_eig_values
        verdict = operators._hermitian_verdict

        def recorded(matrix):
            checked.append(np.array(matrix))
            return whole(matrix)

        def recorded_stacks(blocks):
            stacked.append([block.copy() for block in blocks])
            return stacks(blocks)

        def counted_verdict(largest):
            verdicts.append(largest)
            return verdict(largest)

        # Patched wherever the checkers are bound, so a direct call counts too.
        for module in (operators, sw, hubbard):
            for name, spy in (("_checked_hermitian", recorded),
                              ("stacked_eig_values", recorded_stacks)):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, spy)
        monkeypatch.setattr(operators, "_hermitian_verdict", counted_verdict)
        ring = BUILD_MODELS["ring"]
        xyz = HubbardModel(ring.sites, ring.t, ring.u, ring.edges,
                           ((0.01, 0.02, -0.03), (0.0, -0.01, 0.02),
                            (0.03, 0.01, 0.0), (-0.02, 0.0, 0.01)))
        assert verify_exchange(xyz).passed
        sector = half_filling_sector(xyz)
        h0 = realize_fermion(interaction_operator(xyz), sector)
        v = realize_fermion(hopping_operator(xyz), sector).real
        low = hubbard.singly_occupied_projector(sector, xyz.sites).any(axis=1)
        # h0 is checked through its two diagonal blocks, which the split
        # solves; the cross blocks are read by the block-diagonality test.
        inputs = {"h0 low block": h0[np.ix_(low, low)],
                  "h0 high block": h0[np.ix_(~low, ~low)],
                  "v": v, "h0 + v": h0 + v, "h0": h0}
        seen = {name: sum(m.shape == want.shape and np.array_equal(m, want)
                          for m in checked)
                for name, want in inputs.items()}
        assert seen == {"h0 low block": 1, "h0 high block": 0,
                        "v": 0, "h0 + v": 1, "h0": 0}
        # The high block and v are checked through their components.
        assert len(stacked) == 2
        for blocks, matrix in zip(stacked, (inputs["h0 high block"], v)):
            want = component_blocks(matrix, component_indices(matrix))
            assert len(blocks) == len(want)
            assert all(np.array_equal(a, b) for a, b in zip(blocks, want))
        assert len(checked) == 2 and len(verdicts) == 4

    @pytest.mark.parametrize("name", sorted(BUILD_MODELS))
    def test_split_keeps_hopping_real(self, name, monkeypatch):
        seen = []
        original = sw.effective_hamiltonian

        def spy(h, v, *args, **kwargs):
            seen.append((np.iscomplexobj(h), np.iscomplexobj(v)))
            return original(h, v, *args, **kwargs)

        monkeypatch.setattr(sw, "effective_hamiltonian", spy)
        model = BUILD_MODELS[name]
        assert verify_exchange(model).passed
        y_field = any(row[1] != 0.0 for row in model.fields)
        assert seen == [(y_field, False)]

    def test_six_ring_peaks_below_two_sector_matrices(self, monkeypatch):
        # The 924-state sector's complex matrix takes 13.7 MB.  A dense
        # complement, a dense high block and whole-matrix temporaries once
        # held about 3.5 of them at once, and a complex realization of the
        # hopping, copied to real, 2.5.  Complex h0, the real hopping and
        # the whole solve of h0 + v now set the traced peak.
        splits = []
        split_blocks = sw.split_blocks

        def kept(*args, **kwargs):
            splits.append(split_blocks(*args, **kwargs))
            return splits[-1]

        def arrays(value):
            if isinstance(value, np.ndarray):
                yield value
            elif isinstance(value, (list, tuple)):
                for item in value:
                    yield from arrays(item)

        monkeypatch.setattr(sw, "split_blocks", kept)
        ring = HubbardModel(6, 1.0, 100.0, tuple((i, (i + 1) % 6) for i in range(6)),
                            tuple((0.01 * (i % 3), -0.02 + 0.01 * i, 0.015 - 0.005 * i)
                                  for i in range(6)))
        dim = half_filling_sector(ring).dimension
        tracemalloc.start()
        try:
            assert verify_exchange(ring).passed
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert dim == 924
        assert peak < 2 * dim ** 2 * np.dtype(complex).itemsize
        # The coordinate split keeps no basis, and no array as large as the
        # 924 x 64 low columns it was given.
        (split,) = splits
        assert split.basis is None and split.low.shape == (64,)
        held = [array for f in dataclasses.fields(split)
                for array in arrays(getattr(split, f.name))]
        assert max(array.nbytes for array in held) < dim * 64 * np.dtype(float).itemsize


def lattice(sites, ring, fields=False, t=1.0, u=100.0):
    edges = [(i, i + 1) for i in range(sites - 1)] + ([(sites - 1, 0)] if ring else [])
    rng = np.random.default_rng(sites)
    rows = tuple(tuple(0.04 * rng.uniform(-1, 1, 3)) for _ in range(sites)) if fields else ()
    return HubbardModel(sites, t, u, tuple(edges), rows)


# The exact benchmark's shapes: (sites, ring, fields) and the particle-hole
# sector sizes of their half-filling sectors (the odd ring has no map).
BENCH_SHAPES = {(6, True, True): [494, 430], (4, True, False): [43, 27],
                (4, False, True): [43, 27], (5, False, False): [142, 110],
                (5, True, True): [252]}


class TestParticleHoleMap:
    @pytest.mark.parametrize("fields", [False, True])
    @pytest.mark.parametrize("sites, ring", [(2, False), (3, False), (4, False),
                                             (5, False), (6, False),
                                             (4, True), (6, True)])
    def test_signed_involution_commuting_with_both_parts(self, sites, ring, fields):
        model = lattice(sites, ring, fields)
        sector = half_filling_sector(model)
        image, sign = particle_hole_map(model, sector)
        index = np.arange(sector.dimension)
        assert np.array_equal(np.sort(image), index)
        assert set(np.unique(sign)) <= {-1.0, 1.0}
        # U|b> = sign[b] |image b>: U^2 = I and U^T M U = M for h0 and v
        assert np.array_equal(image[image], index)
        assert np.array_equal(sign[image] * sign, np.ones(index.size))
        for op in (interaction_operator(model), hopping_operator(model)):
            matrix = realize_fermion(op, sector)
            mapped = sign[:, None] * matrix[np.ix_(image, image)] * sign
            assert np.array_equal(mapped, matrix)
        # The fixed points are the singly-occupied states, all even.
        single = hubbard.singly_occupied_projector(sector, sites).any(axis=1)
        assert np.array_equal(image == index, single)
        assert np.array_equal(sign[single], np.ones(2 ** sites))

    @pytest.mark.parametrize("shape", sorted(BENCH_SHAPES), ids=lambda shape: "{}-{}{}".format(
        shape[0], "ring" if shape[1] else "chain", "-fields" if shape[2] else ""))
    def test_sector_spectrum_matches_the_whole_solve(self, shape, monkeypatch):
        model = lattice(*shape)
        sector = half_filling_sector(model)
        matrix = realize_fermion(build_hubbard(model), sector)
        whole = np.linalg.eigvalsh(matrix)
        sizes = []
        eigvalsh = np.linalg.eigvalsh

        def sized(block, *args, **kwargs):
            sizes.append(block.shape[0])
            return eigvalsh(block, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", sized)
        values = exact_spectrum(model)
        assert sizes == BENCH_SHAPES[shape]
        assert np.all(np.diff(values) >= 0)
        assert np.abs(values - whole).max() <= 1e-11
        report = verify_exchange(model)
        assert report.splitting_derived == pytest.approx(whole[1] - whole[0], abs=1e-11)

    @pytest.mark.parametrize("model", [
        HubbardModel(3, 1.0, 100.0, ((0, 1), (1, 2), (2, 0))),
        lattice(5, True, fields=True)], ids=["triangle", "5-ring"])
    def test_odd_cycle_has_no_map_and_one_sector(self, model, monkeypatch):
        sector = half_filling_sector(model)
        assert particle_hole_map(model, sector) is None
        matrix = realize_fermion(build_hubbard(model), sector)
        solved = []
        eigvalsh = np.linalg.eigvalsh

        def recorded(block, *args, **kwargs):
            solved.append(block)
            return eigvalsh(block, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", recorded)
        values = sector_values(model, sector, matrix)
        assert len(solved) == 1 and solved[0] is matrix
        assert values.tobytes() == eigvalsh(matrix).tobytes()


def recorded_solves(monkeypatch):
    """Record every block handed to eigvalsh and every odd sector block built."""
    solved, odd = [], []
    eigvalsh, sector_block = np.linalg.eigvalsh, hubbard._sector_block

    def recorded(block, *args, **kwargs):
        solved.append(block)
        return eigvalsh(block, *args, **kwargs)

    def built(matrix, image, sign, s):
        block = sector_block(matrix, image, sign, s)
        if s < 0:
            odd.append(block)
        return block

    monkeypatch.setattr(np.linalg, "eigvalsh", recorded)
    monkeypatch.setattr(hubbard, "_sector_block", built)
    return solved, odd


# Every model verify_exchange accepts elsewhere in the suite.
ACCEPTED_MODELS = {
    "dimer": dimer(),
    "dimer-fields": dimer(fields=((0.0, 0.0, 0.3), (0.1, 0.2, 0.0))),
    "chain-3": HubbardModel(3, 1.0, 100.0, ((0, 1), (1, 2))),
    "chain-3-fields": HubbardModel(3, 1.0, 100.0, ((0, 1), (1, 2)), (
        (0.3, 0.0, 0.0), (0.0, 0.0, 0.0), (0.0, 0.0, 0.3))),
    "ring-4-transverse": HubbardModel(4, 1.0, 200.0, ((0, 1), (1, 2), (2, 3), (3, 0)),
                                      ((0.05, 0.0, 0.0),) * 4),
    "ring-4-xyz": HubbardModel(4, 1.3, 140.0, ((0, 1), (1, 2), (2, 3), (3, 0)), (
        (0.01, 0.02, -0.03), (0.0, -0.01, 0.02), (0.03, 0.01, 0.0), (-0.02, 0.0, 0.01))),
    "ring-4-cli": HubbardModel(4, 1.2, 120.0, ((0, 1), (1, 2), (2, 3), (3, 0))),
    "ring-6-xyz": HubbardModel(6, 1.0, 100.0, tuple((i, (i + 1) % 6) for i in range(6)),
                               tuple((0.01 * (i % 3), -0.02 + 0.01 * i, 0.015 - 0.005 * i)
                                     for i in range(6))),
    **{f"build-{name}": model for name, model in BUILD_MODELS.items()},
    **{"bench-{}-{}{}".format(shape[0], "ring" if shape[1] else "chain",
                              "-fields" if shape[2] else ""): lattice(*shape)
       for shape in BENCH_SHAPES},
}


class TestLowestValues:
    @pytest.mark.parametrize("fields", [False, True], ids=["plain", "xyz"])
    @pytest.mark.parametrize("sites, ring", [(1, False), (2, False), (3, False),
                                             (4, False), (5, False), (6, False),
                                             (3, True), (4, True), (5, True), (6, True)])
    def test_lowest_is_the_prefix_of_every_value(self, sites, ring, fields):
        # A single site has only its two fixed points: the odd block is empty.
        model = lattice(sites, ring, fields)
        sector = half_filling_sector(model)
        matrix = realize_fermion(build_hubbard(model), sector)
        every = sector_values(model, sector, matrix)
        assert every.size == sector.dimension
        for k in (1, 2, 2 ** sites, sector.dimension, sector.dimension + 1):
            assert np.array_equal(sector_values(model, sector, matrix, lowest=k),
                                  every[:k])

    @pytest.mark.parametrize("sites, ring", [(4, False), (5, False), (4, True), (6, True)])
    def test_regime_limit_low_band_needs_no_odd_solve(self, sites, ring, monkeypatch):
        # At U = REGIME_FACTOR * t * max_degree with fields of 0.3 t the odd
        # block's floor still clears the whole low band, which is what the
        # lowest-2**n gate of the exact spectrum reads.
        model = lattice(sites, ring, t=1.0, u=hubbard.REGIME_FACTOR * 2)
        model = dataclasses.replace(model, fields=tuple(
            (0.3 * (-1) ** i, 0.3, -0.3) for i in range(sites)))
        sector = half_filling_sector(model)
        matrix = realize_fermion(build_hubbard(model), sector)
        every = sector_values(model, sector, matrix)
        solved, odd = recorded_solves(monkeypatch)
        values = sector_values(model, sector, matrix, lowest=2 ** sites)
        assert len(solved) == 1 and len(odd) == 1
        assert np.array_equal(values, every[:2 ** sites])

    @pytest.mark.parametrize("u, lowest", [(1.0, 1), (1.0, 2), (100.0, 44)],
                             ids=["U=t-ground", "U=t-pair", "above-even-block"])
    def test_uncleared_floor_solves_both_blocks(self, u, lowest, monkeypatch):
        # At U = t the odd block reaches into the low values; asking for more
        # values than the even block's 43 needs the odd block at any U.
        model = lattice(4, True, u=u)
        sector = half_filling_sector(model)
        matrix = realize_fermion(build_hubbard(model), sector)
        every = sector_values(model, sector, matrix)
        solved, odd = recorded_solves(monkeypatch)
        values = sector_values(model, sector, matrix, lowest=lowest)
        assert [block.shape[0] for block in solved] == [43, 27]
        assert solved[1] is odd[0]
        assert np.array_equal(values, every[:lowest])

    @pytest.mark.parametrize("model", [
        HubbardModel(3, 1.0, 100.0, ((0, 1), (1, 2), (2, 0))),
        lattice(5, True, fields=True)], ids=["triangle", "5-ring"])
    def test_odd_cycle_returns_the_whole_solves_prefix(self, model, monkeypatch):
        sector = half_filling_sector(model)
        matrix = realize_fermion(build_hubbard(model), sector)
        whole = np.linalg.eigvalsh(matrix)
        solved, _ = recorded_solves(monkeypatch)
        for k in (1, 2, 2 ** model.sites):
            assert np.array_equal(sector_values(model, sector, matrix, lowest=k),
                                  whole[:k])
        assert len(solved) == 3 and all(block is matrix for block in solved)

    @pytest.mark.parametrize("lowest", [0, -1])
    def test_lowest_below_one_is_refused(self, lowest):
        model = dimer()
        sector = half_filling_sector(model)
        matrix = realize_fermion(build_hubbard(model), sector)
        with pytest.raises(ValidationError, match="lowest"):
            sector_values(model, sector, matrix, lowest=lowest)

    @pytest.mark.parametrize("name", sorted(ACCEPTED_MODELS))
    def test_verify_exchange_never_solves_the_odd_block(self, name, monkeypatch):
        # An odd cycle has no odd block; its whole matrix is the one solve.
        model = ACCEPTED_MODELS[name]
        sector = half_filling_sector(model)
        bipartite = particle_hole_map(model, sector) is not None
        solved, odd = recorded_solves(monkeypatch)
        report = verify_exchange(model)
        assert len(odd) == bipartite
        assert not any(block is built for block in solved for built in odd)
        every = np.linalg.eigvalsh(realize_fermion(build_hubbard(model), sector))
        assert report.splitting_derived == pytest.approx(every[1] - every[0], abs=1e-11)

    def test_splitting_reads_the_two_lowest_values(self, monkeypatch):
        model = lattice(4, True, fields=True)
        every = exact_spectrum(model)
        solved, odd = recorded_solves(monkeypatch)
        assert singlet_triplet_splitting(model) == every[1] - every[0]
        assert [block.shape[0] for block in solved] == [43] and len(odd) == 1


class TestSerialization:
    def test_round_trip_plain(self):
        m = HubbardModel(3, 1.5, 60.0, ((0, 1), (1, 2)))
        assert hubbard_from_text(hubbard_to_text(m)) == m

    def test_round_trip_with_fields(self):
        m = dimer(fields=((0.0, 0.0, 0.3), (0.1, 0.0, 0.0)))
        assert hubbard_from_text(hubbard_to_text(m)) == m

    def test_operator_section_present_for_real_models(self):
        text = hubbard_to_text(dimer())
        assert "operator" in text
        assert "modes 4" in text

    def test_operator_section_omitted_for_y_fields(self):
        m = dimer(fields=((0.0, 0.4, 0.0), (0.0, 0.0, 0.0)))
        assert "operator" not in hubbard_to_text(m)
        assert hubbard_from_text(hubbard_to_text(m)) == m

    def test_parse_errors_name_the_line(self):
        with pytest.raises(ParseError, match="hubbard"):
            hubbard_from_text("spins 2\n")
        good = hubbard_to_text(dimer())
        with pytest.raises(ParseError, match="line"):
            hubbard_from_text(good.replace("edges 1", "edges x"))
        with pytest.raises(ParseError):
            hubbard_from_text(good.replace("0 1\n", "0 1 9\n"))
        with pytest.raises(ParseError):
            hubbard_from_text("hubbard\nsites 2\nt 1.0\n")

    def test_second_field_row_for_a_site_is_rejected(self):
        text = ("hubbard\nsites 2\nt 1.0\nU 100.0\nedges 1\n0 1\n"
                "fields 2\n0 0.5 0 0\n0 0 0 0.25\n")
        with pytest.raises(ParseError, match="line 9: .*site 0 appears twice"):
            hubbard_from_text(text)

    def test_repeated_edge_names_its_line(self):
        text = ("hubbard\nsites 2\nt 1.0\nU 100.0\nedges 2\n0 1\n1 0\n"
                "fields 0\n")
        with pytest.raises(ParseError, match=r"line 7: .*edge \(1, 0\) appears twice"):
            hubbard_from_text(text)

    def test_operator_section_parse_errors(self):
        header = hubbard_to_text(dimer()).split("operator\n")[0]
        with pytest.raises(ParseError, match="line 10"):
            hubbard_from_text(header + "operator\nmodes 4\n1.0 *1\nend\n")
        with pytest.raises(ParseError, match="mode 5"):
            hubbard_from_text(header + "operator\nmodes 4\n1.0 +5\nend\n")

    def test_trailing_content_is_rejected(self):
        y_field = dimer(fields=((0.0, 0.4, 0.0), (0.0, 0.0, 0.0)))
        with pytest.raises(ParseError, match="operator"):
            hubbard_from_text(hubbard_to_text(y_field) + "junk\n")
        with pytest.raises(ParseError, match="trailing"):
            hubbard_from_text(hubbard_to_text(dimer()) + "junk\n")

    def test_operator_section_must_match_the_model(self):
        lines = hubbard_to_text(dimer()).splitlines()
        first_term = lines.index("operator") + 2
        coeff, rest = lines[first_term].split(" ", 1)
        lines[first_term] = f"{float(coeff) + 1e-6!r} {rest}"
        with pytest.raises(ParseError, match="operator"):
            hubbard_from_text("\n".join(lines) + "\n")

    def test_comments_are_ignored(self):
        text = hubbard_to_text(dimer())
        commented = "# lattice model\n" + text.replace(
            "edges 1", "edges 1  # one bond")
        assert hubbard_from_text(commented) == dimer()


class TestSectorConventions:
    def test_half_filling_dimension(self):
        assert half_filling_sector(dimer()).dimension == 6
        m3 = HubbardModel(3, 1.0, 100.0, ((0, 1),))
        assert half_filling_sector(m3).dimension == 20

    def test_interaction_counts_double_occupancy(self):
        m = dimer(t=0.0 + 1.0, u=30.0)
        sector = half_filling_sector(m)
        h0 = realize_fermion(interaction_operator(m), sector)
        diag = np.diag(h0.real)
        doubles = [sum(1 for s in range(m.sites)
                       if sector.occupations(state)[2 * s]
                       and sector.occupations(state)[2 * s + 1])
                   for state in sector.states]
        assert np.allclose(diag, [m.u * d for d in doubles])
