"""Mean-field solver, Wick energies, and Ising embedding tests.

The energy oracle builds the determinant explicitly in the Fock sector
(amplitudes are minors of the orbital matrix, signs from the canonical
creation order) and evaluates the realized Hamiltonian on that vector, so
the Wick formula and the Fock matrix are tested against first principles.
The library evaluates the Wick energy through its Fock kernel; the tests
hold it to ``wick_energy``, the direct and exchange contractions of the
whole two-body tensor, and differentiate that reference, not the kernel.
"""

import tracemalloc
from itertools import combinations
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hamlower import meanfield

from hamlower.errors import ParseError, ResourceLimitError, ValidationError
from hamlower.meanfield import (
    IsingInstance,
    SCFResult,
    SecondQuantizedHamiltonian,
    SlaterState,
    classical_energy,
    classical_state,
    decode_spins,
    default_penalty,
    embed_ising,
    exact_ground_energy,
    grid_edges,
    grid_index,
    hartree_fock_energy,
    index_to_spins,
    ising_from_text,
    ising_oracle,
    ising_to_text,
    random_instance,
    scf_solve,
    second_quantized_from_text,
    second_quantized_to_text,
    sector_matrix,
    _haar_orbitals,
    _pulay_weights,
)
from hamlower.operators import (
    FermionOperator,
    FockSector,
    eig_hermitian,
    realize_fermion,
)


def fermionic_operator(ham):
    """Oracle: the coefficient tensors expanded into an explicit operator."""
    m = ham.num_modes
    terms = []
    for i in range(m):
        for j in range(m):
            c = ham.one_body[i, j]
            if c != 0:
                terms.append((c, ((i, True), (j, False))))
    w = ham.dense_two_body()
    for i in range(m):
        for j in range(m):
            for k in range(m):
                for l in range(m):
                    c = w[i, j, k, l]
                    if c != 0:
                        terms.append(
                            (0.5 * c,
                             ((i, True), (j, True), (k, False), (l, False))))
    return FermionOperator(m, terms).normal_order()


def wick_energy(ham, density):
    """Reference Wick energy of a density, contracted over the whole tensor."""
    w = ham.dense_two_body()
    e_one = np.einsum("ij,ji->", ham.one_body, density)
    direct = np.einsum("ijkl,li,kj->", w, density, density)
    exchange = np.einsum("ijkl,ki,lj->", w, density, density)
    return float((e_one + 0.5 * (direct - exchange)).real)


def fock_matrix(ham, density):
    """The library's Fock build of one density or a stack of them."""
    return meanfield._fock_builder(ham)(np.asarray(density))


def dense_fock_builder(h, w):
    """Reference Fock build: the restricted kernel read from a dense tensor
    ``w`` by fancy indexing, with the library's index sets and arithmetic."""
    m = h.shape[0]
    h = 0.5 * (h + h.conj().T)
    a, b, c, d = np.nonzero(w)
    rows = np.unique(np.concatenate([a * m + d, b * m + c, a * m + c, b * m + d]))
    index = np.union1d(rows, rows % m * m + rows // m)
    p, q = np.divmod(index[:, None], m)
    x, y = np.divmod(index, m)

    def v(i, j, k, l):
        return w[i, j, k, l] + w[l, k, j, i].conj()

    kernel = 0.25 * ((v(p, y, x, q) + v(y, p, q, x)) - (v(p, y, q, x) + v(y, p, x, q)))
    kernel = np.ascontiguousarray(kernel.T)

    def fock(density):
        flat = density.reshape(*density.shape[:-2], m * m)
        interaction = np.zeros(flat.shape, dtype=complex)
        interaction[..., index] = flat[..., index] @ kernel
        return h + interaction.reshape(density.shape)

    return fock


def dense_embedding(instance):
    """Reference: the embedding's two-body tensor, written entry by entry."""
    m = 2 * instance.num_sites
    w = np.zeros((m,) * 4)

    def add_density_pair(p, q, value):
        w[p, q, q, p] += value
        w[q, p, p, q] += value

    for site in range(instance.num_sites):
        add_density_pair(2 * site, 2 * site + 1, default_penalty(instance))
    for i, j, value in instance.nonzero_edges():
        for a in (0, 1):
            for b in (0, 1):
                add_density_pair(2 * i + a, 2 * j + b, value * (-1) ** (a + b))
    return w


def random_hamiltonian(rng, modes, real=False):
    h = rng.normal(size=(modes, modes))
    w = rng.normal(size=(modes,) * 4)
    if not real:
        h = h + 1j * rng.normal(size=(modes, modes))
        w = w + 1j * rng.normal(size=(modes,) * 4)
    h = (h + h.conj().T) / 2
    w = (w + w.conj().transpose(3, 2, 1, 0)) / 2
    return SecondQuantizedHamiltonian(h, w)


def random_state(rng, modes, particles):
    raw = rng.normal(size=(modes, particles)) + 1j * rng.normal(
        size=(modes, particles))
    q, _ = np.linalg.qr(raw)
    return SlaterState(q[:, :particles])


def determinant_vector(orbitals):
    """Explicit Fock-sector amplitudes of the determinant."""
    modes, particles = orbitals.shape
    sector = FockSector(modes, particles)
    vec = np.zeros(sector.dimension, dtype=complex)
    for chosen in combinations(range(modes), particles):
        # a+_c0 a+_c1 ... on the vacuum with c0 < c1 < ...: each creation
        # passes only empty modes, so the sign is +1
        state = sum(1 << (modes - 1 - m) for m in chosen)
        vec[sector.index[state]] += np.linalg.det(orbitals[list(chosen), :])
    return sector, vec


def fock_space_energy(ham, state):
    sector, vec = determinant_vector(state.orbitals)
    matrix = realize_fermion(fermionic_operator(ham), sector)
    assert abs(np.linalg.norm(vec) - 1) < 1e-10
    return float((vec.conj() @ matrix @ vec).real)


def _reference_pulay(focks, errors):
    """Pulay's extrapolation over one restart's history, from scratch.

    The newest Fock matrix, unchanged, when the history holds one entry or
    the bordered system is singular or gives non-finite coefficients.
    """
    k = len(focks)
    if k == 1:
        return focks[-1]
    gram = np.array([[np.vdot(a, b).real for b in errors] for a in errors])
    scale = gram.diagonal().max()
    ones = np.ones((k, 1))
    system = np.block([[gram / scale, -ones], [-ones.T, np.zeros((1, 1))]])
    rhs = np.zeros(k + 1)
    rhs[-1] = -1.0
    try:
        weights = np.linalg.solve(system, rhs)[:k]
    except np.linalg.LinAlgError:
        return focks[-1]
    if not np.isfinite(weights).all():
        return focks[-1]
    return sum(c * f for c, f in zip(weights, focks))


def _reference_scf(ham, num_particles, *, restarts, seed=0, max_iterations=500,
                   tolerance=1e-8, damping=0.5, diis_start=0.1, diis_history=8):
    """A damped start, then Pulay DIIS, with the full (m^2, m^2) kernel, one
    restart after another and one 2-D eigensolve per iteration.

    While ||FD - DF||_F exceeds ``diis_start`` the restart mixes ``damping``
    of the fresh density and empties its history; at or below it, it
    appends (F, FD - DF), diagonalizes the extrapolation over its last
    ``diis_history`` entries and takes the fresh density whole.  A zero
    commutator empties the history and takes the fresh density whole.
    Returns the result and every restart's (iterations, converged) pair.
    """
    m = ham.num_modes
    rng = np.random.default_rng(seed)
    w = ham.dense_two_body()
    kernel = 0.5 * (np.einsum("pjkq->pqkj", w) + np.einsum("ipql->pqli", w)
                    - np.einsum("pjql->pqlj", w)
                    - np.einsum("ipkq->pqki", w)).reshape(m * m, m * m)
    runs = []
    for attempt in range(restarts):
        if attempt == 0:
            u = eig_hermitian(ham.one_body).vectors[:, :num_particles]
        else:
            u = _haar_orbitals(rng, m, num_particles)
        density = u @ u.conj().T
        converged = False
        history = []
        focks, errors = [], []
        for iterations in range(1, max_iterations + 1):
            f = ham.one_body + (kernel @ density.reshape(-1)).reshape(m, m)
            f = 0.5 * (f + f.conj().T)
            error = f @ density - density @ f
            norm = np.linalg.norm(error)
            diis = norm <= diis_start
            if diis and norm > 0:
                focks = (focks + [f])[-diis_history:]
                errors = (errors + [error.reshape(-1)])[-diis_history:]
                f = _reference_pulay(focks, errors)
            else:
                focks, errors = [], []
            u = eig_hermitian(f).vectors[:, :num_particles]
            fresh = u @ u.conj().T
            step = float(np.linalg.norm(fresh - density))
            density = fresh if diis else density + damping * (fresh - density)
            history.append(step)
            if step <= tolerance:
                converged = True
                break
        state = SlaterState(u)
        runs.append((wick_energy(ham, state.density()), state, converged,
                     iterations, tuple(history)))
    # Ties within the solver's relative tolerance go to the lowest restart.
    lowest = min(run[0] for run in runs)
    cutoff = lowest + meanfield.SCF_ENERGY_TIE * max(1.0, abs(lowest))
    attempt = next(k for k, run in enumerate(runs) if run[0] <= cutoff)
    energy, state, converged, iterations, history = runs[attempt]
    result = SCFResult(state, energy, converged, iterations, attempt, restarts,
                       sum(run[2] for run in runs), history)
    return result, [(run[3], run[2]) for run in runs]


class TestHamiltonianValidation:
    def test_rejects_non_hermitian_one_body(self):
        with pytest.raises(ValidationError, match="not Hermitian"):
            SecondQuantizedHamiltonian(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_rejects_bad_two_body_symmetry(self):
        w = np.zeros((2, 2, 2, 2))
        w[0, 1, 1, 0] = 1.0   # mirror (0,1,1,0) stays itself; break a pair
        w[0, 1, 0, 1] = 0.5
        with pytest.raises(ValidationError):
            SecondQuantizedHamiltonian(np.zeros((2, 2)), w)

    def test_two_body_symmetry_is_checked_on_nonzero_entries(self):
        w = np.zeros((3, 3, 3, 3), dtype=complex)
        w[0, 1, 2, 0] = 2.0 + 1.0j
        w[0, 2, 1, 0] = 2.0 - 1.0j
        SecondQuantizedHamiltonian(np.zeros((3, 3)), w)
        # The tolerance scales with the largest entry, |2 + 1j| > 2.
        w[0, 2, 1, 0] += 2e-10
        SecondQuantizedHamiltonian(np.zeros((3, 3)), w)
        w[0, 2, 1, 0] += 1e-9
        with pytest.raises(ValidationError, match="violates"):
            SecondQuantizedHamiltonian(np.zeros((3, 3)), w)
        # One entry whose mirror (1, 1, 0, 2) is zero.
        w[0, 2, 1, 0] = 2.0 - 1.0j
        w[2, 0, 1, 1] = 1e-6
        with pytest.raises(ValidationError, match="violates"):
            SecondQuantizedHamiltonian(np.zeros((3, 3)), w)

    @pytest.mark.parametrize("seed", range(4))
    def test_mirror_check_matches_the_dense_transpose(self, seed):
        # The mirrors are looked up in sorted key order; the verdict must be
        # the dense tensor's, whichever entry breaks its pair.
        rng = np.random.default_rng(seed)
        m = 5
        w = rng.normal(size=(m,) * 4) + 1j * rng.normal(size=(m,) * 4)
        w = (w + w.transpose(3, 2, 1, 0).conj()) / 2
        w[tuple(rng.integers(0, m, size=(4, 30)))] = 0.0
        w = (w + w.transpose(3, 2, 1, 0).conj()) / 2
        SecondQuantizedHamiltonian(np.zeros((m, m)), w)
        for _ in range(10):
            bad = w.copy()
            bad[tuple(rng.integers(0, m, size=4))] += rng.choice([1e-12, 1e-6])
            gap = np.abs(bad - bad.transpose(3, 2, 1, 0).conj()).max()
            if gap > meanfield.HERMITICITY_ATOL * max(1.0, np.abs(bad).max()):
                with pytest.raises(ValidationError, match="violates"):
                    SecondQuantizedHamiltonian(np.zeros((m, m)), bad)
            else:
                SecondQuantizedHamiltonian(np.zeros((m, m)), bad)

    def test_all_zero_two_body_is_accepted(self):
        ham = SecondQuantizedHamiltonian(np.eye(2), np.zeros((2, 2, 2, 2)))
        assert ham == SecondQuantizedHamiltonian(np.eye(2))

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValidationError):
            SecondQuantizedHamiltonian(np.zeros((2, 3)))
        with pytest.raises(ValidationError):
            SecondQuantizedHamiltonian(np.zeros((2, 2)), np.zeros((3, 3, 3, 3)))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), complex(0, float("-inf"))])
    def test_rejects_non_finite_coefficients(self, bad):
        one = np.eye(2, dtype=complex)
        one[0, 0] = bad
        with pytest.raises(ValidationError, match="non-finite"):
            SecondQuantizedHamiltonian(one)
        two = np.zeros((2, 2, 2, 2), dtype=complex)
        two[0, 1, 1, 0] = bad
        with pytest.raises(ValidationError, match="non-finite"):
            SecondQuantizedHamiltonian(np.eye(2), two)

    def test_equality(self):
        a = SecondQuantizedHamiltonian(np.eye(2))
        b = SecondQuantizedHamiltonian(np.eye(2))
        assert a == b
        c = SecondQuantizedHamiltonian(2 * np.eye(2))
        assert a != c


class TestSlaterState:
    def test_orthonormality_enforced(self):
        with pytest.raises(ValidationError):
            SlaterState(np.array([[1.0, 1.0], [0.0, 0.0], [0.0, 0.0]]))

    def test_density_is_idempotent_projector(self):
        state = random_state(np.random.default_rng(3), 5, 2)
        d = state.density()
        assert np.abs(d @ d - d).max() < 1e-10
        assert np.trace(d).real == pytest.approx(2.0, abs=1e-10)
        assert state.num_modes == 5
        assert state.num_particles == 2

    def test_particle_count_bounds(self):
        with pytest.raises(ValidationError):
            SlaterState(np.zeros((3, 0)))

    def test_nan_orbitals_are_rejected(self):
        with pytest.raises(ValidationError, match="orthonormal"):
            SlaterState([[np.nan], [0.0], [0.0]])


class TestWickEnergy:
    @pytest.mark.parametrize("seed,modes,particles", [
        (0, 4, 1), (1, 4, 2), (2, 5, 2), (3, 5, 3), (4, 6, 3),
    ])
    def test_matches_fock_space_expectation(self, seed, modes, particles):
        rng = np.random.default_rng(seed)
        ham = random_hamiltonian(rng, modes)
        state = random_state(rng, modes, particles)
        wick = hartree_fock_energy(ham, state)
        exact = fock_space_energy(ham, state)
        assert wick == pytest.approx(exact, abs=1e-10)

    def test_one_body_closed_form(self):
        h = np.diag([-2.0, -1.0, 1.0, 3.0])
        ham = SecondQuantizedHamiltonian(h)
        u = np.zeros((4, 2))
        u[0, 0] = u[2, 1] = 1.0
        assert hartree_fock_energy(ham, SlaterState(u)) == pytest.approx(-1.0)

    def test_gauge_invariance(self):
        rng = np.random.default_rng(9)
        ham = random_hamiltonian(rng, 5)
        state = random_state(rng, 5, 3)
        mix = np.linalg.qr(rng.normal(size=(3, 3))
                           + 1j * rng.normal(size=(3, 3)))[0]
        rotated = SlaterState(state.orbitals @ mix)
        assert hartree_fock_energy(ham, rotated) == pytest.approx(
            hartree_fock_energy(ham, state), abs=1e-10)

    @pytest.mark.parametrize("case", ["dense-4-2", "dense-5-3", "dense-6-2",
                                      "dense-6-4", "ising-L2"])
    def test_matches_the_whole_tensor_reference(self, case):
        if case == "ising-L2":
            # Every classical determinant: the kernel's energy is exact.
            inst = random_instance(2, 0)
            ham = embed_ising(inst)
            for idx in range(2 ** inst.num_sites):
                spins = index_to_spins(idx, inst.num_sites)
                density = classical_state(inst, spins).density()
                assert hartree_fock_energy(ham, density) == wick_energy(ham, density)
            return
        _, modes, particles = case.split("-")
        rng = np.random.default_rng(int(modes) * 10 + int(particles))
        for _ in range(10):
            ham = random_hamiltonian(rng, int(modes))
            density = random_state(rng, int(modes), int(particles)).density()
            want = wick_energy(ham, density)
            assert abs(hartree_fock_energy(ham, density) - want) <= 1e-12 * max(1.0, abs(want))


class TestFockMatrix:
    # Most of the Ising embedding's kernel rows are zero, so it tests the
    # row restriction through the builder itself.
    @pytest.mark.parametrize("build,particles", [
        (lambda rng: random_hamiltonian(rng, 5), 2),
        (lambda rng: embed_ising(random_instance(2, 0)), 8),
    ], ids=["dense", "ising"])
    def test_matches_numeric_gradient(self, build, particles):
        rng = np.random.default_rng(5)
        ham = build(rng)
        m = ham.num_modes
        density = random_state(rng, m, particles).density()
        fock = fock_matrix(ham, density)
        eps = 1e-6
        for _ in range(8):
            direction = rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))
            direction = (direction + direction.conj().T) / 2
            plus = wick_energy(ham, density + eps * direction)
            minus = wick_energy(ham, density - eps * direction)
            numeric = (plus - minus) / (2 * eps)
            predicted = float(np.einsum("pq,qp->", fock, direction).real)
            assert numeric == pytest.approx(predicted, abs=1e-6)

    @pytest.mark.parametrize("build,particles", [
        (lambda rng: random_hamiltonian(rng, 5), 2),
        (lambda rng: embed_ising(random_instance(2, 0)), 8),
    ], ids=["dense", "ising"])
    def test_stack_matches_single_builds(self, build, particles):
        rng = np.random.default_rng(8)
        ham = build(rng)
        stack = np.stack([random_state(rng, ham.num_modes, particles).density()
                          for _ in range(4)])
        got = fock_matrix(ham, stack)
        assert got.shape == stack.shape
        for density, fock in zip(stack, got):
            want = fock_matrix(ham, density)
            assert np.abs(fock - want).max() <= 1e-12 * max(1.0, np.abs(want).max())

    def test_hermitian_output(self):
        rng = np.random.default_rng(6)
        ham = random_hamiltonian(rng, 4)
        fock = fock_matrix(ham, random_state(rng, 4, 2).density())
        assert np.abs(fock - fock.conj().T).max() < 1e-12

    def test_mirror_pairs_within_tolerance_give_a_hermitian_fock(self):
        # Every mirror pair differs by eps, inside the validation tolerance.
        # On the first mode's density the two-body part of F_12 cancels to 0
        # while F_21 reads 2 eps unless w is symmetrized, and |F|max is 1.
        eps = 0.99e-10
        w = np.zeros((3, 3, 3, 3))
        for index, value in (((1, 0, 0, 2), 1.0), ((2, 0, 0, 1), 1.0 + eps),
                             ((0, 1, 2, 0), -1.0), ((0, 2, 1, 0), -1.0 + eps),
                             ((1, 0, 2, 0), 1.0), ((0, 2, 0, 1), 1.0 - eps),
                             ((0, 1, 0, 2), -1.0), ((2, 0, 1, 0), -1.0 - eps)):
            w[index] = value
        ham = SecondQuantizedHamiltonian(np.diag([0.0, 1.0, 1.0]), w)
        fock = fock_matrix(ham, np.diag([1.0, 0.0, 0.0]))
        assert np.abs(fock - fock.conj().T).max() <= 1e-15
        result = scf_solve(ham, 1, restarts=3)
        assert result.converged and result.restart == 0

    def test_free_case_returns_one_body(self):
        h = np.diag([1.0, 2.0, 3.0])
        ham = SecondQuantizedHamiltonian(h)
        fock = fock_matrix(ham, np.zeros((3, 3)))
        assert np.abs(fock - h).max() < 1e-14


class TestSCF:
    def test_non_interacting_converges_immediately(self):
        ham = SecondQuantizedHamiltonian(np.diag([-2.0, -1.0, 0.5, 2.0]))
        result = scf_solve(ham, 2, restarts=1)
        assert result.converged
        assert result.iterations == 1
        assert result.energy == pytest.approx(-3.0, abs=1e-12)

    @pytest.mark.parametrize("seed", range(6))
    def test_variational_bound(self, seed):
        rng = np.random.default_rng(100 + seed)
        ham = random_hamiltonian(rng, 5)
        result = scf_solve(ham, 2, restarts=6, seed=seed)
        exact = exact_ground_energy(ham, 2)
        assert result.energy >= exact - 1e-9

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(42)
        ham = random_hamiltonian(rng, 5)
        first = scf_solve(ham, 2, restarts=5, seed=7)
        second = scf_solve(ham, 2, restarts=5, seed=7)
        assert first.energy == second.energy
        assert first.restart == second.restart
        assert first.history == second.history

    def test_more_restarts_never_hurt(self):
        rng = np.random.default_rng(13)
        ham = random_hamiltonian(rng, 6)
        one = scf_solve(ham, 3, restarts=1, seed=0)
        many = scf_solve(ham, 3, restarts=10, seed=0)
        assert many.energy <= one.energy + 1e-12

    def test_non_convergence_is_reported_not_raised(self):
        rng = np.random.default_rng(17)
        ham = random_hamiltonian(rng, 5)
        result = scf_solve(ham, 2, restarts=2, max_iterations=1)
        assert isinstance(result, SCFResult)
        assert not result.converged

    def test_restart_accounting(self):
        ham = SecondQuantizedHamiltonian(np.diag([-1.0, 0.0, 1.0]))
        result = scf_solve(ham, 1, restarts=4)
        assert result.restarts_tried == 4
        assert 1 <= result.restarts_converged <= 4
        assert result.energy == pytest.approx(-1.0, abs=1e-10)

    def test_argument_validation(self):
        ham = SecondQuantizedHamiltonian(np.eye(3))
        with pytest.raises(ValidationError):
            scf_solve(ham, 0)
        with pytest.raises(ValidationError):
            scf_solve(ham, 4)
        with pytest.raises(ValidationError):
            scf_solve(ham, 1, restarts=0)
        with pytest.raises(ValidationError):
            scf_solve(ham, 1, max_iterations=0)

    def test_exact_reference_guard(self):
        big = SecondQuantizedHamiltonian(np.eye(16))
        with pytest.raises(ResourceLimitError):
            exact_ground_energy(big, 8)


@st.composite
def sector_instances(draw):
    """A complex instance of up to 6 modes, a particle number, and its sector.

    ``pattern`` keeps every two-body entry, a random fifth of them, or only
    those with i == j or k == l (whose operators vanish).
    """
    modes = draw(st.integers(1, 6))
    particles = draw(st.integers(0, modes))
    pattern = draw(st.sampled_from(["dense", "sparse", "repeated"]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    h = rng.normal(size=(modes, modes)) + 1j * rng.normal(size=(modes, modes))
    w = rng.normal(size=(modes,) * 4) + 1j * rng.normal(size=(modes,) * 4)
    if pattern == "sparse":
        w = w * (rng.random(w.shape) < 0.2)
    elif pattern == "repeated":
        i, j, k, l = np.indices(w.shape)
        w = w * ((i == j) | (k == l))
    h = (h + h.conj().T) / 2
    w = (w + w.conj().transpose(3, 2, 1, 0)) / 2
    return SecondQuantizedHamiltonian(h, w), FockSector(modes, particles)


class TestSectorMatrix:
    """The tensor-built sector matrix against the normal-ordered operator."""

    @given(sector_instances())
    @settings(max_examples=60, deadline=None)
    def test_matches_realized_operator(self, instance):
        ham, sector = instance
        want = realize_fermion(fermionic_operator(ham), sector)
        assert np.abs(sector_matrix(ham, sector) - want).max(initial=0.0) <= 1e-12
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(meanfield, "MAX_CHUNK_STATES", 1)
            got = sector_matrix(ham, sector)
        assert np.abs(got - want).max(initial=0.0) <= 1e-12

    def test_exact_energy_reads_the_tensors_only(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("operator expanded")

        ham = random_hamiltonian(np.random.default_rng(5), 5)
        matrix = realize_fermion(fermionic_operator(ham), FockSector(5, 2))
        want = eig_hermitian(matrix).values[0]
        monkeypatch.setattr(meanfield, "realize_fermion", refuse)
        monkeypatch.setattr(FermionOperator, "normal_order", refuse)
        monkeypatch.setattr(FermionOperator, "__post_init__", refuse)
        assert exact_ground_energy(ham, 2) == pytest.approx(want, abs=1e-12)

    def test_rejects_a_sector_of_other_modes(self):
        ham = random_hamiltonian(np.random.default_rng(6), 3)
        with pytest.raises(ValidationError):
            sector_matrix(ham, FockSector(4, 2))

    @pytest.mark.parametrize("imaginary", [None, "one-body", "two-body"])
    def test_real_coefficients_give_a_real_matrix(self, imaginary):
        real = random_hamiltonian(np.random.default_rng(8), 6, real=True)
        h, w = real.one_body.copy(), real.dense_two_body()
        # one imaginary coefficient and its Hermitian mirror
        if imaginary == "one-body":
            h[0, 1], h[1, 0] = h[0, 1] + 1e-3j, h[1, 0] - 1e-3j
        elif imaginary == "two-body":
            w[0, 1, 2, 3], w[3, 2, 1, 0] = w[0, 1, 2, 3] + 1e-3j, w[3, 2, 1, 0] - 1e-3j
        ham = SecondQuantizedHamiltonian(h, w)
        sector = FockSector(6, 3)
        got = sector_matrix(ham, sector)
        assert got.dtype == (float if imaginary is None else complex)
        want = realize_fermion(fermionic_operator(ham), sector).astype(complex)
        assert np.abs(got - want).max() <= 1e-12
        energy = eig_hermitian(want).values[0]
        assert exact_ground_energy(ham, 3) == pytest.approx(energy, abs=1e-12)


class TestRowRestrictedSCF:
    """scf_solve keeps only the kernel's nonzero rows and columns and runs
    its restarts in lockstep; the reference keeps the full kernel and runs
    them one after another.  The restricted product sums in another order,
    so energies agree to a relative 1e-12 and residuals to 1e-12."""

    @pytest.mark.parametrize("case,converges", [
        ("dense-5", True), ("ising-L2", False), ("ising-L3", False),
        ("dense-5-staggered", False)])
    def test_matches_full_kernel_reference(self, case, converges):
        restarts, max_iterations = 2, 500
        if case == "dense-5":
            ham, particles = random_hamiltonian(np.random.default_rng(31), 5), 2
        elif case == "dense-5-staggered":
            ham, particles = random_hamiltonian(np.random.default_rng(31), 5), 2
            restarts, max_iterations = 6, 40
        else:
            # Neither restart of these two glasses converges.
            inst = random_instance(int(case[-1]), {"ising-L2": 1, "ising-L3": 0}[case])
            ham, particles = embed_ising(inst), inst.num_sites
        result = scf_solve(ham, particles, restarts=restarts,
                           max_iterations=max_iterations)
        reference, runs = _reference_scf(ham, particles, restarts=restarts,
                                         max_iterations=max_iterations)
        if case == "dense-5-staggered":
            # Restarts leave the stack at several iterations, others run out.
            finished = {iterations for iterations, done in runs if done}
            assert len(finished) >= 3
            assert any(not done for _, done in runs)
        assert result.energy == pytest.approx(reference.energy, rel=1e-12)
        assert result.restart == reference.restart
        assert result.iterations == reference.iterations
        assert result.converged == reference.converged == converges
        assert result.restarts_converged == reference.restarts_converged
        assert result.history == pytest.approx(reference.history, rel=0, abs=1e-12)
        assert len(result.history) == result.iterations
        assert (result.history[-1] <= 1e-8) == result.converged

    def test_ties_go_to_the_lowest_restart(self, monkeypatch):
        # Restart 2 is lowest; restart 1 lies within the relative tie
        # tolerance of it, restart 0 does not.
        energies = np.array([-3.0 + 5e-12, -3.0 - 1e-12, -3.0 - 2e-12])
        monkeypatch.setattr(meanfield, "_energies", lambda *args: energies)
        ham = SecondQuantizedHamiltonian(np.diag([-1.0, 0.0, 1.0]))
        result = scf_solve(ham, 1, restarts=3)
        assert result.restart == 1
        assert result.energy == -3.0 - 1e-12

    def test_overflowing_fock_build_is_rejected(self):
        # Finite coefficients whose Fock matrix overflows to inf and NaN.
        w = np.zeros((3, 3, 3, 3))
        for p, q in ((0, 1), (1, 2), (0, 2)):
            w[p, q, q, p] = w[q, p, p, q] = 1e308
        ham = SecondQuantizedHamiltonian(np.diag([0.0, 1.0, 2.0]), w)
        with np.errstate(all="ignore"), \
                pytest.raises(ValidationError, match="non-finite"):
            scf_solve(ham, 2, restarts=3)


class TestDIIS:
    """The damped start hands over to Pulay DIIS; degenerate DIIS histories
    fall back to the plain Fock matrix instead of raising."""

    @staticmethod
    def _history(errors, slots=4):
        """Gram matrix and used-slot mask of a history written at slots
        0, 1, ... in order, padded to ``slots``."""
        gram = np.zeros((slots, slots))
        k = len(errors)
        gram[:k, :k] = [[np.vdot(a, b).real for b in errors] for a in errors]
        return gram, np.arange(slots) < k

    def test_singular_history_falls_back_to_the_newest_entry(self):
        rng = np.random.default_rng(5)
        regular = [rng.normal(size=9) + 1j * rng.normal(size=9) for _ in range(3)]
        twin = rng.normal(size=9) + 1j * rng.normal(size=9)
        duplicate = [regular[0], twin, twin]
        histories = [self._history(e) for e in (regular, duplicate, regular)]
        gram = np.stack([g for g, _ in histories])
        used = np.stack([u for _, u in histories])
        # The bordered system of the duplicate history is exactly singular.
        g = gram[1, :3, :3] / gram[1, :3, :3].diagonal().max()
        bordered = np.block([[g, -np.ones((3, 1))], [-np.ones((1, 3)), np.zeros((1, 1))]])
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.solve(bordered, np.eye(4)[3])
        weights = _pulay_weights(gram, used, 2)
        assert np.isfinite(weights).all()
        np.testing.assert_array_equal(weights[1], np.eye(4)[2])
        # The regular histories keep their own solves: coefficients summing
        # to one, none on the unused slot, whose error is the least.
        np.testing.assert_array_equal(weights[0], weights[2])
        alone = _pulay_weights(gram[:1], used[:1], 2)
        np.testing.assert_array_equal(weights[0], alone[0])
        assert weights[0].sum() == pytest.approx(1.0, abs=1e-12)
        assert weights[0, 3] == 0.0
        residual = np.linalg.norm(weights[0, :3] @ np.array(regular))
        assert residual <= min(np.linalg.norm(e) for e in regular)

    def test_zero_commutator_restart_neither_raises_nor_returns_nan(self):
        # h = 0: restart 0 starts from a diagonal density whose Fock matrix
        # is diagonal too, so its commutator is exactly zero throughout.
        inst = random_instance(2, 0)
        ham = embed_ising(inst)
        u = eig_hermitian(ham.one_body).vectors[:, :inst.num_sites]
        fock = fock_matrix(ham, u @ u.conj().T)
        assert np.count_nonzero(fock - np.diag(np.diag(fock))) == 0
        result = scf_solve(ham, inst.num_sites, restarts=1)
        assert np.isfinite(result.energy)
        assert np.isfinite(result.history).all()

    @pytest.mark.parametrize("max_iterations", [40, 41])
    def test_two_cycle_leaves_the_stack_with_the_full_run_result(
            self, monkeypatch, max_iterations):
        # Restart 0 of an h = 0 embedding flips between two doubly occupied
        # configurations with a zero commutator: it leaves after its third
        # iteration, and reports the orbitals and residuals of the full run,
        # whichever configuration the last iteration lands on.
        inst = random_instance(2, 0)
        ham = embed_ising(inst)
        stacks = []

        def counted(matrix):
            stacks.append(matrix.shape[0])
            return eig_hermitian(matrix)

        monkeypatch.setattr(meanfield, "eig_hermitian", counted)
        scf_solve(ham, inst.num_sites, restarts=2, max_iterations=max_iterations)
        assert stacks[1:5] == [2, 2, 1, 1]
        alone = scf_solve(ham, inst.num_sites, restarts=1,
                          max_iterations=max_iterations)
        reference, runs = _reference_scf(ham, inst.num_sites, restarts=1,
                                         max_iterations=max_iterations)
        assert runs == [(max_iterations, False)]
        assert not alone.converged and alone.restarts_converged == 0
        assert alone.iterations == len(alone.history) == max_iterations
        np.testing.assert_array_equal(alone.state.orbitals, reference.state.orbitals)
        assert alone.history == reference.history
        assert alone.energy == reference.energy

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("modes,particles", [(6, 3), (7, 3)])
    def test_diis_beats_the_damped_loop(self, monkeypatch, seed, modes, particles):
        ham = random_hamiltonian(np.random.default_rng(seed), modes, real=True)
        diis = scf_solve(ham, particles, restarts=2, seed=seed)
        # A commutator norm is never negative: every iteration stays damped.
        monkeypatch.setattr(meanfield, "SCF_DIIS_START", -1.0)
        damped = scf_solve(ham, particles, restarts=2, seed=seed)
        assert diis.converged and damped.converged
        assert diis.restarts_converged == damped.restarts_converged == 2
        assert diis.iterations < damped.iterations
        assert diis.energy == pytest.approx(damped.energy, rel=0, abs=1e-9)


def dense_and_entry_built(kind, size, seed):
    """``h``, ``w`` and one Hamiltonian built from them twice: from the
    dense tensor and from its nonzero entries in shuffled order."""
    rng = np.random.default_rng(seed)
    if kind == "ising":
        inst = random_instance(size, seed)
        h, w = np.zeros((2 * inst.num_sites,) * 2), dense_embedding(inst)
        return h, w, SecondQuantizedHamiltonian(h, w), embed_ising(inst)
    h = rng.normal(size=(size, size))
    # Sparse, so that kernel lookups also miss.
    w = rng.normal(size=(size,) * 4) * (rng.random((size,) * 4) < 0.3)
    if kind == "complex":
        h = h + 1j * rng.normal(size=h.shape)
        w = w + 1j * w * rng.normal(size=w.shape)
    h = (h + h.conj().T) / 2
    w = (w + w.conj().transpose(3, 2, 1, 0)) / 2
    modes = rng.permutation(np.argwhere(w))
    entries = SecondQuantizedHamiltonian.from_entries(h, modes, w[tuple(modes.T)])
    return h, w, SecondQuantizedHamiltonian(h, w), entries


class TestTwoBodyEntries:
    """Entry-built Hamiltonians against dense-built ones and dense references."""

    @pytest.mark.parametrize("case", [
        ("real", 4, 0), ("real", 6, 1), ("complex", 5, 2),
        ("ising", 1, 0), ("ising", 2, 0), ("ising", 3, 0),
    ], ids=str)
    def test_dense_and_entry_built_agree(self, case):
        h, w, dense, entries = dense_and_entry_built(*case)
        assert dense == entries
        np.testing.assert_array_equal(entries.dense_two_body(), w)
        m = dense.num_modes
        rng = np.random.default_rng(7)
        raw = rng.normal(size=(3, m, m)) + 1j * rng.normal(size=(3, m, m))
        densities = raw + raw.conj().swapaxes(-2, -1)
        want = dense_fock_builder(np.asarray(h, dtype=complex), np.asarray(w, dtype=complex))
        want = want(densities)
        for ham in (dense, entries):
            assert meanfield._fock_builder(ham)(densities).tobytes() == want.tobytes()
        state = random_state(rng, m, m // 2)
        energy = hartree_fock_energy(entries, state)
        assert energy == hartree_fock_energy(dense, state)
        if m <= 16:
            assert energy == pytest.approx(wick_energy(dense, state.density()),
                                           rel=1e-10, abs=1e-10)
        if case[0] != "complex":
            assert second_quantized_to_text(entries) == second_quantized_to_text(dense)
        if comb(m, m // 2) <= 100:
            sector = FockSector(m, m // 2)
            np.testing.assert_array_equal(sector_matrix(entries, sector),
                                          sector_matrix(dense, sector))

    def test_entries_sum_in_the_order_given_and_are_not_symmetrized(self):
        zero = np.zeros((3, 3))
        quad = [[0, 1, 1, 0]] * 3
        ham = SecondQuantizedHamiltonian.from_entries(zero, quad, [0.1, 0.2, 0.3])
        assert ham.two_body_values.tolist() == [(0.1 + 0.2) + 0.3]
        ham = SecondQuantizedHamiltonian.from_entries(zero, quad, [0.3, 0.2, 0.1])
        assert ham.two_body_values.tolist() == [(0.3 + 0.2) + 0.1]
        # A sum of zero stores no entry.
        ham = SecondQuantizedHamiltonian.from_entries(zero, quad[:2], [1.0, -1.0])
        assert ham == SecondQuantizedHamiltonian(zero) and ham.two_body_index.size == 0
        # Mirror pairs within the tolerance are kept as given.
        ham = SecondQuantizedHamiltonian.from_entries(
            zero, [[0, 1, 2, 0], [0, 2, 1, 0]], [1.0, 1.0 + 1e-11])
        assert ham.two_body_at(0, 2, 1, 0) == 1.0 + 1e-11
        assert ham.two_body_at(0, 1, 2, 0) == 1.0
        assert ham.two_body_at(1, 1, 1, 1) == 0.0

    def test_bad_entries_are_rejected(self):
        zero = np.zeros((3, 3))
        build = SecondQuantizedHamiltonian.from_entries
        with pytest.raises(ValidationError, match="violates"):
            build(zero, [[0, 1, 2, 0]], [1.0])
        with pytest.raises(ValidationError, match="non-finite"):
            build(zero, [[0, 1, 1, 0]], [np.inf])
        with pytest.raises(ValidationError, match="non-finite"):
            build(zero, [[0, 1, 1, 0]] * 2, [np.inf, -np.inf])
        for quad in ([0, 1, 1, 3], [0, -1, -1, 0]):
            with pytest.raises(ValidationError, match="outside"):
                build(zero, [quad], [1.0])
        with pytest.raises(ValidationError, match="quadruples"):
            build(zero, [[0, 1, 1]], [1.0])
        with pytest.raises(ValidationError, match="quadruples"):
            build(zero, [[0, 1, 1, 0]], [1.0, 2.0])
        with pytest.raises(ParseError, match="violates"):
            second_quantized_from_text("modes 3\n2 0 1 2 0 1.0\n")
        with pytest.raises(ParseError, match="violates"):
            second_quantized_from_text("modes 3\n2 0 1 2 0 1.0\n2 0 2 1 0 1_0\n")


class TestSecondQuantizedText:
    @staticmethod
    def write_entry_by_entry(ham):
        """Reference writer: every index in row-major order, zeros skipped."""
        m = ham.num_modes
        lines = [f"modes {m}"]
        for kind, tensor in (("1", ham.one_body), ("2", ham.dense_two_body())):
            for index in np.ndindex(tensor.shape):
                value = float(tensor[index].real)
                if value != 0.0:
                    lines.append(" ".join([kind, *map(str, index), repr(value)]))
        return "\n".join(lines) + "\n"

    def test_round_trip(self):
        rng = np.random.default_rng(21)
        for ham in (random_hamiltonian(rng, 4, real=True),
                    embed_ising(random_instance(2, 0)),
                    embed_ising(random_instance(3, 0))):
            text = second_quantized_to_text(ham)
            # The reference visits all m^4 entries in Python: 1.7M at L=3.
            if ham.num_modes <= 16:
                assert text == self.write_entry_by_entry(ham)
            assert second_quantized_from_text(text) == ham

    def test_duplicate_records_accumulate(self):
        text = "modes 2\n1 0 0 1.5\n1 0 0 0.5\n"
        ham = second_quantized_from_text(text)
        assert ham.one_body[0, 0] == pytest.approx(2.0)

    def test_complex_instances_not_serializable(self):
        rng = np.random.default_rng(22)
        with pytest.raises(ValidationError):
            second_quantized_to_text(random_hamiltonian(rng, 3))

    def test_parse_errors(self):
        with pytest.raises(ParseError, match="modes"):
            second_quantized_from_text("1 0 0 1.0\n")
        with pytest.raises(ParseError, match="line 2"):
            second_quantized_from_text("modes 2\n1 0 1.0\n")
        with pytest.raises(ParseError, match="line 2"):
            second_quantized_from_text("modes 2\n1 0 5 1.0\n")
        with pytest.raises(ParseError, match="line 2"):
            second_quantized_from_text("modes 2\n2 0 0 0 0 x\n")

    @staticmethod
    def read_record_by_record(text):
        lines = [line.split("#")[0].split() for line in text.splitlines()]
        lines = [tokens for tokens in lines if tokens]
        m = int(lines[0][1])
        one, two = np.zeros((m, m)), np.zeros((m,) * 4)
        for kind, *indices, value in lines[1:]:
            target = one if kind == "1" else two
            target[tuple(int(i) for i in indices)] += float(value)
        return one, two

    def test_bulk_reading_matches_record_by_record(self):
        # Interleaved kinds, repeated records and values with every digit
        # count: the bulk reading must give the same bits.
        rng = np.random.default_rng(23)
        records = []
        for (i, j), v in zip(rng.integers(0, 3, (40, 2)),
                             rng.normal(size=40) * 10.0 ** rng.integers(-8, 8, 40)):
            records += [f"1 {i} {j} {float(v)!r}", f"1 {j} {i} {float(v)!r}"]
        for (i, j, k, l), v in zip(rng.integers(0, 3, (200, 4)), rng.normal(size=200) / 3):
            records += [f"2 {i} {j} {k} {l} {float(v)!r}", f"2 {l} {k} {j} {i} {float(v)!r}"]
        rng.shuffle(records)
        text = "modes 3\n" + "\n".join(records) + "\n"
        one, two = self.read_record_by_record(text)
        ham = SecondQuantizedHamiltonian(one, two)
        assert second_quantized_from_text(text) == ham
        # Spellings the bulk reader leaves to the record loop read the same.
        for spelled in (text.replace(" ", "\t"), text.replace("\n2 0 ", "\n2 0_0 ", 1)):
            assert second_quantized_from_text(spelled) == ham

    def test_errors_after_plain_records_name_their_line(self):
        text = "modes 2\n1 0 0 1.0\n2 0 1 1 0 0.5\n2 0 0 0 9 1.0\n"
        with pytest.raises(ParseError, match="line 4: mode index outside"):
            second_quantized_from_text(text)
        with pytest.raises(ParseError, match="line 3: bad record"):
            second_quantized_from_text("modes 2\n1 0 0 1.0\n1 0 1.5 1.0\n")

    def test_comments_ignored(self):
        text = "# instance\nmodes 2\n1 0 0 1.0  # diagonal\n1 1 1 1.0\n"
        ham = second_quantized_from_text(text)
        assert ham.one_body[1, 1] == pytest.approx(1.0)


class TestGrid:
    def test_index_layout(self):
        assert grid_index(0, 0, 0, 2) == 0
        assert grid_index(1, 0, 0, 2) == 1
        assert grid_index(0, 1, 0, 2) == 2
        assert grid_index(0, 0, 1, 2) == 4
        assert grid_index(2, 1, 1, 3) == 14

    @pytest.mark.parametrize("length,count", [(1, 1), (2, 12), (3, 33)])
    def test_edge_counts(self, length, count):
        edges = grid_edges(length)
        assert len(edges) == count
        assert len(set(edges)) == count
        for i, j in edges:
            assert i < j

    def test_edges_are_nearest_neighbor(self):
        length = 3
        for i, j in grid_edges(length):
            xi, yi, zi = i % length, (i // length) % length, i // (length * length)
            xj, yj, zj = j % length, (j // length) % length, j // (length * length)
            assert abs(xi - xj) + abs(yi - yj) + abs(zi - zj) == 1


class TestIsingInstance:
    def test_missing_bonds_default_to_zero(self):
        inst = IsingInstance(2, {(0, 1): 1})
        assert inst.couplings[(0, 1)] == 1
        assert sum(abs(v) for v in inst.couplings.values()) == 1
        assert inst.num_sites == 8

    def test_validation(self):
        with pytest.raises(ValidationError):
            IsingInstance(2, {(0, 3): 1})          # diagonal, not a bond
        with pytest.raises(ValidationError):
            IsingInstance(2, {(0, 1): 2})
        with pytest.raises(ValidationError):
            IsingInstance(0, {})
        with pytest.raises(ResourceLimitError):
            IsingInstance(4, {})

    def test_random_instance_deterministic(self):
        a = random_instance(2, 0)
        b = random_instance(2, 0)
        assert a == b
        assert random_instance(2, 1) != a
        assert all(v in (-1, 0, 1) for v in a.couplings.values())

    def test_text_round_trip(self):
        inst = random_instance(2, 3)
        assert ising_from_text(ising_to_text(inst)) == inst

    def test_text_parse_errors(self):
        with pytest.raises(ParseError, match="ising"):
            ising_from_text("grid 2\n")
        with pytest.raises(ParseError, match="line 2"):
            ising_from_text("ising 2\n0 1\n")
        with pytest.raises(ParseError):
            ising_from_text("ising 2\n0 1 1\n1 0 1\n")
        with pytest.raises(ParseError):
            ising_from_text("ising 2\n0 3 1\n")


class TestOracle:
    def test_single_antiferromagnetic_bond(self):
        inst = IsingInstance(1, {(0, 1): 1})
        oracle = ising_oracle(inst)
        assert oracle.energy == -1.0
        # Two-fold tie: the lower basis index flips the later site.
        assert oracle.index == 1
        assert oracle.spins == (1, -1)

    def test_single_ferromagnetic_bond_prefers_all_up(self):
        inst = IsingInstance(1, {(0, 1): -1})
        oracle = ising_oracle(inst)
        assert oracle.energy == -1.0
        assert oracle.index == 0
        assert oracle.spins == (1, 1)

    def test_oracle_matches_direct_recount(self):
        inst = random_instance(2, 5)
        oracle = ising_oracle(inst)
        best = None
        for idx in range(2 ** inst.num_sites):
            spins = index_to_spins(idx, inst.num_sites)
            energy = classical_energy(inst, spins)
            if best is None or energy < best[0]:
                best = (energy, idx)
        assert oracle.energy == best[0]
        assert oracle.index == best[1]

    @pytest.mark.parametrize("length,seed", [
        (1, 0), (1, 1), (2, 0), (2, 3), (2, 5), (3, 0), (3, 4), (3, 11),
    ])
    def test_doubling_matches_the_sign_table_recount(self, length, seed):
        inst = random_instance(length, seed)
        n = inst.num_sites
        # Reference: every configuration's energy from per-site sign tables.
        indices = np.arange(2 ** n)
        sign = [1 - 2 * ((indices >> (n - 1 - s)) & 1) for s in range(n)]
        energies = np.zeros(2 ** n)
        for i, j, value in inst.nonzero_edges():
            energies += value * (sign[i] * sign[j])
        if length < 3:
            assert energies.tolist() == [classical_energy(inst, index_to_spins(k, n))
                                         for k in range(2 ** n)]
        oracle = ising_oracle(inst)
        # Flipping every spin keeps the energy: each minimum is a tie, which
        # goes to the lowest basis index.
        ground = np.flatnonzero(energies == energies.min())
        assert ground.size >= 2
        assert type(oracle.energy) is float and oracle.energy == energies.min()
        assert oracle.index == ground[0]
        assert oracle.spins == index_to_spins(int(ground[0]), n)

    def test_classical_energy_validation(self):
        inst = IsingInstance(1, {(0, 1): 1})
        with pytest.raises(ValidationError):
            classical_energy(inst, (1,))
        with pytest.raises(ValidationError):
            classical_energy(inst, (1, 0))


class TestEmbedding:
    def test_every_configuration_is_exact(self):
        inst = IsingInstance(1, {(0, 1): 1})
        emb = embed_ising(inst)
        for idx in range(4):
            spins = index_to_spins(idx, 2)
            wick = hartree_fock_energy(emb, classical_state(inst, spins))
            assert wick == pytest.approx(classical_energy(inst, spins), abs=1e-12)

    def test_penalty_floor(self):
        inst = random_instance(2, 0)
        floor = 4.0 * len(inst.nonzero_edges())
        with pytest.raises(ValidationError):
            embed_ising(inst, penalty=floor - 1)
        embed_ising(inst, penalty=floor)
        assert default_penalty(inst) >= floor

    def test_double_occupancy_costs_the_penalty(self):
        inst = IsingInstance(1, {(0, 1): 1})
        emb = embed_ising(inst, penalty=10.0)
        orbitals = np.zeros((4, 2))
        orbitals[0, 0] = orbitals[1, 1] = 1.0   # both particles on site 0
        energy = hartree_fock_energy(emb, SlaterState(orbitals))
        assert energy == pytest.approx(10.0, abs=1e-12)

    def test_decode_round_trip(self):
        inst = IsingInstance(1, {(0, 1): -1})
        for idx in range(4):
            spins = index_to_spins(idx, 2)
            assert decode_spins(inst, classical_state(inst, spins)) == (spins, 0)

    def test_decoding_ignores_rounding_noise_on_undecided_sites(self):
        # This solution holds doubly occupied and empty sites, whose two mode
        # densities agree up to rounding.
        inst = random_instance(3, 0)
        result = scf_solve(embed_ising(inst), inst.num_sites, restarts=2)
        spins, undecided = decode_spins(inst, result.state)
        density = np.diag(result.state.density()).real
        gaps = np.abs(density[0::2] - density[1::2])
        assert undecided == np.count_nonzero(gaps <= meanfield.DECODE_MARGIN) > 0
        assert all(s == 1 for s, gap in zip(spins, gaps) if gap <= meanfield.DECODE_MARGIN)
        rng = np.random.default_rng(1)
        u = result.state.orbitals
        for _ in range(3):
            noise = rng.normal(size=u.shape) + 1j * rng.normal(size=u.shape)
            q, _ = np.linalg.qr(u + 1e-12 * noise)
            assert decode_spins(inst, SlaterState(q)) == (spins, undecided)

    def test_oracle_embedding_and_builder_stay_small(self):
        # 2^18 configurations at L=3: per-site int64 sign tables would take
        # 38 MB, and the dense 36^4 complex tensor 27 MB.
        inst = random_instance(3, 0)
        tracemalloc.start()
        try:
            ising_oracle(inst)
            meanfield._fock_builder(embed_ising(inst))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 12 * 2 ** 20

    def test_scf_reaches_the_oracle_after_decoding(self):
        inst = IsingInstance(1, {(0, 1): 1})
        emb = embed_ising(inst)
        oracle = ising_oracle(inst)
        result = scf_solve(emb, inst.num_sites, restarts=4, seed=0)
        decoded, _ = decode_spins(inst, result.state)
        assert classical_energy(inst, decoded) == oracle.energy
        assert result.energy >= oracle.energy - 1e-9
