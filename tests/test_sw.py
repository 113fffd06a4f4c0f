"""Block decoupling engine: closed forms, error scaling, and guard rails."""

import numpy as np
import pytest
from scipy.linalg import expm

from hamlower import operators, sw
from hamlower.errors import DegeneracyError, RegimeError, ValidationError
from hamlower.hubbard import (
    HubbardModel,
    half_filling_sector,
    hopping_operator,
    interaction_operator,
)
from hamlower.operators import realize_fermion, singly_occupied_projector
from hamlower.sw import effective_hamiltonian, split_blocks


def haar_unitary(dim, rng):
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q @ np.diag(d / np.abs(d))


def gapped_instance(rng, dim=8, low_dim=3, gap=1.0):
    """Random 3-spin-size Hermitian pair, low block exactly degenerate at 0."""
    u = haar_unitary(dim, rng)
    high = gap + rng.uniform(0.0, 1.0, size=dim - low_dim)
    e = np.concatenate([np.zeros(low_dim), np.sort(high)])
    h0 = (u * e) @ u.conj().T
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    v = (z + z.conj().T) / 2
    v /= np.linalg.norm(v, 2)
    return h0, v


# The generator oracle.  The library builds h_eff alone; these tests build
# the anti-Hermitian generator S from the same split and check h_eff against
# it: exp(S) (H0 + eps V) exp(-S) is block diagonal one order beyond
# ``order``, and its low block is h_eff to that order.


def x_blocks(split, v, order=2):
    """X1 = -V01 A and, at order 2, X2 = (V01 A V11 - (H0 + V00) V01 A) A.

    ``A`` inverts the split's centered high block and ``H0`` is its centered
    low block; X2 is zero at order 1.  ``A`` is Hermitian, so a right
    product with it is the adjoint of a solve.  Every V block is a slice of
    ``split.rotated(v)``.
    """
    low, high, rotated = split.low, split.high, split.rotated(v)
    v00, v01, v11 = (rotated[np.ix_(a, b)]
                     for a, b in ((low, low), (low, high), (high, high)))
    y = sw._centered_solve(split, v01.conj().T).conj().T
    if order == 1:
        return -y, np.zeros_like(y)
    h0c = split.h0_low - split.e_bar * np.eye(split.low_dim)
    return -y, sw._centered_solve(split, (y @ v11 - (h0c + v00) @ y).conj().T).conj().T


def assemble_generator(split, x1, x2, epsilon):
    """Full anti-Hermitian generator eps*X1 + eps**2*X2 in the original basis."""
    low, high = split.low, split.high
    x = epsilon * x1 + epsilon ** 2 * x2
    s_block = np.zeros((low.size + high.size,) * 2, dtype=complex)
    s_block[np.ix_(low, high)] = x
    s_block[np.ix_(high, low)] = -x.conj().T
    if split.basis is None:
        return s_block
    return split.basis @ s_block @ split.basis.conj().T


def generator(result, v):
    """The oracle generator at ``result``'s order and epsilon."""
    x1, x2 = x_blocks(result.split, v, result.order)
    return assemble_generator(result.split, x1, x2, result.epsilon)


def rotated_hamiltonian(result, h0, v):
    """exp(S) (H0 + eps V) exp(-S) with the oracle generator S."""
    rot = expm(generator(result, v))
    return rot @ (h0 + result.epsilon * v) @ rot.conj().T


def low_error(h0, v, eps, low_dim, threshold):
    result = effective_hamiltonian(h0, v, eps, threshold=threshold)
    exact = np.linalg.eigvalsh(h0 + eps * v)[:low_dim]
    model = np.linalg.eigvalsh(result.h_eff)
    return float(np.abs(model - exact).max()), result


class TestClosedForm:
    def test_two_level(self):
        delta, eps = 1.0, 0.01
        h0 = np.diag([0.0, delta])
        v = np.array([[0.0, 1.0], [1.0, 0.0]])
        result = effective_hamiltonian(h0, v, eps, threshold=delta / 2)
        assert result.h_eff.shape == (1, 1)
        assert abs(result.h_eff[0, 0] + eps ** 2 / delta) < 1e-14
        exact = (delta - np.sqrt(delta ** 2 + 4 * eps ** 2)) / 2
        assert abs(result.h_eff[0, 0] - exact) < 2 * eps ** 4 / delta ** 3
        assert abs(result.h_eff[0, 0] - exact) < result.error_budget

    def test_two_level_generator_block(self):
        delta = 2.0
        h0 = np.diag([0.0, delta])
        v = np.array([[0.0, 1.0], [1.0, 0.0]])
        split = split_blocks(h0, threshold=1.0)
        x1, x2 = x_blocks(split, v)
        assert x1.shape == (1, 1)
        assert abs(x1[0, 0] + 1.0 / delta) < 1e-14

    def test_zero_perturbation(self):
        h0 = np.diag([0.0, 0.0, 3.0, 4.0])
        v = np.zeros((4, 4))
        result = effective_hamiltonian(h0, v, 0.1, threshold=1.0)
        assert np.allclose(result.h_eff, np.zeros((2, 2)))
        assert result.error_budget == 0.0
        x1, x2 = x_blocks(result.split, v)
        assert np.allclose(x1, 0.0) and np.allclose(x2, 0.0)

    def test_block_diagonal_v_is_exact_at_second_order(self):
        h0 = np.diag([0.0, 0.0, 3.0, 4.0])
        v = np.diag([0.5, -0.5, 1.0, 2.0])
        result = effective_hamiltonian(h0, v, 0.2, threshold=1.0)
        assert np.allclose(result.h_eff, 0.2 * np.diag([0.5, -0.5]), atol=1e-14)

    def test_centered_x2_when_low_block_at_zero(self):
        # with the low block exactly at its own mean the H0 term of X2 drops
        h0 = np.diag([0.0, 0.0, 3.0, 4.0])
        rng = np.random.default_rng(0)
        z = rng.standard_normal((4, 4))
        v = (z + z.T) / 2
        split = split_blocks(h0, threshold=1.0)
        _, x2 = x_blocks(split, v)
        a = np.diag([1.0 / 3.0, 1.0 / 4.0])
        low, high, rotated = split.low, split.high, split.rotated(v)
        v01 = rotated[np.ix_(low, high)]
        v00 = rotated[np.ix_(low, low)]
        v11 = rotated[np.ix_(high, high)]
        want = v01 @ a @ v11 @ a - v00 @ v01 @ a @ a
        assert np.allclose(x2, want, atol=1e-12)

    def test_order_one(self):
        h0 = np.diag([0.0, 0.0, 3.0, 4.0])
        rng = np.random.default_rng(1)
        z = rng.standard_normal((4, 4))
        v = (z + z.T) / 2
        result = effective_hamiltonian(h0, v, 0.1, order=1, threshold=1.0)
        v00 = v[:2, :2]
        assert np.allclose(result.h_eff, 0.1 * v00, atol=1e-14)
        vn = np.linalg.norm(v, 2)
        assert result.error_budget == pytest.approx(0.1 ** 2 * vn ** 2 / 3.0)

    def test_error_budget_formula(self):
        h0 = np.diag([0.0, 2.0])
        v = np.array([[0.0, 3.0], [3.0, 0.0]])
        result = effective_hamiltonian(h0, v, 0.1, threshold=1.0)
        assert result.v_norm == pytest.approx(3.0)
        assert result.error_budget == pytest.approx(0.1 ** 3 * 27.0 / 4.0)


class TestScaling:
    def test_eigenvalue_error_is_third_order(self):
        eps = 0.05
        for seed in range(8):
            rng = np.random.default_rng(seed)
            h0, v = gapped_instance(rng)
            err1, _ = low_error(h0, v, eps, 3, threshold=0.5)
            err2, _ = low_error(h0, v, eps / 2, 3, threshold=0.5)
            assert 6.0 <= err1 / err2 <= 10.0

    def test_exactness_window(self):
        # gap 1, |v| = 1: deviation within 5x the eps^3 certificate at each
        # of the three standard test scales
        for seed in range(8):
            rng = np.random.default_rng(100 + seed)
            h0, v = gapped_instance(rng)
            for eps in (0.1, 0.05, 0.025):
                err, result = low_error(h0, v, eps, 3, threshold=0.5)
                assert err <= 5.0 * eps ** 3

    def test_generator_decouples_to_third_order(self):
        # On the threshold, coordinate and rotated splits, each with an
        # exactly degenerate low block: the rotated Hamiltonian's cross
        # block and its low block's distance from h_eff are both third order.
        rng = np.random.default_rng(42)
        h0, v = gapped_instance(rng)
        ch0, cv = coordinate_instance(rng, spread=0.0)
        cols = np.eye(10)[:, [7, 2, 5, 0]]
        cases = [(h0, v, {"threshold": 0.5}, False),
                 (ch0, cv, {"low_columns": cols}, True),
                 (ch0, cv, {"low_columns": 1j * cols}, False)]
        for h0, v, chosen, sliced in cases:
            def residuals(eps):
                result = effective_hamiltonian(h0, v, eps, **chosen)
                split = result.split
                h_rot = split.rotated(rotated_hamiltonian(result, h0, v))
                low, high = split.low, split.high
                return (float(np.abs(h_rot[np.ix_(high, low)]).max()),
                        float(np.abs(h_rot[np.ix_(low, low)]
                                     - result.h_eff).max()))

            split = split_blocks(h0, **chosen)
            assert (split.basis is None) == sliced
            for r1, r2 in zip(residuals(0.05), residuals(0.025)):
                assert 6.0 <= r1 / r2 <= 10.0
                assert r1 < 30 * 0.05 ** 3

    def test_generator_antihermitian(self):
        rng = np.random.default_rng(3)
        h0, v = gapped_instance(rng)
        result = effective_hamiltonian(h0, v, 0.05, threshold=0.5)
        s = generator(result, v)
        assert np.abs(s + s.conj().T).max() < 1e-12


class TestLazyGenerator:
    """The generator is built only on a test's demand, by the oracle."""

    @pytest.mark.parametrize("order", [1, 2])
    def test_matches_assembled_blocks(self, order):
        # h_eff is the low block of the Hamiltonian rotated by the generator
        # assembled at the same order, to one order beyond it.
        rng = np.random.default_rng(23)
        h0, v = gapped_instance(rng)

        def deviation(eps):
            result = effective_hamiltonian(h0, v, eps, order=order, threshold=0.5)
            low = result.split.low
            h_rot = result.split.rotated(rotated_hamiltonian(result, h0, v))
            return float(np.abs(h_rot[np.ix_(low, low)] - result.h_eff).max())

        ratio = deviation(0.05) / deviation(0.025)
        assert 0.75 * 2 ** (order + 1) <= ratio <= 1.25 * 2 ** (order + 1)

    @pytest.mark.parametrize("order, solves", [(1, 0), (2, 1)])
    def test_one_centered_solve_serves_h_eff(self, order, solves, monkeypatch):
        # Order 2 solves the centered high block once, order 1 not at all;
        # the oracle's two generator blocks take one solve each.
        calls = []
        solve = sw._centered_solve

        def counted(*args, **kwargs):
            calls.append(1)
            return solve(*args, **kwargs)

        h0, v = gapped_instance(np.random.default_rng(29))
        monkeypatch.setattr(sw, "_centered_solve", counted)
        result = effective_hamiltonian(h0, v, 0.05, order=order, threshold=0.5)
        assert len(calls) == solves
        calls.clear()
        x_blocks(result.split, v)
        assert len(calls) == 2

    def test_columns_path_matches_inverse_projection(self):
        rng = np.random.default_rng(31)
        dim, k, eps = 10, 4, 0.05
        u = haar_unitary(dim, rng)
        e = np.concatenate([rng.uniform(0.0, 0.05, k),
                            rng.uniform(2.0, 3.0, dim - k)])
        h0 = (u * e) @ u.conj().T
        z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        v = (z + z.conj().T) / 2
        v /= np.linalg.norm(v, 2)
        # a rotated basis of the low space, so the low block is not diagonal
        low = u[:, :k] @ haar_unitary(k, rng)
        result = effective_hamiltonian(h0, v, eps, low_columns=low)
        # complement from the eigenvectors of I - P with eigenvalue 1
        _, vecs = np.linalg.eigh(np.eye(dim) - low @ low.conj().T)
        high = vecs[:, k:]
        h_low = low.conj().T @ h0 @ low
        e_bar = np.trace(h_low).real / k
        a = np.linalg.inv(high.conj().T @ h0 @ high - e_bar * np.eye(dim - k))
        v01 = low.conj().T @ v @ high
        want = h_low + eps * low.conj().T @ v @ low - eps ** 2 * v01 @ a @ v01.conj().T
        assert np.abs(result.h_eff - want).max() <= 1e-12


def whole_block_solve(h0):
    """Reference for the per-component solve: one solve on the whole
    centered high block, the (high, high) slice of ``h0`` in the split's
    basis."""
    def solve(split, rhs):
        h_high = split.rotated(h0)[np.ix_(split.high, split.high)]
        return np.linalg.solve(h_high - split.e_bar * np.eye(len(h_high)), rhs)
    return solve


def six_ring_xyz():
    """Coordinate split of the 6-site XYZ-field ring's 924-state sector."""
    ring = HubbardModel(6, 1.0, 100.0, tuple((i, (i + 1) % 6) for i in range(6)),
                        tuple((0.01 * (i % 3), -0.02 + 0.01 * i, 0.015 - 0.005 * i)
                              for i in range(6)))
    sector = half_filling_sector(ring)
    h0 = realize_fermion(interaction_operator(ring), sector)
    v = realize_fermion(hopping_operator(ring), sector).real
    return h0, v, {"low_columns": singly_occupied_projector(sector, ring.sites)}


class TestPerComponentSolve:
    """The centered high block is solved one connected component at a time."""

    @pytest.mark.parametrize("selector", ["6-ring-xyz", "threshold"])
    def test_matches_one_whole_block_solve(self, selector, monkeypatch):
        if selector == "threshold":
            h0, v = gapped_instance(np.random.default_rng(53), dim=12, low_dim=4)
            chosen, eps = {"threshold": 0.5}, 0.05
        else:
            h0, v, chosen = six_ring_xyz()
            eps = 1.0
        result = effective_hamiltonian(h0, v, eps, **chosen)
        if selector == "6-ring-xyz":
            # 860 high states in 140 components of at most 16.
            groups = result.split.components
            assert sum(len(idx) for idx in groups) == 140
            assert max(idx.shape[1] for idx in groups) == 16
        per_component = generator(result, v)
        monkeypatch.setattr(sw, "_centered_solve",
                            whole_block_solve(h0))
        want = effective_hamiltonian(h0, v, eps, **chosen)
        for got, ref in ((result.h_eff, want.h_eff),
                         (per_component, generator(want, v))):
            assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()

    @staticmethod
    def mixed_components():
        # High components {0, 4}, {1, 2, 5} and {3}: several sizes, indices
        # interleaved.
        h0 = np.diag([0.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0])
        h0[1, 5] = h0[5, 1] = 0.5
        h0[2, 3] = h0[3, 2] = h0[3, 6] = h0[6, 3] = 0.25
        return h0, np.eye(7)[:, :1]

    def test_real_block_and_complex_right_side(self):
        # A complex right side on a real block, whose nonzero Ebar is
        # subtracted on a copy, never on the split's stacks.
        h0, low = self.mixed_components()
        h0 += 0.5 * np.eye(7)
        split = split_blocks(h0, low_columns=low)
        assert split.e_bar == 0.5
        assert [idx.shape for idx in split.components] == [
            (1, 1), (1, 2), (1, 3)]
        rhs = np.arange(12.0).reshape(6, 2) * (1 - 0.5j)
        stacks = [stack.copy() for stack in split.stacks]
        got = sw._centered_solve(split, rhs)
        assert got.dtype == complex
        want = whole_block_solve(h0)(split, rhs)
        assert np.abs(got - want).max() <= 1e-15
        assert all(np.array_equal(a, b) for a, b in zip(stacks, split.stacks))

    def test_high_block_is_labelled_once(self, monkeypatch):
        # The split labels the high block for the gap; the order-2 solve and
        # both generator solves reuse that labelling.  v is labelled by its
        # own norm solve.
        labelled = []
        label = operators.component_indices

        def recorded(matrix):
            labelled.append(matrix.shape[0])
            return label(matrix)

        for module in (operators, sw):
            monkeypatch.setattr(module, "component_indices", recorded)
        h0, low = self.mixed_components()
        v = np.ones((7, 7))
        result = effective_hamiltonian(h0, v, 0.01, low_columns=low)
        generator(result, v)
        assert sorted(labelled) == [6, 7]


class TestShiftInvariance:
    def test_constant_shift(self):
        rng = np.random.default_rng(11)
        h0, v = gapped_instance(rng)
        base = effective_hamiltonian(h0, v, 0.05, threshold=0.5)
        shifted = effective_hamiltonian(h0 + 3.0 * np.eye(8), v, 0.05, threshold=3.5)
        # eigenbases of the degenerate block may differ between the two
        # calls, so compare spectra and basis-free projections
        assert np.allclose(np.linalg.eigvalsh(shifted.h_eff),
                           np.linalg.eigvalsh(base.h_eff) + 3.0, atol=1e-9)
        p_base, p_shift = (split.basis[:, split.low] @ split.basis[:, split.low].conj().T
                           for split in (base.split, shifted.split))
        assert np.allclose(p_base, p_shift, atol=1e-9)
        assert np.allclose(generator(base, v), generator(shifted, v), atol=1e-9)


class TestBlockSelection:
    def test_two_of_three_below_threshold(self):
        delta = 2.0
        split = split_blocks(np.diag([0.0, 0.0, delta]), threshold=delta / 2)
        assert split.low_dim == 2
        assert split.gap == pytest.approx(delta)

    def test_penalized_spin_split(self):
        # one penalized spin in a 3-spin register: low space is half the total
        dim = 8
        h0 = np.kron(np.diag([0.0, 1.0]), np.eye(4)) * 5.0
        split = split_blocks(h0, threshold=2.5)
        assert split.low_dim == 4
        assert split.gap == pytest.approx(5.0)

    def test_threshold_through_degeneracy_raises(self):
        with pytest.raises(DegeneracyError):
            split_blocks(np.eye(4), threshold=1.0)

    def test_fully_degenerate_raises(self):
        with pytest.raises(DegeneracyError):
            split_blocks(3.0 * np.eye(4), threshold=1.0)

    def test_empty_blocks_raise(self):
        h0 = np.diag([0.0, 0.0, 1.0, 1.0])
        with pytest.raises(DegeneracyError):
            split_blocks(h0, threshold=-0.5)
        with pytest.raises(DegeneracyError):
            split_blocks(h0, threshold=2.0)

    def test_selector_exclusivity(self):
        h0 = np.diag([0.0, 1.0])
        with pytest.raises(ValidationError):
            split_blocks(h0)
        with pytest.raises(ValidationError):
            split_blocks(h0, threshold=0.5, low_columns=np.eye(2, 1))

    @pytest.mark.parametrize("selector", ["columns", "threshold"])
    def test_h0_must_be_one_square_matrix(self, selector):
        chosen = {"columns": {"low_columns": np.eye(3)[:, :1]},
                  "threshold": {"threshold": 0.5}}[selector]
        h0 = np.diag([0.0, 1.0, 1.0])
        for bad in (np.stack([h0, h0]), h0[:, :2], h0[0]):
            with pytest.raises(ValidationError, match="shape"):
                split_blocks(bad, **chosen)

    def test_explicit_columns_keep_basis(self):
        h0 = np.diag([0.0, 0.0, 5.0, 7.0])
        rng = np.random.default_rng(5)
        z = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        v = (z + z.conj().T) / 2
        cols = np.eye(4)[:, :2]
        eps = 0.1
        result = effective_hamiltonian(h0, v, eps, low_columns=cols)
        a = np.diag([1.0 / 5.0, 1.0 / 7.0])
        v01 = v[:2, 2:]
        want = eps * v[:2, :2] - eps ** 2 * (v01 @ a @ v01.conj().T)
        assert np.allclose(result.h_eff, want, atol=1e-12)
        assert result.split.basis is None and list(result.split.low) == [0, 1]

    def test_explicit_columns_must_be_invariant(self):
        h0 = np.diag([0.0, 0.0, 5.0, 7.0]).astype(complex)
        h0[0, 2] = h0[2, 0] = 0.5
        with pytest.raises(ValidationError, match="invariant"):
            split_blocks(h0, low_columns=np.eye(4)[:, :2])
        # A cross block below the spectral scale (805) times BLOCK_RTOL but
        # above the largest entry (105) times it: the one test reads the
        # entry scale, so the split and effective_hamiltonian both refuse it.
        h0 = np.zeros((10, 10))
        h0[2:, 2:] = 100.0 + 5.0 * np.eye(8)
        h0[0, 2] = h0[2, 0] = 3e-8
        cols = np.eye(10)[:, :2]
        with pytest.raises(ValidationError, match="invariant"):
            split_blocks(h0, low_columns=cols)
        with pytest.raises(ValidationError, match="block diagonal"):
            effective_hamiltonian(h0, np.zeros((10, 10)), 0.1, low_columns=cols)

    def test_explicit_columns_must_be_orthonormal(self):
        h0 = np.diag([0.0, 0.0, 5.0, 7.0])
        cols = np.eye(4)[:, :2] * 2.0
        with pytest.raises(ValidationError, match="orthonormal"):
            split_blocks(h0, low_columns=cols)

    def test_block_must_be_low(self):
        h0 = np.diag([0.0, 1.0, 2.0, 3.0])
        cols = np.eye(4)[:, 1:3]
        with pytest.raises(ValidationError, match="below"):
            split_blocks(h0, low_columns=cols)


def coordinate_instance(rng, dim=10, low_rows=(7, 2, 5, 0), spread=0.05):
    """Complex h0 whose low block, of width ``spread``, sits on the
    coordinates ``low_rows``, and v."""
    perm = list(low_rows) + [r for r in range(dim) if r not in low_rows]
    k = len(low_rows)
    u = np.zeros((dim, dim), dtype=complex)
    u[:k, :k] = haar_unitary(k, rng)
    u[k:, k:] = haar_unitary(dim - k, rng)
    e = np.concatenate([rng.uniform(0.0, spread, k),
                        rng.uniform(2.0, 3.0, dim - k)])
    block = (u * e) @ u.conj().T
    h0 = np.empty_like(block)
    h0[np.ix_(perm, perm)] = block
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    v = (z + z.conj().T) / 2
    return h0, v / np.linalg.norm(v, 2)


class TestCoordinateSplit:
    """Unit-vector columns are sliced; any other basis takes the product path."""

    def test_unordered_columns_keep_the_callers_order(self):
        rng = np.random.default_rng(41)
        low_rows = [7, 2, 5, 0]
        h0, v = coordinate_instance(rng, low_rows=tuple(low_rows))
        cols = np.eye(10)[:, low_rows]
        eps = 0.05
        sliced = effective_hamiltonian(h0, v, eps, low_columns=cols)
        assert list(sliced.split.low) == low_rows
        high_rows = [r for r in range(10) if r not in low_rows]
        assert list(sliced.split.high) == high_rows
        h_low = h0[np.ix_(low_rows, low_rows)]
        assert np.array_equal(sliced.split.h0_low, h_low)
        phase = np.exp(1j * rng.uniform(0.0, 2 * np.pi, len(low_rows)))
        rotated = effective_hamiltonian(h0, v, eps, low_columns=cols * phase)
        assert rotated.split.basis is not None
        undone = phase[:, None] * rotated.h_eff * phase.conj()[None, :]
        assert np.abs(undone - sliced.h_eff).max() <= 1e-12
        e_bar = np.trace(h_low).real / len(low_rows)
        a = np.linalg.inv(h0[np.ix_(high_rows, high_rows)] - e_bar * np.eye(6))
        v01 = v[np.ix_(low_rows, high_rows)]
        want = h_low + eps * v[np.ix_(low_rows, low_rows)] \
            - eps ** 2 * v01 @ a @ v01.conj().T
        assert np.abs(sliced.h_eff - want).max() <= 1e-12

    def test_generator_matches_the_product_path(self):
        rng = np.random.default_rng(43)
        h0, v = coordinate_instance(rng)
        cols = np.eye(10)[:, [7, 2, 5, 0]]
        sliced = effective_hamiltonian(h0, v, 0.05, low_columns=cols)
        rotated = effective_hamiltonian(h0, v, 0.05, low_columns=-cols)
        assert rotated.split.basis is not None
        assert np.abs(generator(sliced, v) - generator(rotated, v)).max() <= 1e-12

    @pytest.mark.parametrize("selector", ["columns", "threshold"])
    def test_real_inputs_give_a_real_h_eff(self, selector):
        h0 = np.diag([0.0, 0.01, 0.02, 3.0, 4.0, 5.0])
        rng = np.random.default_rng(47)
        z = rng.standard_normal((6, 6))
        v = (z + z.T) / 2
        chosen = {"columns": {"low_columns": np.eye(6)[:, :3]},
                  "threshold": {"threshold": 1.0}}[selector]
        result = effective_hamiltonian(h0, v, 0.05, **chosen)
        assert result.h_eff.dtype == result.v00.dtype == np.float64
        assert all(stack.dtype == np.float64 for stack in result.split.stacks)

    @pytest.mark.parametrize("defect", ["asymmetric", "nan", "inf"])
    @pytest.mark.parametrize("phase", [1.0, 1j], ids=["coordinate", "rotated"])
    def test_bad_h0_in_the_cross_block_is_refused(self, defect, phase):
        # low rows 0 and 1; the only defect is at (low 0, high 3) or at its
        # mirror (high 3, low 0), and no whole-matrix check reads either
        cols = np.eye(4)[:, :2] * phase
        v = np.zeros((4, 4))
        for entry in ((0, 3), (3, 0)):
            h0 = np.diag([0.0, 0.0, 5.0, 7.0]).astype(complex)
            h0[entry] = {"asymmetric": 0.5, "nan": np.nan, "inf": np.inf}[defect]
            with pytest.raises(ValidationError):
                split_blocks(h0, low_columns=cols)
            with pytest.raises(ValidationError):
                effective_hamiltonian(h0, v, 0.1, low_columns=cols)
        split = split_blocks(np.diag([0.0, 0.0, 5.0, 7.0]), low_columns=cols)
        assert (split.basis is None) == (phase == 1.0)


class TestBlocksAreSlices:
    """Each selector picks a basis, and every block is an index slice of a
    matrix rotated into it."""

    @pytest.mark.parametrize("selector", ["threshold", "coordinate", "phased"])
    def test_every_block_is_a_slice(self, selector):
        rng = np.random.default_rng(61)
        if selector == "threshold":
            h0, v = gapped_instance(rng)
            chosen = {"threshold": 0.5}
        else:
            h0, v = coordinate_instance(rng)
            cols = np.eye(10)[:, [7, 2, 5, 0]]
            if selector == "phased":
                cols = cols * np.exp(1j * rng.uniform(0.0, 2 * np.pi, 4))
            chosen = {"low_columns": cols}
        split = split_blocks(h0, **chosen)
        low, high = split.low, split.high
        assert (split.basis is None) == (selector == "coordinate")
        assert np.array_equal(np.sort(np.concatenate([low, high])),
                              np.arange(len(h0)))
        scale = max(1.0, np.abs(h0).max())
        tol = 1e-12 * scale
        h = split.rotated(h0)
        assert np.abs(h[np.ix_(low, low)] - split.h0_low).max() <= tol
        h_high = h[np.ix_(high, high)]
        covered = np.sort(np.concatenate([idx.ravel() for idx in split.components]))
        assert np.array_equal(covered, np.arange(len(high)))
        for idx, stack in zip(split.components, split.stacks):
            want = h_high[idx[:, :, None], idx[:, None, :]]
            assert np.abs(stack - want).max() <= tol
        for a, b in ((low, high), (high, low)):
            assert np.abs(h[np.ix_(a, b)]).max() <= sw.BLOCK_RTOL * scale
        if split.basis is not None:
            basis = split.basis
            assert np.abs(basis.conj().T @ basis - np.eye(len(h0))).max() <= 1e-12
            rotated = split.rotated(v)
            for a in (low, high):
                for b in (low, high):
                    want = basis[:, a].conj().T @ v @ basis[:, b]
                    assert np.abs(rotated[np.ix_(a, b)] - want).max() <= 1e-12
        if selector == "phased":
            assert np.array_equal(split.basis[:, low], cols)
        if selector == "threshold":
            assert np.array_equal(split.h0_low, np.diag(np.diag(split.h0_low)))
            assert all(stack.shape[1:] == (1, 1) for stack in split.stacks)


class TestHighBlockVerdict:
    """The high block's Hermiticity verdict is read from its component
    stacks but judged once, against the whole block's largest entry."""

    @staticmethod
    def two_scales():
        # Low rows 0 and 5; high components {1, 3, 7} with entries near 1e3
        # and {2, 4, 6, 8, 9} with entries near 1, indices interleaved.
        h0 = np.zeros((10, 10), dtype=complex)
        for rows, scale in (([1, 3, 7], 1e3), ([2, 4, 6, 8, 9], 1.0)):
            block = scale * (2.0 * np.eye(len(rows)) + 0.3 * (1 + 1j))
            h0[np.ix_(rows, rows)] = (block + block.conj().T) / 2
        return h0, np.eye(10)[:, [0, 5]]

    @pytest.mark.parametrize("defect, entry, refusal", [
        (1e-9, (4, 8), None),
        (1e-6, (4, 8), "matrix is not Hermitian within tolerance"),
        (np.nan, (1, 7), "matrix has non-finite entries"),
        (np.nan, (4, 8), "matrix has non-finite entries"),
        (np.inf, (7, 3), "matrix has non-finite entries"),
        (np.inf, (2, 9), "matrix has non-finite entries"),
    ], ids=["asymmetry-1e-9", "asymmetry-1e-6", "nan-large", "nan-small",
            "inf-large", "inf-small"])
    def test_matches_the_whole_block_check(self, defect, entry, refusal):
        h0, low = self.two_scales()
        h0[entry] += defect
        high = [1, 2, 3, 4, 6, 7, 8, 9]
        try:
            operators._checked_hermitian(h0[np.ix_(high, high)])
            whole = None
        except ValidationError as error:
            whole = str(error)
        assert whole == refusal
        if refusal is None:
            split = split_blocks(h0, low_columns=low)
            assert [idx.shape for idx in split.components] == [(1, 3), (1, 5)]
        else:
            with pytest.raises(ValidationError, match=refusal):
                split_blocks(h0, low_columns=low)


class TestGuards:
    def test_regime_error(self):
        h0 = np.diag([0.0, 1.0])
        v = np.array([[0.0, 1.0], [1.0, 0.0]])
        with pytest.raises(RegimeError):
            effective_hamiltonian(h0, v, 0.6, threshold=0.5)

    def test_spread_warning(self):
        h0 = np.diag([0.0, 0.3, 2.0, 3.0])
        v = np.zeros((4, 4))
        with pytest.warns(UserWarning, match="spread"):
            effective_hamiltonian(h0, v, 0.0, threshold=1.0)

    def test_epsilon_validation(self):
        h0 = np.diag([0.0, 1.0])
        v = np.zeros((2, 2))
        with pytest.raises(ValidationError):
            effective_hamiltonian(h0, v, -0.1, threshold=0.5)
        with pytest.raises(ValidationError):
            effective_hamiltonian(h0, v, float("nan"), threshold=0.5)
        with pytest.raises(ValidationError):
            effective_hamiltonian(h0, v, 0.1, order=3, threshold=0.5)

    def test_v_hermiticity_check(self):
        h0 = np.diag([0.0, 1.0])
        v = np.array([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(ValidationError):
            effective_hamiltonian(h0, v, 0.1, threshold=0.5)

    def test_h_eff_hermitian(self):
        rng = np.random.default_rng(17)
        h0, v = gapped_instance(rng)
        result = effective_hamiltonian(h0, v, 0.05, threshold=0.5)
        assert np.abs(result.h_eff - result.h_eff.conj().T).max() < 1e-10
