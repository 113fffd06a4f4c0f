"""Block decoupling engine: closed forms, error scaling, and guard rails."""

import numpy as np
import pytest
from scipy.linalg import expm

from hamlower import sw
from hamlower.errors import DegeneracyError, RegimeError, ValidationError
from hamlower.hubbard import HubbardModel, verify_exchange
from hamlower.sw import (
    assemble_generator,
    effective_hamiltonian,
    split_blocks,
)


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


def x_blocks(split, v):
    """Second-order generator blocks (X1, X2) on the split's own blocks."""
    return sw._x_blocks(split, v, 2)


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
        v01 = split.low_projector.conj().T @ v @ split.high_projector
        v00 = split.low_projector.conj().T @ v @ split.low_projector
        v11 = split.high_projector.conj().T @ v @ split.high_projector
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
        rng = np.random.default_rng(42)
        h0, v = gapped_instance(rng)

        def residual(eps):
            result = effective_hamiltonian(h0, v, eps, threshold=0.5)
            h = h0 + eps * v
            rot = expm(result.generator)
            h_rot = rot @ h @ rot.conj().T
            low = result.split.low_projector
            high = result.split.high_projector
            return float(np.abs(high.conj().T @ h_rot @ low).max())

        r1, r2 = residual(0.05), residual(0.025)
        assert 6.0 <= r1 / r2 <= 10.0
        assert r1 < 30 * 0.05 ** 3

    def test_generator_antihermitian(self):
        rng = np.random.default_rng(3)
        h0, v = gapped_instance(rng)
        result = effective_hamiltonian(h0, v, 0.05, threshold=0.5)
        s = result.generator
        assert np.abs(s + s.conj().T).max() < 1e-12
        x1, x2 = x_blocks(result.split, v)
        rebuilt = assemble_generator(result.split, x1, x2, 0.05)
        assert np.allclose(rebuilt, s, atol=1e-12)


class TestLazyGenerator:
    @pytest.mark.parametrize("order", [1, 2])
    def test_matches_assembled_blocks(self, order):
        rng = np.random.default_rng(23)
        h0, v = gapped_instance(rng)
        result = effective_hamiltonian(h0, v, 0.05, order=order, threshold=0.5)
        x1, x2 = x_blocks(result.split, v)
        if order == 1:
            x2 = np.zeros_like(x2)
        want = assemble_generator(result.split, x1, x2, 0.05)
        assert np.allclose(result.generator, want, atol=1e-12)
        assert result.generator is result.generator

    @pytest.mark.parametrize("order, solves", [(1, 1), (2, 2)])
    def test_one_centered_solve_serves_h_eff_and_generator(
            self, order, solves, monkeypatch):
        # At order 2, h_eff's solve also gives X1; only X2 solves again.
        calls = []
        solve = np.linalg.solve

        def counted(*args, **kwargs):
            calls.append(1)
            return solve(*args, **kwargs)

        h0, v = gapped_instance(np.random.default_rng(29))
        monkeypatch.setattr(np.linalg, "solve", counted)
        result = effective_hamiltonian(h0, v, 0.05, order=order, threshold=0.5)
        result.generator
        assert len(calls) == solves
        calls.clear()
        x_blocks(result.split, v)
        assert len(calls) == 2

    def test_exchange_check_never_builds_it(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("generator assembled")

        monkeypatch.setattr(sw, "assemble_generator", refuse)
        ring = HubbardModel(4, 1.0, 100.0, ((0, 1), (1, 2), (2, 3), (3, 0)))
        assert verify_exchange(ring).passed

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
        p_base = base.split.low_projector @ base.split.low_projector.conj().T
        p_shift = shifted.split.low_projector @ shifted.split.low_projector.conj().T
        assert np.allclose(p_base, p_shift, atol=1e-9)
        assert np.allclose(base.generator, shifted.generator, atol=1e-9)


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
        assert np.allclose(result.split.low_projector, cols)

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


def coordinate_instance(rng, dim=10, low_rows=(7, 2, 5, 0)):
    """Complex h0 whose low block sits on the coordinates ``low_rows``, and v."""
    perm = list(low_rows) + [r for r in range(dim) if r not in low_rows]
    k = len(low_rows)
    u = np.zeros((dim, dim), dtype=complex)
    u[:k, :k] = haar_unitary(k, rng)
    u[k:, k:] = haar_unitary(dim - k, rng)
    e = np.concatenate([rng.uniform(0.0, 0.05, k),
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
        assert list(sliced.split.rows[0]) == low_rows
        high_rows = [r for r in range(10) if r not in low_rows]
        assert list(sliced.split.rows[1]) == high_rows
        h_low = h0[np.ix_(low_rows, low_rows)]
        assert np.array_equal(sliced.split.h0_low, h_low)
        phase = np.exp(1j * rng.uniform(0.0, 2 * np.pi, len(low_rows)))
        rotated = effective_hamiltonian(h0, v, eps, low_columns=cols * phase)
        assert rotated.split.rows is None
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
        assert rotated.split.rows is None
        assert np.abs(sliced.generator - rotated.generator).max() <= 1e-12

    @pytest.mark.parametrize("selector", ["columns", "threshold"])
    def test_real_inputs_give_a_real_h_eff(self, selector):
        h0 = np.diag([0.0, 0.01, 0.02, 3.0, 4.0, 5.0])
        rng = np.random.default_rng(47)
        z = rng.standard_normal((6, 6))
        v = (z + z.T) / 2
        chosen = {"columns": {"low_columns": np.eye(6)[:, :3]},
                  "threshold": {"threshold": 1.0}}[selector]
        result = effective_hamiltonian(h0, v, 0.05, **chosen)
        assert result.h_eff.dtype == np.float64
        assert result.split.h0_high.dtype == np.float64

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
        assert (split.rows is None) == (phase != 1.0)


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
