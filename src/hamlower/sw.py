"""Schrieffer-Wolff block decoupling at first and second order.

For ``H = H0 + eps * V`` with an isolated low block of ``H0``, build the
effective Hamiltonian on that block together with the anti-Hermitian
generator whose exponential rotates the coupling away to the same order:

    h_eff = H0_low + eps * V00 - eps**2 * V01 (H0_high - Ebar)^-1 V10

with ``Ebar`` the trace average of the low block.  When the low block is not
exactly degenerate the centering on ``Ebar`` is an approximation; the spread
of the low block is reported and a warning fires once it exceeds a tenth of
the gap.  All formulas are invariant under a constant shift of ``H0``.
"""

from __future__ import annotations

import math
import warnings
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import cached_property, partial

import numpy as np

from .errors import DegeneracyError, RegimeError, ValidationError
from .operators import eig_hermitian, eig_values

# An eigenvalue this close (relative to the spectral scale) to the threshold
# means the split would cut through a near-degenerate multiplet.
DEGENERACY_RTOL = 1e-8
# The Hamiltonian must be block diagonal across the split to this relative
# accuracy.
BLOCK_RTOL = 1e-10


@dataclass(frozen=True)
class BlockSplit:
    """Partition of a Hermitian matrix into a low block and its complement.

    ``low_projector`` and ``high_projector`` are orthonormal column bases.
    The diagonal blocks ``h0_low`` / ``h0_high`` are expressed on those
    columns and are Hermitian but not necessarily diagonal: the
    explicit-columns path keeps the caller's basis so downstream elementwise
    comparisons stay meaningful.
    """

    low_projector: np.ndarray
    high_projector: np.ndarray
    h0_low: np.ndarray
    h0_high: np.ndarray
    gap: float
    e_bar: float
    spread: float

    @property
    def low_dim(self) -> int:
        return self.low_projector.shape[1]


def _block_stats(low_vals, high_vals):
    gap = float(high_vals.min() - low_vals.max())
    if gap <= 0:
        raise ValidationError("selected block is not strictly below its complement")
    e_bar = float(low_vals.mean())
    spread = float(low_vals.max() - low_vals.min())
    return gap, e_bar, spread


def _complement(low: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the orthogonal complement of orthonormal ``low``.

    The columns are orthonormal, so their rank is exactly ``k`` and the last
    ``dim - k`` columns of a complete QR factor span the complement.
    """
    return np.linalg.qr(low, mode="complete")[0][:, low.shape[1]:]


def split_blocks(h0, *, threshold=None, low_columns=None) -> BlockSplit:
    """Select the low block of ``h0`` by energy threshold or explicit columns.

    The threshold path takes every eigenvector with eigenvalue below
    ``threshold`` and refuses to cut within ``DEGENERACY_RTOL`` (relative to
    the spectral scale) of any eigenvalue.  The column path checks the given
    columns are orthonormal and span an invariant subspace lying strictly
    below its complement; it needs eigenvalues only.
    """
    h0 = np.asarray(h0, dtype=complex)
    if (threshold is None) == (low_columns is None):
        raise ValidationError("pass exactly one of threshold or low_columns")
    if threshold is not None:
        spec = eig_hermitian(h0)
        scale = max(1.0, float(np.abs(spec.values).max()))
        t = float(threshold)
        if not math.isfinite(t):
            raise ValidationError(f"threshold must be finite, got {threshold!r}")
        if np.any(np.abs(spec.values - t) <= DEGENERACY_RTOL * scale):
            raise DegeneracyError(
                f"threshold {t:g} cuts through a (near-)degenerate multiplet")
        mask = spec.values < t
        if not mask.any():
            raise DegeneracyError(f"no eigenvalue below threshold {t:g}")
        if mask.all():
            raise DegeneracyError(f"no eigenvalue above threshold {t:g}")
        low = spec.vectors[:, mask]
        high = spec.vectors[:, ~mask]
        low_vals = spec.values[mask]
        high_vals = spec.values[~mask]
        h0_low = np.diag(low_vals).astype(complex)
        h0_high = np.diag(high_vals).astype(complex)
    else:
        scale = max(1.0, float(np.abs(eig_values(h0)).max()))
        low = np.asarray(low_columns, dtype=complex)
        if low.ndim != 2 or low.shape[0] != h0.shape[0]:
            raise ValidationError(
                f"low_columns shape {low.shape} does not match h0 {h0.shape}")
        if not 0 < low.shape[1] < h0.shape[0]:
            raise ValidationError("low_columns must span a proper nonzero subspace")
        if np.abs(low.conj().T @ low - np.eye(low.shape[1])).max() > 1e-10:
            raise ValidationError("low_columns must be orthonormal")
        high = _complement(low)
        cross = high.conj().T @ (h0 @ low)
        if np.abs(cross).max() > BLOCK_RTOL * scale:
            raise ValidationError(
                "low_columns do not span an invariant subspace of h0")
        h0_low = low.conj().T @ h0 @ low
        h0_high = high.conj().T @ h0 @ high
        low_vals = eig_values(h0_low)
        high_vals = eig_values(h0_high)
    gap, e_bar, spread = _block_stats(low_vals, high_vals)
    return BlockSplit(low, high, h0_low, h0_high, gap, e_bar, spread)


@dataclass(frozen=True)
class SWResult:
    """Effective block Hamiltonian plus the decoupling generator.

    ``h_eff`` lives on ``split.low_projector``; ``generator`` is the
    full-dimension anti-Hermitian matrix S such that
    exp(S) (H0 + eps V) exp(-S) has an off-diagonal block one order beyond
    ``order``.  It is built on first access, since most callers read only
    ``h_eff``.  ``error_budget`` is an order-of-magnitude certificate for
    the eigenvalue error of ``h_eff``, not a rigorous bound.
    """

    split: BlockSplit
    epsilon: float
    order: int
    h_eff: np.ndarray
    v_norm: float
    error_budget: float
    _build_generator: Callable[[], np.ndarray] = field(repr=False, compare=False)

    @cached_property
    def generator(self) -> np.ndarray:
        return self._build_generator()


def _checked_pair(h, v):
    """``h`` and ``v`` as complex arrays of one shape, ``v`` Hermitian."""
    h = np.asarray(h, dtype=complex)
    v = np.asarray(v, dtype=complex)
    if v.shape != h.shape:
        raise ValidationError(f"v shape {v.shape} does not match h {h.shape}")
    vscale = max(1.0, float(np.abs(v).max()))
    if np.abs(v - v.conj().T).max() > 1e-10 * vscale:
        raise ValidationError("v is not Hermitian within tolerance")
    return h, v


def _check_block_diagonal(h, split):
    low, high = split.low_projector, split.high_projector
    hscale = max(1.0, float(np.abs(h).max()))
    cross = high.conj().T @ (h @ low)
    if np.abs(cross).max() > BLOCK_RTOL * hscale:
        raise ValidationError("h is not block diagonal in the split basis")


def _split_ingredients(h, split):
    """Blocks of ``h`` on a caller-supplied split, with their stats.

    Checks that ``h`` is block diagonal in the split basis; returns
    ``(h_low, h_high, gap, e_bar, spread)``.
    """
    _check_block_diagonal(h, split)
    low, high = split.low_projector, split.high_projector
    h_low = low.conj().T @ h @ low
    h_high = high.conj().T @ h @ high
    gap, e_bar, spread = _block_stats(eig_values(h_low), eig_values(h_high))
    return h_low, h_high, gap, e_bar, spread


def _right_inverse(m, hc):
    """``m @ inv(hc)`` for Hermitian ``hc``, by a linear solve."""
    return np.linalg.solve(hc, m.conj().T).conj().T


def _x_blocks(split, h_low, h_high, e_bar, v, order):
    """X1 = -V01 A and, at order 2, X2 = (V01 A V11 - (H0 + V00) V01 A) A.

    ``A`` inverts the centered high block and ``H0`` is the centered low
    block; X2 is zero at order 1.
    """
    low, high = split.low_projector, split.high_projector
    hc = h_high - e_bar * np.eye(high.shape[1])
    v01 = low.conj().T @ v @ high
    y = _right_inverse(v01, hc)
    if order == 1:
        return -y, np.zeros_like(y)
    h0c = h_low - e_bar * np.eye(low.shape[1])
    v00 = low.conj().T @ v @ low
    v11 = high.conj().T @ v @ high
    return -y, _right_inverse(y @ v11 - (h0c + v00) @ y, hc)


def generator_blocks(h, v, split: BlockSplit):
    """Second-order generator blocks (X1, X2) for the decoupling rotation.

    X1 = -V01 H1inv and X2 = -H0 V01 H1inv**2 + V01 H1inv V1 H1inv
    - V0 V01 H1inv**2, where H1inv inverts the centered high block and H0
    is the centered low block.  The full generator for a given eps is
    assembled by ``assemble_generator``.
    """
    h, v = _checked_pair(h, v)
    h_low, h_high, _, e_bar, _ = _split_ingredients(h, split)
    return _x_blocks(split, h_low, h_high, e_bar, v, 2)


def assemble_generator(split: BlockSplit, x1, x2, epsilon) -> np.ndarray:
    """Full anti-Hermitian generator eps*X1 + eps**2*X2 in the original basis."""
    low, high = split.low_projector, split.high_projector
    k = low.shape[1]
    dim = low.shape[0]
    x = epsilon * x1 + epsilon ** 2 * x2
    s_block = np.zeros((dim, dim), dtype=complex)
    s_block[:k, k:] = x
    s_block[k:, :k] = -x.conj().T
    basis = np.hstack([low, high])
    return basis @ s_block @ basis.conj().T


def _lazy_generator(split, h_low, h_high, e_bar, v, epsilon, order):
    x1, x2 = _x_blocks(split, h_low, h_high, e_bar, v, order)
    return assemble_generator(split, x1, x2, epsilon)


def effective_hamiltonian(h, v, epsilon, *, order=2, split=None,
                          threshold=None, low_columns=None) -> SWResult:
    """Effective low-block Hamiltonian of ``h + epsilon * v``.

    The low block comes from ``split`` if given, otherwise from
    ``split_blocks`` with the remaining selector, whose blocks and stats are
    then reused.  Order 1 keeps ``H0 + eps V00``; order 2 adds the
    virtual-excitation term.  Raises ``RegimeError`` unless
    ``epsilon * |v| < gap / 2``.
    """
    h, v = _checked_pair(h, v)
    epsilon = float(epsilon)
    if not math.isfinite(epsilon) or epsilon < 0:
        raise ValidationError(f"epsilon must be finite and nonnegative, got {epsilon!r}")
    if order not in (1, 2):
        raise ValidationError(f"order must be 1 or 2, got {order!r}")
    if split is None:
        split = split_blocks(h, threshold=threshold, low_columns=low_columns)
        _check_block_diagonal(h, split)
        h_low, h_high = split.h0_low, split.h0_high
        gap, e_bar, spread = split.gap, split.e_bar, split.spread
    elif threshold is not None or low_columns is not None:
        raise ValidationError("pass either split or a block selector, not both")
    else:
        h_low, h_high, gap, e_bar, spread = _split_ingredients(h, split)
    # v is Hermitian, so its spectral norm is its largest |eigenvalue|
    v_norm = float(np.abs(eig_values(v)).max())
    if epsilon * v_norm >= gap / 2:
        raise RegimeError(
            f"epsilon*|v| = {epsilon * v_norm:.3g} is not below "
            f"gap/2 = {gap / 2:.3g}")
    if spread > gap / 10:
        warnings.warn(
            f"low-block spread {spread:.3g} exceeds gap/10 = {gap / 10:.3g}; "
            "second-order accuracy degrades",
            stacklevel=2)
    low, high = split.low_projector, split.high_projector
    h_eff = h_low + epsilon * (low.conj().T @ v @ low)
    if order == 2:
        v01 = low.conj().T @ v @ high
        hc = h_high - e_bar * np.eye(high.shape[1])
        h_eff = h_eff - epsilon ** 2 * (v01 @ np.linalg.solve(hc, v01.conj().T))
        error_budget = epsilon ** 3 * v_norm ** 3 / gap ** 2
    else:
        error_budget = epsilon ** 2 * v_norm ** 2 / gap
    h_eff = (h_eff + h_eff.conj().T) / 2
    build = partial(_lazy_generator, split, h_low, h_high, e_bar, v, epsilon, order)
    return SWResult(split, epsilon, order, h_eff, v_norm, error_budget, build)
