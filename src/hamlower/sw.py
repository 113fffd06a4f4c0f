"""Schrieffer-Wolff block decoupling at first and second order.

For ``H = H0 + eps * V`` with an isolated low block of ``H0``, build the
effective Hamiltonian on that block together with the anti-Hermitian
generator whose exponential rotates the coupling away to the same order:

    h_eff = H0_low + eps * V00 - eps**2 * V01 (H0_high - Ebar)^-1 V10

with ``Ebar`` the trace average of the low block.  When the low block is not
exactly degenerate the centering on ``Ebar`` is an approximation; the spread
of the low block is reported and a warning fires once it exceeds a tenth of
the gap.  All formulas are invariant under a constant shift of ``H0``.

The low block is picked one of two ways: every eigenvector of ``H0`` below
an energy ``threshold``, or caller-supplied orthonormal ``low_columns``.
Every block is taken in the split's own coordinates.  When the low columns
are unit coordinate vectors the blocks are index slices; any other basis
costs one rotation product per block row.  Real inputs stay real
throughout.

``split_blocks`` is the one split.  It runs one block-diagonality test on
both paths: both off-diagonal blocks of ``h0`` must lie within
``BLOCK_RTOL`` times the largest |entry| of ``h0`` (at least 1).  Each input
is checked for Hermiticity once, by the solve that reads it: ``h0`` whole by
the eigendecomposition on the threshold path, and through its two diagonal
blocks plus the cross-block test on the column path; ``v`` by its norm
solve, before it is sliced.

Values that only set a scale or guard the regime are solved one connected
component of the nonzero pattern at a time (``component_eig_values``): the
high block of a ``low_columns`` split (its minimum is the gap) and ``v``
(its norm).  The low block, whose mean is ``Ebar``, is solved whole.  The
linear solves with the centered high block, the order-2 term's and both
generator blocks', also run per connected component of the high block
(``_centered_solve``), so no high-block-sized centered copy, identity or
LU factor is made.  The split labels those components once
(``BlockSplit.components``) for the gap and every solve.  The Hermiticity
checks read large matrices in row slabs (``operators.HERMITIAN_SLAB_ROWS``).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DegeneracyError, RegimeError, ValidationError
from .operators import (
    component_eig_values,
    component_indices,
    eig_hermitian,
    eig_values,
)

# An eigenvalue this close (relative to the spectral scale) to the threshold
# means the split would cut through a near-degenerate multiplet.
DEGENERACY_RTOL = 1e-8
# h0 must be block diagonal across the split to this accuracy, relative to
# its largest |entry|.
BLOCK_RTOL = 1e-10


@dataclass(frozen=True)
class BlockSplit:
    """Partition of a Hermitian matrix into a low block and its complement.

    ``low_projector`` and ``high_projector`` are orthonormal column bases,
    and the diagonal blocks ``h0_low`` / ``h0_high`` are ``h0`` expressed on
    them: Hermitian, diagonal up to rounding on the threshold path (an
    eigenbasis), and in the caller's basis on the explicit-columns path, so
    downstream elementwise comparisons stay meaningful.  ``components`` is
    ``component_indices(h0_high)``, labelled once by the split for the gap
    and every centered solve.  ``rows`` is ``(low_rows, high_rows)`` when
    both bases are unit coordinate vectors: column ``c`` of
    ``low_projector`` is then coordinate ``low_rows[c]``.
    """

    low_projector: np.ndarray
    high_projector: np.ndarray
    h0_low: np.ndarray
    h0_high: np.ndarray
    gap: float
    e_bar: float
    spread: float
    components: list
    rows: tuple | None = None

    @property
    def low_dim(self) -> int:
        return self.low_projector.shape[1]

    def blocks(self, m):
        """``m``'s (low-low, low-high, high-low, high-high) blocks in this
        split's basis."""
        return _blocks(m, self.low_projector, self.high_projector, self.rows)

    def low_blocks(self, m):
        """``m``'s (low-low, low-high) blocks alone, without the bottom row
        that ``blocks`` also builds."""
        return _row_blocks(m, self.low_projector, self.high_projector,
                           self.rows)


def _row_blocks(m, own, other, rows):
    """``m``'s blocks on the rows of basis ``own``: (own-own, own-other).

    Coordinate bases (``rows``, own rows first) are index slices; any other
    basis takes one rotation product ``(own^H m)`` and its two right
    products.
    """
    if rows is not None:
        mine, theirs = rows
        return m[np.ix_(mine, mine)], m[np.ix_(mine, theirs)]
    # A non-finite h0 entry in a cross block reaches this product unchecked
    # and spreads as NaN, which split_blocks' negated cross-block test
    # refuses right after.
    with np.errstate(invalid="ignore"):
        row = own.conj().T @ m
        return row @ own, row @ other


def _blocks(m, low, high, rows):
    """(low-low, low-high, high-low, high-high) blocks of ``m`` on the bases
    ``low``, ``high``: the low row, then the high row."""
    low_low, low_high = _row_blocks(m, low, high, rows)
    high_high, high_low = _row_blocks(m, high, low,
                                      None if rows is None else rows[::-1])
    return low_low, low_high, high_low, high_high


def _block_stats(low_vals, high_vals):
    gap = float(high_vals.min() - low_vals.max())
    if gap <= 0:
        raise ValidationError("selected block is not strictly below its complement")
    e_bar = float(low_vals.mean())
    spread = float(low_vals.max() - low_vals.min())
    return gap, e_bar, spread


def _column_bases(low_columns, dim):
    """``(low, high, rows)`` for caller-supplied orthonormal low columns.

    When every column is a unit coordinate vector, ``high`` is the remaining
    unit vectors in ascending order and ``rows`` their indices; otherwise
    ``high`` is the last ``dim - k`` columns of a complete QR factor, which
    span the complement because the ``k`` columns are orthonormal, and
    ``rows`` is None.
    """
    low = np.asarray(low_columns)
    if low.ndim != 2 or low.shape[0] != dim:
        raise ValidationError(
            f"low_columns shape {low.shape} does not match h0 {(dim, dim)}")
    k = low.shape[1]
    if not 0 < k < dim:
        raise ValidationError("low_columns must span a proper nonzero subspace")
    if not np.abs(low.conj().T @ low - np.eye(k)).max() <= 1e-10:
        raise ValidationError("low_columns must be orthonormal")
    # Orthonormal columns with one nonzero entry each, all equal to 1, are
    # distinct unit vectors; nonzero() on the transpose lists them by column.
    cols, low_rows = np.nonzero(low.T)
    if cols.size == k and np.all(low[low_rows, cols] == 1):
        high_rows = np.setdiff1d(np.arange(dim), low_rows)
        high = np.zeros((dim, dim - k))
        high[high_rows, np.arange(dim - k)] = 1.0
        return low, high, (low_rows, high_rows)
    return low, np.linalg.qr(low, mode="complete")[0][:, k:], None


def split_blocks(h0, *, threshold=None, low_columns=None) -> BlockSplit:
    """Select the low block of ``h0`` by energy threshold or explicit columns.

    The threshold path takes every eigenvector with eigenvalue below
    ``threshold`` and refuses to cut within ``DEGENERACY_RTOL`` (relative to
    the spectral scale) of any eigenvalue.  The column path checks the given
    columns are orthonormal and span an invariant subspace lying strictly
    below its complement; it needs the eigenvalues of the two diagonal
    blocks only.  The low block is solved whole; the high block, read only
    for its minimum, is solved per connected component.  Both paths then
    test that ``h0`` is block diagonal across the split.
    """
    if (threshold is None) == (low_columns is None):
        raise ValidationError("pass exactly one of threshold or low_columns")
    h0 = np.asarray(h0)
    if h0.ndim != 2 or h0.shape[0] != h0.shape[1]:
        raise ValidationError(f"h0 must be one square matrix, got shape {h0.shape}")
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
        low, high, rows = spec.vectors[:, mask], spec.vectors[:, ~mask], None
        h0_low, cross, mirror, h0_high = _blocks(h0, low, high, rows)
        components = component_indices(h0_high)
        low_vals, high_vals = spec.values[mask], spec.values[~mask]
    else:
        low, high, rows = _column_bases(low_columns, h0.shape[0])
        h0_low, cross, mirror, h0_high = _blocks(h0, low, high, rows)
        components = component_indices(h0_high)
        low_vals = eig_values(h0_low)
        high_vals = component_eig_values(h0_high, components)
    # The diagonal blocks passed their solves, so a non-finite entry of h0
    # sits in a cross block.  An inf one would excuse itself through the
    # scale, hence the finite scale; the test is negated so NaN fails too.
    scale = max(1.0, float(np.abs(h0).max()))
    limit = BLOCK_RTOL * scale
    if not (math.isfinite(scale)
            and all(np.abs(b).max() <= limit for b in (cross, mirror))):
        raise ValidationError(
            "h0 is not block diagonal across the split: the low columns do "
            "not span an invariant subspace")
    gap, e_bar, spread = _block_stats(low_vals, high_vals)
    return BlockSplit(low, high, h0_low, h0_high, gap, e_bar, spread,
                      components, rows)


@dataclass(frozen=True)
class SWResult:
    """Effective block Hamiltonian plus the decoupling generator.

    ``h_eff`` lives on ``split.low_projector``; ``generator`` is the
    full-dimension anti-Hermitian matrix S such that
    exp(S) (H0 + eps V) exp(-S) has an off-diagonal block one order beyond
    ``order``.  It is built on first access from ``v`` and, at order 2, the
    solve ``z = (H_high - Ebar)^-1 V10``, since most callers read only
    ``h_eff``.  ``error_budget`` is an order-of-magnitude certificate for
    the eigenvalue error of ``h_eff``, not a rigorous bound.
    """

    split: BlockSplit
    epsilon: float
    order: int
    h_eff: np.ndarray
    v_norm: float
    error_budget: float
    v: np.ndarray
    z: np.ndarray | None

    @cached_property
    def generator(self) -> np.ndarray:
        x1, x2 = _x_blocks(self.split, self.v, self.order, self.z)
        return assemble_generator(self.split, x1, x2, self.epsilon)


def _centered_solve(split, rhs):
    """``(H_high - Ebar)^-1 rhs``, solved one connected component of the
    high block at a time.

    The centered high block is block diagonal in the components of
    ``h0_high``'s nonzero pattern (``split.components``), so each
    component's rows of ``rhs`` are solved against its principal block
    alone; components of one size share one stacked solve.  This serves
    the order-2 term and both generator blocks.
    """
    h = split.h0_high
    out = np.empty(rhs.shape, dtype=np.result_type(h, rhs))
    for idx in split.components:
        block = h[idx[:, :, None], idx[:, None, :]]
        diagonal = np.arange(idx.shape[1])
        block[:, diagonal, diagonal] -= split.e_bar
        out[idx] = np.linalg.solve(block, rhs[idx])
    return out


def _x_blocks(split, v, order, z=None):
    """X1 = -V01 A and, at order 2, X2 = (V01 A V11 - (H0 + V00) V01 A) A.

    ``A`` inverts the split's centered high block and ``H0`` is its
    centered low block; X2 is zero at order 1.  X1 is ``-z^H`` for the
    order-2 solve ``z = A V10`` that ``effective_hamiltonian`` makes for
    ``h_eff``; it is solved here only when no ``z`` is given.  ``A`` is
    Hermitian, so a right product with it is the adjoint of a solve.
    """
    v00, v01, _, v11 = split.blocks(v)
    if z is None:
        z = _centered_solve(split, v01.conj().T)
    y = z.conj().T
    if order == 1:
        return -y, np.zeros_like(y)
    h0c = split.h0_low - split.e_bar * np.eye(split.low_dim)
    return -y, _centered_solve(split, (y @ v11 - (h0c + v00) @ y).conj().T).conj().T


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


def effective_hamiltonian(h, v, epsilon, *, order=2, threshold=None,
                          low_columns=None) -> SWResult:
    """Effective low-block Hamiltonian of ``h + epsilon * v``.

    The low block comes from ``split_blocks`` with the one selector given,
    ``threshold`` or ``low_columns``, and its blocks and stats are reused.
    Order 1 keeps ``H0 + eps V00``; order 2 adds the virtual-excitation
    term.  Raises ``RegimeError`` unless ``epsilon * |v| < gap / 2``.
    """
    epsilon = float(epsilon)
    if not math.isfinite(epsilon) or epsilon < 0:
        raise ValidationError(f"epsilon must be finite and nonnegative, got {epsilon!r}")
    if order not in (1, 2):
        raise ValidationError(f"order must be 1 or 2, got {order!r}")
    split = split_blocks(h, threshold=threshold, low_columns=low_columns)
    v = np.asarray(v)
    dim = split.low_projector.shape[0]
    if v.shape != (dim, dim):
        raise ValidationError(f"v shape {v.shape} does not match h {(dim, dim)}")
    gap, spread = split.gap, split.spread
    # v is Hermitian, so its spectral norm is its largest |eigenvalue|; this
    # solve is v's one Hermiticity check, made before v is sliced.
    v_norm = float(np.abs(component_eig_values(v)).max())
    if epsilon * v_norm >= gap / 2:
        raise RegimeError(
            f"epsilon*|v| = {epsilon * v_norm:.3g} is not below "
            f"gap/2 = {gap / 2:.3g}")
    if spread > gap / 10:
        warnings.warn(
            f"low-block spread {spread:.3g} exceeds gap/10 = {gap / 10:.3g}; "
            "second-order accuracy degrades",
            stacklevel=2)
    v00, v01 = split.low_blocks(v)
    h_eff = split.h0_low + epsilon * v00
    z = None
    if order == 2:
        z = _centered_solve(split, v01.conj().T)
        h_eff = h_eff - epsilon ** 2 * (v01 @ z)
        error_budget = epsilon ** 3 * v_norm ** 3 / gap ** 2
    else:
        error_budget = epsilon ** 2 * v_norm ** 2 / gap
    h_eff = (h_eff + h_eff.conj().T) / 2
    # The result keeps z, which is the generator's X1 up to sign, so a
    # generator read later solves only for X2.
    return SWResult(split, epsilon, order, h_eff, v_norm, error_budget, v, z)
