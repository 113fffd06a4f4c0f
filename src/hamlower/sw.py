"""Schrieffer-Wolff block decoupling at first and second order.

For ``H = H0 + eps * V`` with an isolated low block of ``H0``, build the
effective Hamiltonian on that block:

    h_eff = H0_low + eps * V00 - eps**2 * V01 (H0_high - Ebar)^-1 V10

with ``Ebar`` the trace average of the low block.  When the low block is not
exactly degenerate the centering on ``Ebar`` is an approximation; the spread
of the low block is reported and a warning fires once it exceeds a tenth of
the gap.  All formulas are invariant under a constant shift of ``H0``.  The
anti-Hermitian generator whose exponential rotates the coupling away to the
same order is not built: only the tests read it, as their oracle for
``h_eff``.

Each selector picks a basis, and every block is an index slice in it.
``split_blocks`` turns its selector into a basis, the low indices, and
``h0`` in that basis: unit coordinate ``low_columns`` keep the coordinate
basis and ``h0`` as given; any other ``low_columns`` are followed by their
QR complement; a ``threshold`` picks ``h0``'s eigenvectors, in which ``h0``
is exactly diagonal.  One path then serves every selector: a block of ``m``
is a slice of ``BlockSplit.rotated(m)``, such as V11 on (high, high).  Real
inputs stay real throughout.

The split runs one block-diagonality test: both off-diagonal slices of
``h0`` in its basis must lie within ``BLOCK_RTOL`` times the largest |entry|
of the given ``h0`` (at least 1).  Each input is checked for Hermiticity once, by the
solve that reads it: ``h0`` through its two diagonal slices plus that test
(a threshold split's eigendecomposition checks it whole first); ``v`` by its
norm solve, before it is rotated or sliced.

The high block is kept only as the principal blocks of the connected
components of its nonzero pattern, stacked by size (``BlockSplit.stacks``)
and gathered straight from ``h0`` in the split's basis, so the high block
itself is never formed; a threshold split's components are all 1 x 1.  The gap and the centered solve (``_centered_solve``) read the
stacks, so no whole centered copy or LU factor is made.  ``v``'s norm is
solved per component too; the low block, whose mean is ``Ebar``, is solved
whole.  Verdicts read from component stacks or from row slabs
(``operators.HERMITIAN_SLAB_ROWS``) are those of one whole-matrix pass.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DegeneracyError, RegimeError, ValidationError
from .operators import (
    _largest_entry,
    _slab_max,
    component_blocks,
    component_eig_values,
    component_indices,
    eig_hermitian,
    eig_values,
    stacked_eig_values,
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

    The split is taken in the unitary ``basis``, or in the coordinate basis
    when ``basis`` is None; ``low`` and ``high`` index its columns, and
    every block of a matrix ``m`` is an index slice of ``rotated(m)``, such
    as ``rotated(m)[np.ix_(high, high)]`` for its high-high block.  ``low``
    keeps the caller's column order and ``high`` ascends.  ``h0_low`` is
    ``h0`` on (low, low): exactly diagonal for a threshold split and in the
    caller's columns otherwise, so downstream elementwise comparisons stay
    meaningful.  The high block is kept as ``stacks``, the principal blocks
    (``component_blocks``) on its ``components`` (``component_indices``, in
    positions of ``high``), labelled once for the gap and every centered
    solve.
    """

    basis: np.ndarray | None
    low: np.ndarray
    high: np.ndarray
    h0_low: np.ndarray
    stacks: list
    gap: float
    e_bar: float
    spread: float
    components: list

    @property
    def low_dim(self) -> int:
        return self.low.size

    def rotated(self, m):
        """``m`` in this split's basis: ``basis^H m basis``, or ``m`` itself."""
        if self.basis is None:
            return m
        return self.basis.conj().T @ m @ self.basis


def _block_stats(low_vals, high_vals):
    gap = float(high_vals.min() - low_vals.max())
    if gap <= 0:
        raise ValidationError("selected block is not strictly below its complement")
    e_bar = float(low_vals.mean())
    spread = float(low_vals.max() - low_vals.min())
    return gap, e_bar, spread


def _eigen_basis(h0, threshold):
    """``(basis, low, h)`` for an energy threshold: ``h0``'s eigenvectors,
    those below ``threshold``, and ``h0`` in that basis, its eigenvalues
    on the diagonal."""
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
    return spec.vectors, np.flatnonzero(mask), np.diag(spec.values)


def _column_basis(h0, low_columns):
    """``(basis, low, h)`` for caller-supplied orthonormal low columns.

    Unit coordinate vectors keep the coordinate basis: ``basis`` is None,
    ``low`` lists their rows in column order and ``h`` is ``h0``.  Any other
    ``k`` columns are followed by the last ``dim - k`` columns of a complete
    QR factor, which span the complement because the ``k`` columns are
    orthonormal, and ``h`` is ``h0`` rotated into that basis.
    """
    dim = h0.shape[0]
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
        return None, low_rows, h0
    basis = np.linalg.qr(low, mode="complete")[0]
    basis[:, :k] = low
    # A non-finite h0 entry spreads as NaN through this product, which
    # split_blocks' solves and its negated cross-block test refuse.
    with np.errstate(invalid="ignore"):
        return basis, np.arange(k), basis.conj().T @ h0 @ basis


def split_blocks(h0, *, threshold=None, low_columns=None) -> BlockSplit:
    """Select the low block of ``h0`` by energy threshold or explicit columns.

    The threshold path takes every eigenvector with eigenvalue below
    ``threshold`` and refuses to cut within ``DEGENERACY_RTOL`` (relative to
    the spectral scale) of any eigenvalue.  The column path checks the given
    columns are orthonormal.  Either way the low block is solved whole and
    the high block from its component stacks, the low block must lie
    strictly below the high one, and ``h0`` must be block diagonal across
    the split.
    """
    if (threshold is None) == (low_columns is None):
        raise ValidationError("pass exactly one of threshold or low_columns")
    h0 = np.asarray(h0)
    if h0.ndim != 2 or h0.shape[0] != h0.shape[1]:
        raise ValidationError(f"h0 must be one square matrix, got shape {h0.shape}")
    if threshold is not None:
        basis, low, h = _eigen_basis(h0, threshold)
    else:
        basis, low, h = _column_basis(h0, low_columns)
    high = np.setdiff1d(np.arange(h.shape[0]), low)
    h0_low = h[np.ix_(low, low)]
    # Labelled on the pattern and gathered from h itself: the high block is
    # never formed.
    components = component_indices((h != 0)[np.ix_(high, high)])
    stacks = component_blocks(h, [high[idx] for idx in components])
    low_vals, high_vals = eig_values(h0_low), stacked_eig_values(stacks)
    # The diagonal blocks passed their solves, so a non-finite entry of h0
    # sits in a cross block.  An inf one would excuse itself through the
    # scale, hence the finite scale; the test is negated so NaN fails too.
    scale = max(1.0, float(_slab_max(h0, _largest_entry)))
    limit = BLOCK_RTOL * scale
    if not (math.isfinite(scale)
            and all(np.abs(h[np.ix_(rows, cols)]).max() <= limit
                    for rows, cols in ((low, high), (high, low)))):
        raise ValidationError(
            "h0 is not block diagonal across the split: the low columns do "
            "not span an invariant subspace")
    gap, e_bar, spread = _block_stats(low_vals, high_vals)
    return BlockSplit(basis, low, high, h0_low, stacks, gap, e_bar, spread,
                      components)


@dataclass(frozen=True)
class SWResult:
    """Effective block Hamiltonian of a split.

    ``h_eff`` lives on the split's low columns, and ``v00`` is the
    perturbation's low-low block (the first-order term) in the same basis.
    ``error_budget`` is an order-of-magnitude certificate for the eigenvalue
    error of ``h_eff``, not a rigorous bound.
    """

    split: BlockSplit
    epsilon: float
    order: int
    h_eff: np.ndarray
    v_norm: float
    error_budget: float
    v00: np.ndarray


def _centered_solve(split, rhs):
    """``(H_high - Ebar)^-1 rhs``, solved one connected component of the
    high block at a time.

    The centered high block is block diagonal in its components, so each
    component's rows of ``rhs`` are solved against its principal block
    alone; the components of one size share one stacked solve.  Ebar is
    subtracted on a copy, so the split's stacks are never edited.
    """
    out = np.empty(rhs.shape, dtype=np.result_type(split.stacks[0], rhs))
    for idx, stack in zip(split.components, split.stacks):
        out[idx] = np.linalg.solve(stack - split.e_bar * np.eye(idx.shape[1]),
                                   rhs[idx])
    return out


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
    if v.shape != np.shape(h):
        raise ValidationError(f"v shape {v.shape} does not match h {np.shape(h)}")
    gap, spread = split.gap, split.spread
    # v is Hermitian, so its spectral norm is its largest |eigenvalue|; this
    # solve is v's one Hermiticity check, made before v is rotated.
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
    rotated, low = split.rotated(v), split.low
    v00, v01 = rotated[np.ix_(low, low)], rotated[np.ix_(low, split.high)]
    h_eff = split.h0_low + epsilon * v00
    if order == 2:
        h_eff = h_eff - epsilon ** 2 * (v01 @ _centered_solve(split, v01.conj().T))
        error_budget = epsilon ** 3 * v_norm ** 3 / gap ** 2
    else:
        error_budget = epsilon ** 2 * v_norm ** 2 / gap
    h_eff = (h_eff + h_eff.conj().T) / 2
    return SWResult(split, epsilon, order, h_eff, v_norm, error_budget, v00)
