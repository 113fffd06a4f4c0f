"""Slater-determinant mean-field solver and classical Ising embeddings.

A problem instance is a second-quantized Hamiltonian

    H = sum_ij h_ij a+_i a_j + (1/2) sum_ijkl w_ijkl a+_i a+_j a_k a_l

with Hermitian one-body part and two-body symmetry ``w_ijkl = conj(w_lkji)``.
The two-body part is stored as its nonzero entries (sorted flat indices and
values), never as a dense ``m^4`` tensor, except where an exact sector
matrix, small by ``MAX_EXACT_DIMENSION``, is built.

The solver minimizes the Slater-determinant energy functional by Roothaan
iteration over several deterministic restarts, run in lockstep: a damped
start, then Pulay DIIS once a restart's commutator ``||FD - DF||_F`` falls
to ``SCF_DIIS_START``.  It reports the best determinant found; the result is
variational, never below the exact ground energy.

Density conventions: ``D = u @ u.conj().T`` so ``D[q, p] = <a+_p a_q>``.
The Fock matrix ``F[D]`` (the energy gradient) follows from that index
order, and one kernel serves both the solver and the Wick energy
``1/2 tr((h + F[D]) D)``.

The Ising section builds L x L x 2 nearest-neighbor spin glasses with
couplings in {-1, 0, +1}, a brute-force oracle over all configurations
(enumerated by doubling, one site at a time, without per-site tables), and
a fermionic embedding in which every classical spin configuration is a
Slater determinant with exactly the classical energy: site s holds modes
(2s, 2s+1), single occupancy is enforced by an on-site penalty, and the
coupling ``J sigma_i sigma_j`` becomes density-density terms with signs
``(-1)**(a+b)`` over the mode pairs: 8 two-body entries per nonzero bond
and 2 per site.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ResourceLimitError, ValidationError
from .operators import (
    NEGLIGIBLE,
    FockSector,
    LineReader,
    _checked_hermitian,
    eig_hermitian,
    eig_values,
    excitation_table,
    realize_fermion,  # unused here; perfbench/spans.py traces meanfield.realize_fermion
)

HERMITICITY_ATOL = 1e-10

SCF_DAMPING = 0.5       # share of the fresh density mixed in per damped iteration
SCF_DIIS_START = 0.1    # commutator norm ||FD - DF||_F at or below which DIIS runs
SCF_DIIS_HISTORY = 8    # Fock matrices one DIIS extrapolation spans
SCF_TOLERANCE = 1e-8    # density update (Frobenius norm) that ends a restart
# Restarts whose energies differ by less than this share of max(1, |E|)
# reached the same determinant; the lowest such restart is reported.
SCF_ENERGY_TIE = 1e-12

# C(12, 6) = 924; larger sectors make dense exact references too slow.
MAX_EXACT_DIMENSION = 5000
# Source states per chunk of the two-body sector build; larger chunks gain
# nothing once numpy's per-call overhead is amortized.
MAX_CHUNK_STATES = 256


class SecondQuantizedHamiltonian:
    """A one-body matrix and two-body entries, with validated symmetry.

    The two-body part is stored as entries, not as an ``m^4`` tensor:
    ``two_body_index`` holds the sorted row-major flat indices
    ``((i*m + j)*m + k)*m + l`` of its nonzero coefficients and
    ``two_body_values`` their complex values.  The constructor takes a dense
    ``(m, m, m, m)`` array or None; ``from_entries`` takes mode quadruples.
    """

    def __init__(self, one_body, two_body=None):
        one_body = np.asarray(one_body, dtype=complex)
        if one_body.ndim != 2 or one_body.shape[0] != one_body.shape[1]:
            raise ValidationError(f"one-body part must be square, got {one_body.shape}")
        m = one_body.shape[0]
        if m < 1:
            raise ValidationError("need at least one mode")
        _checked_hermitian(one_body)
        self.one_body = one_body
        if two_body is None:
            flat, values = np.empty(0, dtype=np.intp), np.empty(0, dtype=complex)
        else:
            two_body = np.asarray(two_body, dtype=complex)
            if two_body.shape != (m, m, m, m):
                raise ValidationError(
                    f"two-body part must have shape {(m,) * 4}, got {two_body.shape}")
            flat = np.flatnonzero(two_body)
            values = two_body.ravel()[flat]
        self._set_two_body(flat, values)

    @classmethod
    def from_entries(cls, one_body, modes, values):
        """The Hamiltonian with two-body coefficient ``values[n]`` at mode
        quadruple ``modes[n]`` (shape ``(count, 4)``); repeated quadruples
        are summed in the order given."""
        ham = cls(one_body)
        m = ham.num_modes
        modes = np.asarray(modes, dtype=np.intp)
        values = np.asarray(values)
        if modes.ndim != 2 or modes.shape[1] != 4 or values.shape != modes.shape[:1]:
            raise ValidationError(
                f"need (count, 4) mode quadruples and count values, got "
                f"{modes.shape} and {values.shape}")
        if modes.size and (modes.min() < 0 or modes.max() >= m):
            raise ValidationError(f"two-body mode index outside [0, {m})")
        ham._set_two_body(np.ravel_multi_index(tuple(modes.T), (m,) * 4), values)
        return ham

    def _set_two_body(self, flat, values):
        """Store the two-body entries, after checking them.

        Repeated flat indices are summed in the order given, as ``np.add.at``
        sums records into a dense tensor (``np.bincount`` adds its weights in
        order, from zero), and sums of zero are dropped: the stored entries
        are the nonzero coefficients of that tensor, as given (not
        symmetrized).  Finiteness and ``w_ijkl = conj(w_lkji)`` are checked
        on those entries only: a zero entry facing a nonzero mirror shows the
        same difference at the mirror's index.
        """
        index, slot = np.unique(flat, return_inverse=True)
        merged = np.zeros(index.size, dtype=complex)
        _accumulate(merged, slot, values)
        nonzero = merged != 0
        self.two_body_index, self.two_body_values = index[nonzero], merged[nonzero]
        entries = self.two_body_values
        if not np.isfinite(entries).all():
            raise ValidationError("non-finite coefficient in the two-body part")
        scale2 = max(1.0, float(np.abs(entries).max(initial=0.0)))
        i, j, k, l = np.unravel_index(self.two_body_index, (self.num_modes,) * 4)
        mirror = self.two_body_at(l, k, j, i).conj()
        if np.abs(entries - mirror).max(initial=0.0) > HERMITICITY_ATOL * scale2:
            raise ValidationError(
                "two-body part violates w[i,j,k,l] == conj(w[l,k,j,i])")

    @property
    def num_modes(self) -> int:
        return self.one_body.shape[0]

    def two_body_at(self, i, j, k, l) -> np.ndarray:
        """Coefficients ``w[i, j, k, l]`` at broadcast mode-index arrays,
        zero where no entry is stored."""
        m = self.num_modes
        flat = ((np.asarray(i) * m + j) * m + k) * m + l
        index = self.two_body_index
        if not index.size:
            return np.zeros(flat.shape, dtype=complex)
        at = np.minimum(np.searchsorted(index, flat), index.size - 1)
        return np.where(index[at] == flat, self.two_body_values[at], 0)

    def dense_two_body(self) -> np.ndarray:
        """The two-body part as a dense ``(m, m, m, m)`` tensor."""
        m = self.num_modes
        dense = np.zeros(m ** 4, dtype=complex)
        dense[self.two_body_index] = self.two_body_values
        return dense.reshape((m,) * 4)

    def __eq__(self, other):
        if not isinstance(other, SecondQuantizedHamiltonian):
            return NotImplemented
        return (np.array_equal(self.one_body, other.one_body)
                and np.array_equal(self.two_body_index, other.two_body_index)
                and np.array_equal(self.two_body_values, other.two_body_values))

    def __repr__(self):
        return f"SecondQuantizedHamiltonian(modes={self.num_modes})"


def _accumulate(out, flat, values):
    """``out.flat[flat] += values`` with repeated indices summed."""
    size = out.size
    out.real += np.bincount(flat.ravel(), values.real.ravel(), size).reshape(out.shape)
    out.imag += np.bincount(flat.ravel(), values.imag.ravel(), size).reshape(out.shape)


def sector_matrix(ham: SecondQuantizedHamiltonian, sector: FockSector) -> np.ndarray:
    """Matrix of ``ham`` on a fixed-particle-number sector, from its dense
    tensors (exact sectors are small by ``MAX_EXACT_DIMENSION``).

    With ``E_pq = a+_p a_q``, ``a+_i a+_j a_k a_l = E_il E_jk - delta_jl E_ik``,
    so ``H = sum_ik (h_ik - 1/2 sum_j w_ijkj) E_ik
    + 1/2 sum_ijkl w_ijkl E_il E_jk``.  Both sums read one
    ``excitation_table`` of the sector: the two-body term applies ``E_jk``
    and then ``E_il`` to every source state.  Source states go in chunks of
    at most ``MAX_CHUNK_STATES``, and of few enough states that a chunk's
    ``(states, P, P)`` index arrays hold no more entries than the output
    matrix (one state at least).
    """
    if ham.num_modes != sector.num_modes:
        raise ValidationError(
            f"Hamiltonian on {ham.num_modes} modes, sector has {sector.num_modes}")
    m = ham.num_modes
    dim = sector.dimension
    pairs, targets, signs = excitation_table(sector)
    out = np.zeros((dim, dim), dtype=complex)
    w = ham.dense_two_body()
    one_body = ham.one_body - 0.5 * np.einsum("ijkj->ik", w)
    cols = np.arange(dim)[:, None]
    _accumulate(out, targets * dim + cols, one_body.reshape(-1)[pairs] * signs)
    # w_ijkl at [i*m + l, j*m + k]: row pair of E_il, column pair of E_jk
    two_body = 0.5 * w.transpose(0, 3, 1, 2).reshape(m * m, m * m)
    per_state = max(1, pairs.shape[1]) ** 2
    chunk = max(1, min(MAX_CHUNK_STATES, dim * dim // per_state))
    for start in range(0, dim, chunk):
        rows = slice(start, start + chunk)
        middle = targets[rows]              # (states, P): E_jk applied
        values = two_body[pairs[middle], pairs[rows, :, None]]
        values *= signs[rows, :, None] * signs[middle]
        _accumulate(out, targets[middle] * dim + cols[rows, :, None], values)
    return out


def exact_ground_energy(ham: SecondQuantizedHamiltonian, num_particles: int) -> float:
    """Lowest eigenvalue in the fixed-particle-number sector."""
    sector = FockSector(ham.num_modes, num_particles)
    if sector.dimension > MAX_EXACT_DIMENSION:
        raise ResourceLimitError(
            f"sector dimension {sector.dimension} exceeds the exact cap "
            f"{MAX_EXACT_DIMENSION}")
    return float(eig_values(sector_matrix(ham, sector))[0])


class SlaterState:
    """Orthonormal orbital coefficients of one determinant (modes x particles)."""

    def __init__(self, orbitals):
        orbitals = np.asarray(orbitals, dtype=complex)
        if orbitals.ndim != 2:
            raise ValidationError("orbitals must be a 2d array")
        m, n = orbitals.shape
        if not 1 <= n <= m:
            raise ValidationError(
                f"need between 1 and {m} occupied orbitals, got {n}")
        gram = orbitals.conj().T @ orbitals
        # Negated so that a NaN entry fails the test as well.
        if not np.abs(gram - np.eye(n)).max() <= HERMITICITY_ATOL:
            raise ValidationError("orbitals are not orthonormal")
        self.orbitals = orbitals

    @property
    def num_modes(self) -> int:
        return self.orbitals.shape[0]

    @property
    def num_particles(self) -> int:
        return self.orbitals.shape[1]

    def density(self) -> np.ndarray:
        return self.orbitals @ self.orbitals.conj().T


def _fock_builder(ham: SecondQuantizedHamiltonian):
    """``density -> Fock matrix`` of ``ham``, one-body part ``h`` and
    interaction ``w``.

    The four contractions of the two-body tensor with the density fold into
    one ``(m^2, m^2)`` kernel.  Only the rows and the columns that a stored
    entry of ``w`` reaches are built, by placing each stored entry at the
    kernel cells it reaches, so each build is one product with a
    row-and-column-restricted kernel.  The map takes one density or a stack
    ``(R, m, m)`` of them and builds every Fock matrix in that one product.

    The builder reads the Hermitian part of ``h`` and the mirror-symmetric
    part ``v_ijkl = (w_ijkl + conj(w_lkji)) / 2`` of ``w``, taken once.
    Kernel entries ``(pq, xy)`` and ``(qp, yx)`` are then exact conjugates,
    so the Fock matrix of a Hermitian density is Hermitian up to the
    product's rounding and is not symmetrized per build: the eigensolver's
    check is the one Hermiticity pass per iteration.
    """
    m = ham.num_modes
    h = 0.5 * (ham.one_body + ham.one_body.conj().T)
    modes = np.unravel_index(ham.two_body_index, (m,) * 4)
    a, b, c, d = modes
    rows = np.unique(np.concatenate([a * m + d, b * m + c, a * m + c, b * m + d]))
    # The columns that w reaches are these rows transposed, and v reaches
    # both: one index set for rows and columns, closed under pq -> qp.
    index = np.union1d(rows, rows % m * m + rows // m)
    position = np.zeros(m * m, dtype=np.intp)        # of each pair in index
    position[index] = np.arange(index.size)
    # 2 v_ijkl = w_ijkl + conj(w_lkji): a stored w_abcd enters at its own
    # index and, conjugated, at the mirror index dcba.
    parts = ((modes, ham.two_body_values), (modes[::-1], ham.two_body_values.conj()))

    def v(pattern):
        """The grid of ``2 v_pattern``: cell ``(p*m + q, x*m + y)`` holds
        ``2 v`` at the index that ``pattern`` spells with that cell's p, q,
        x and y.  Cells and indices correspond one to one, so placing the
        stored values and their mirror conjugates gives every cell the
        operands that reading ``v`` at it would."""
        out = np.zeros((2, index.size, index.size), dtype=complex)
        for part, (ijkl, values) in zip(out, parts):
            mode = dict(zip(pattern, ijkl))
            part[position[mode["p"] * m + mode["q"]],
                 position[mode["x"] * m + mode["y"]]] = values
        return out[0] + out[1]

    # kernel[p*m + q, x*m + y] = (v_pyxq + v_ypqx - v_pyqx - v_ypxq) / 2,
    # grouped so that the conjugate of entry (qp, yx) adds the same terms.
    kernel = 0.25 * ((v("pyxq") + v("ypqx")) - (v("pyqx") + v("ypxq")))
    # Transposed, so that flattened densities multiply it from the left.
    kernel = np.ascontiguousarray(kernel.T)
    # A complete index set indexes as a slice: a view, not a gather.
    if index.size == m * m:
        index = slice(None)

    def fock(density):
        flat = density.reshape(*density.shape[:-2], m * m)
        interaction = np.zeros(flat.shape, dtype=complex)
        interaction[..., index] = flat[..., index] @ kernel
        return h + interaction.reshape(density.shape)

    return fock


def _energies(h, fock, density):
    """Wick energies ``1/2 tr((h + F[D]) D)`` of a density or a stack of them.

    The two-body energy is quadratic in ``D`` and ``F[D] - h`` is its
    gradient, so half that gradient's trace against ``D`` is the two-body
    energy: one Fock build gives the whole energy.
    """
    total = 0.5 * np.einsum("...ij,...ji->...", h + fock(density), density)
    if (np.abs(total.imag) > 1e-8 * np.maximum(1.0, np.abs(total))).any():
        raise ValidationError("energy came out complex; check tensor symmetry")
    return total.real


def hartree_fock_energy(ham: SecondQuantizedHamiltonian, state) -> float:
    """Wick expectation of the Hamiltonian in one determinant."""
    density = state.density() if isinstance(state, SlaterState) else np.asarray(state)
    return float(_energies(ham.one_body, _fock_builder(ham), density))


@dataclass
class SCFResult:
    """Best determinant over all restarts, with convergence bookkeeping.

    ``history`` holds the best restart's density residuals, one per
    iteration: the Frobenius norm of the fresh density minus the current
    one, the quantity the convergence test compares with ``SCF_TOLERANCE``.
    ``energy`` is the Wick energy of the final determinant, evaluated as
    ``1/2 tr((h + F[D]) D)`` on the solver's own Fock kernel.
    """

    state: SlaterState
    energy: float
    converged: bool
    iterations: int
    restart: int
    restarts_tried: int
    restarts_converged: int
    history: tuple


def _haar_orbitals(rng, num_modes, num_particles):
    raw = rng.normal(size=(num_modes, num_particles)) \
        + 1j * rng.normal(size=(num_modes, num_particles))
    q, r = np.linalg.qr(raw)
    # Fix the phase gauge so the factorization is unique.
    q = q * np.sign(np.where(np.diag(r) == 0, 1, np.diag(r)))
    return q[:, :num_particles]


def _pulay_weights(gram, used, newest):
    """Pulay DIIS coefficients of a stack of histories, one stacked solve.

    ``gram`` ``(k, S, S)`` holds the real inner products of each history's
    error vectors, ``used`` ``(k, S)`` marks the slots each history holds,
    and slot ``newest`` holds every history's latest entry.  Each Gram block
    is scaled by its largest used diagonal entry and bordered by the
    sum-to-one constraint; an unused slot reads as an identity row, so its
    coefficient solves to zero.  A history whose bordered system is singular
    or gives non-finite coefficients puts its whole weight on its newest
    entry.
    """
    k, slots = used.shape
    scale = np.where(used, gram.diagonal(axis1=1, axis2=2), 0.0).max(axis=1)
    system = np.zeros((k, slots + 1, slots + 1))
    system[:, :slots, :slots] = np.where(used[:, :, None] & used[:, None, :],
                                         gram / scale[:, None, None], np.eye(slots))
    system[:, :slots, slots] = system[:, slots, :slots] = np.where(used, -1.0, 0.0)
    rhs = np.zeros((k, slots + 1, 1))
    rhs[:, slots] = -1.0
    try:
        weights = np.linalg.solve(system, rhs)[:, :slots, 0]
    except np.linalg.LinAlgError:
        # Solved one at a time, so that only the singular systems fall back.
        weights = np.full((k, slots), np.nan)
        for r in range(k):
            try:
                weights[r] = np.linalg.solve(system[r], rhs[r])[:slots, 0]
            except np.linalg.LinAlgError:
                pass
    weights[~np.isfinite(weights).all(axis=1)] = np.eye(slots)[newest]
    return weights


def scf_solve(ham: SecondQuantizedHamiltonian, num_particles: int, *,
              restarts: int = 16, seed: int = 0,
              max_iterations: int = 500) -> SCFResult:
    """Roothaan iteration, a damped start and then Pulay DIIS, from several
    deterministic starting points.

    Restart 0 occupies the lowest orbitals of the one-body part; the others
    are seeded Haar-random frames.  All restarts iterate
    build-diagonalize-occupy in lockstep, one stacked Fock build and one
    stacked eigensolve per iteration.  A restart whose commutator
    ``||FD - DF||_F`` exceeds ``SCF_DIIS_START`` diagonalizes its Fock
    matrix, mixes ``SCF_DAMPING`` of the fresh density into its current one,
    and forgets its DIIS history.  At or below that threshold it stores the
    Fock matrix with the commutator as its error vector, diagonalizes the
    Pulay extrapolation (Chem. Phys. Lett. 73, 393 (1980)) over its last
    ``SCF_DIIS_HISTORY`` stored matrices, and takes the fresh density whole.
    A zero commutator is a stationary point of the restart's own Fock
    matrix: the restart diagonalizes that matrix, takes the fresh density
    whole and empties its history.  A restart leaves the stack once its raw
    density update falls below ``SCF_TOLERANCE`` in Frobenius norm, or,
    unconverged, once two zero-commutator iterations bring its density back
    bit for bit to where it was two iterations earlier: it would repeat
    those two iterations to the end, so it takes the orbitals and residuals
    of the full run at once (restart 0 of an Ising embedding does this from
    its third iteration on).  Every restart's final energy comes from one
    stacked build on the same kernel.  The reported restart is the lowest
    index whose energy lies within ``SCF_ENERGY_TIE`` (relative) of the
    lowest energy; non-convergence is reported, never raised.
    """
    m = ham.num_modes
    if not 1 <= num_particles <= m:
        raise ValidationError(
            f"particle number must lie in [1, {m}], got {num_particles}")
    if restarts < 1:
        raise ValidationError("need at least one restart")
    if max_iterations < 1:
        raise ValidationError("need at least one iteration")
    rng = np.random.default_rng(seed)
    h = ham.one_body
    fock = _fock_builder(ham)
    frames = [eig_hermitian(h).vectors[:, :num_particles]]
    frames += [_haar_orbitals(rng, m, num_particles) for _ in range(1, restarts)]
    orbitals = np.stack(frames)                 # each restart's final frame
    density = orbitals @ orbitals.conj().swapaxes(-2, -1)
    live = np.arange(restarts)                  # restarts still iterating
    residuals = np.empty((max_iterations, restarts))
    iterations = np.full(restarts, max_iterations)
    converged = np.zeros(restarts, dtype=bool)
    slots = SCF_DIIS_HISTORY
    # Each live restart's DIIS history: ring buffers of Fock matrices, their
    # commutators and the commutators' Gram matrix.  An iteration in which
    # any restart stores writes slot ``iteration % slots`` of every history.
    # A restart holds the entries of its last ``stored`` iterations: the
    # slots written fewer than ``stored`` iterations ago.
    focks = np.zeros((restarts, slots, m, m), dtype=complex)
    errors = np.zeros((restarts, slots, m * m), dtype=complex)
    gram = np.zeros((restarts, slots, slots))
    stored = np.zeros(restarts, dtype=np.intp)
    # Each live restart's density, orbitals and zero-commutator flag one
    # iteration back (placeholders before the first iteration).
    earlier, previous, stationary = density, orbitals, np.zeros(restarts, dtype=bool)
    for iteration in range(max_iterations):
        f = fock(density)
        fd = f @ density
        # FD - DF, as DF = (FD)^dagger for Hermitian F and D.
        error = (fd - fd.conj().swapaxes(-2, -1)).reshape(live.size, -1)
        norms = np.sqrt(np.vecdot(error, error).real)
        diis = norms <= SCF_DIIS_START
        # A zero commutator gives nothing to extrapolate along: the restart
        # takes its fresh density whole and stores nothing.
        store = diis & (norms > 0)
        stored = np.where(store, stored + 1, 0)
        if store.any():
            slot = iteration % slots
            focks[:, slot] = f
            errors[:, slot] = error
            gram[:, slot] = gram[:, :, slot] = np.vecdot(errors, error[:, None]).real
            solve = stored > 1
            if solve.any():
                age = (slot - np.arange(slots)) % slots
                weights = _pulay_weights(gram[solve], age < stored[solve, None], slot)
                mixed = weights[:, None, :] @ focks[solve].reshape(-1, slots, m * m)
                mixed = mixed.reshape(-1, m, m)
                # Coefficients can sum to 1e5 in magnitude and amplify each
                # F's rounding-level asymmetry toward the eigensolver's
                # Hermiticity tolerance, so an extrapolation is symmetrized.
                f[solve] = 0.5 * (mixed + mixed.conj().swapaxes(-2, -1))
        u = eig_hermitian(f).vectors[..., :num_particles]
        fresh = u @ u.conj().swapaxes(-2, -1)
        update = fresh - density
        flat = update.reshape(live.size, -1)
        steps = np.sqrt(np.vecdot(flat, flat).real)   # Frobenius norms
        current = density
        density = np.where(diis[:, None, None], fresh, density + SCF_DAMPING * update)
        residuals[iteration, live] = steps
        done = steps <= SCF_TOLERANCE
        # After two zero commutators in a row each next density is a
        # function of the current one alone, so a density back where it was
        # two iterations ago starts a 2-cycle that lasts to the end.
        zero = norms == 0
        cycling = zero & stationary & ~done
        if cycling.any():
            cycling &= (density == earlier).all(axis=(-2, -1))
        if done.any() or cycling.any():
            leaving = live[done]
            orbitals[leaving] = u[done]
            iterations[leaving] = iteration + 1
            converged[leaving] = True
            repeating = live[cycling]
            last = u if (max_iterations - iteration) % 2 else previous
            orbitals[repeating] = last[cycling]
            residuals[iteration + 1:, repeating] = steps[cycling]
            keep = ~(done | cycling)
            live, u, density, current, zero, focks, errors, gram, stored = (
                a[keep]
                for a in (live, u, density, current, zero, focks, errors, gram, stored))
            if not live.size:
                break
        earlier, previous, stationary = current, u, zero
    orbitals[live] = u
    energies = _energies(h, fock, orbitals @ orbitals.conj().swapaxes(-2, -1))
    lowest = energies.min()
    tied = energies <= lowest + SCF_ENERGY_TIE * max(1.0, abs(lowest))
    best = int(np.flatnonzero(tied)[0])
    history = tuple(float(r) for r in residuals[:iterations[best], best])
    return SCFResult(SlaterState(orbitals[best]), float(energies[best]),
                     bool(converged[best]), int(iterations[best]), best, restarts,
                     int(converged.sum()), history)


# ---------------------------------------------------------------------------
# Second-quantized interchange format
# ---------------------------------------------------------------------------


def second_quantized_to_text(ham: SecondQuantizedHamiltonian) -> str:
    """Lines ``1 i j value`` and ``2 i j k l value`` under a mode header.

    The format carries real coefficients only.
    """
    values = ham.two_body_values
    if (np.abs(ham.one_body.imag).max() > NEGLIGIBLE
            or np.abs(values.imag).max(initial=0.0) > NEGLIGIBLE):
        raise ValidationError(
            "the interchange format only accepts real coefficients")
    m = ham.num_modes
    one = ham.one_body.real
    one_modes = np.nonzero(one)
    two = values.real
    nonzero = two != 0
    two_modes = np.unravel_index(ham.two_body_index[nonzero], (m,) * 4)
    lines = [f"modes {m}"]
    # Nonzero entries only, listed in row-major order.
    for kind, modes, coefficients in (("1", one_modes, one[one_modes]),
                                      ("2", two_modes, two[nonzero])):
        for *index, value in zip(*(a.tolist() for a in modes), coefficients.tolist()):
            lines.append(f"{kind} {' '.join(map(str, index))} {value!r}")
    return "\n".join(lines) + "\n"


def _plain_records(lines, num_modes):
    """The one-body matrix and the two-body mode quadruples and values of
    ``lines``, read in bulk, or None.

    Handles records as ``second_quantized_to_text`` writes them: every line
    starts with ``1 `` or ``2 `` and is ``1 i j v`` or ``2 i j k l v`` with
    decimal mode indices in range.  ``np.loadtxt`` parses a float as
    Python's ``float`` does, and repeated records are summed in file order
    (``np.add.at`` here, ``from_entries`` for the two-body part), so the
    Hamiltonian equals the record-by-record reading.
    """
    one = np.zeros((num_modes, num_modes))
    two_modes, two_values = np.empty((0, 4), dtype=np.intp), np.empty(0)
    read = 0
    for kind, order in (("1", 2), ("2", 4)):
        prefix = kind + " "
        rows = [line for line in lines if line.startswith(prefix)]
        if not rows:
            continue
        layout = np.dtype([("kind", "i8"), ("modes", "i8", order), ("value", "f8")])
        try:
            table = np.loadtxt(rows, dtype=layout, ndmin=1)
        except (ValueError, OverflowError):
            return None
        modes = table["modes"]
        if modes.min() < 0 or modes.max() >= num_modes:
            return None
        if order == 2:
            np.add.at(one, tuple(modes.T), table["value"])
        else:
            two_modes, two_values = modes, table["value"]
        read += len(rows)
    return (one, two_modes, two_values) if read == len(lines) else None


def second_quantized_from_text(text: str) -> SecondQuantizedHamiltonian:
    reader = LineReader.from_text(text, "second-quantized document")
    num_modes = reader.field("modes", int)
    if num_modes < 1:
        raise reader.error("need at least one mode")
    records = _plain_records(reader.remaining(), num_modes)
    if records is not None:
        return reader.build(SecondQuantizedHamiltonian.from_entries, *records)
    # Record by record: accepts every spelling ``int`` and ``float`` accept
    # and names the line of a bad record.
    one = np.zeros((num_modes, num_modes))
    two_modes, two_values = [], []
    for line in reader.rest():
        tokens = line.split()
        try:
            if tokens[0] == "1" and len(tokens) == 4:
                indices = (int(tokens[1]), int(tokens[2]))
            elif tokens[0] == "2" and len(tokens) == 6:
                indices = (int(tokens[1]), int(tokens[2]),
                           int(tokens[3]), int(tokens[4]))
            else:
                raise reader.error("expected '1 i j v' or '2 i j k l v'")
            value = float(tokens[-1])
        except ValueError:
            raise reader.error(f"bad record {line!r}") from None
        if min(indices) < 0 or max(indices) >= num_modes:
            raise reader.error(f"mode index outside [0, {num_modes})")
        if len(indices) == 2:
            one[indices] += value
        else:
            two_modes.append(indices)
            two_values.append(value)
    return reader.build(SecondQuantizedHamiltonian.from_entries, one,
                        np.array(two_modes, dtype=np.intp).reshape(-1, 4),
                        np.array(two_values))


# ---------------------------------------------------------------------------
# Ising spin glasses on an L x L x 2 grid
# ---------------------------------------------------------------------------

MAX_GRID_LENGTH = 3
# Least difference |n_2s - n_2s+1| of a site's two mode densities that
# decides its spin: a singly occupied site differs by about 1, a doubly
# occupied or empty one by rounding noise.
DECODE_MARGIN = 1e-6


def grid_index(x: int, y: int, z: int, length: int) -> int:
    return z * length * length + y * length + x


def grid_edges(length: int):
    """All nearest-neighbor pairs (i < j), in deterministic scan order."""
    edges = []
    for z in (0, 1):
        for y in range(length):
            for x in range(length):
                here = grid_index(x, y, z, length)
                if x + 1 < length:
                    edges.append((here, grid_index(x + 1, y, z, length)))
                if y + 1 < length:
                    edges.append((here, grid_index(x, y + 1, z, length)))
                if z == 0:
                    edges.append((here, grid_index(x, y, 1, length)))
    return tuple(tuple(sorted(e)) for e in edges)


class IsingInstance:
    """Couplings in {-1, 0, +1} on the nearest-neighbor bonds of the grid."""

    def __init__(self, length: int, couplings):
        length = int(length)
        if length < 1:
            raise ValidationError("grid length must be positive")
        if length > MAX_GRID_LENGTH:
            raise ResourceLimitError(
                f"grids beyond length {MAX_GRID_LENGTH} exceed exact enumeration")
        allowed = set(grid_edges(length))
        table = {}
        for edge, value in dict(couplings).items():
            i, j = sorted((int(edge[0]), int(edge[1])))
            if (i, j) not in allowed:
                raise ValidationError(
                    f"({i}, {j}) is not a nearest-neighbor bond of the grid")
            if (i, j) in table:
                raise ValidationError(f"bond ({i}, {j}) listed twice")
            value = int(value)
            if value not in (-1, 0, 1):
                raise ValidationError(
                    f"coupling on ({i}, {j}) must be -1, 0, or +1, got {value}")
            table[(i, j)] = value
        self.length = length
        self.couplings = {edge: table.get(edge, 0) for edge in grid_edges(length)}

    @property
    def num_sites(self) -> int:
        return 2 * self.length * self.length

    def nonzero_edges(self):
        return tuple((i, j, v) for (i, j), v in self.couplings.items() if v != 0)

    def __eq__(self, other):
        if not isinstance(other, IsingInstance):
            return NotImplemented
        return self.length == other.length and self.couplings == other.couplings


def random_instance(length: int, seed: int) -> IsingInstance:
    rng = np.random.default_rng(seed)
    edges = grid_edges(length)
    values = rng.integers(-1, 2, size=len(edges))
    return IsingInstance(length, dict(zip(edges, (int(v) for v in values))))


def ising_to_text(instance: IsingInstance) -> str:
    lines = [f"ising {instance.length}"]
    for i, j, value in instance.nonzero_edges():
        lines.append(f"{i} {j} {value}")
    return "\n".join(lines) + "\n"


def ising_from_text(text: str) -> IsingInstance:
    reader = LineReader.from_text(text, "Ising document")
    length = reader.field("ising", int)
    couplings = {}
    for line in reader.rest():
        try:
            i, j, value = line.split()
            i, j, value = int(i), int(j), int(value)
        except ValueError:
            raise reader.error(f"expected 'i j J', got {line!r}") from None
        bond = (min(i, j), max(i, j))
        if bond in couplings:
            raise reader.error(f"bond ({i}, {j}) listed twice")
        couplings[bond] = value
    return reader.build(IsingInstance, length, couplings)


def index_to_spins(index: int, num_sites: int):
    """Configuration from a basis index; bit 0 means spin up (+1), site 0
    is the most significant bit."""
    return tuple(1 - 2 * ((index >> (num_sites - 1 - s)) & 1)
                 for s in range(num_sites))


def classical_energy(instance: IsingInstance, spins) -> float:
    spins = tuple(int(s) for s in spins)
    if len(spins) != instance.num_sites or any(s not in (-1, 1) for s in spins):
        raise ValidationError(
            f"need {instance.num_sites} spins valued +-1, got {spins}")
    return float(sum(v * spins[i] * spins[j]
                     for (i, j), v in instance.couplings.items()))


@dataclass(frozen=True)
class IsingOracle:
    """Exhaustive minimum over all configurations."""

    energy: float
    spins: tuple
    index: int


def ising_oracle(instance: IsingInstance) -> IsingOracle:
    """Enumeration of all 2^sites configuration energies by doubling.

    Sites are appended one at a time as the next low bit of the basis
    index: with ``f`` the field of the bonds from site s to earlier sites,
    each energy ``E`` of the first s sites becomes ``E + f`` (site s up) and
    ``E - f`` (down).  The energies are small integers, so the sums are
    exact.  Ties break toward the lowest basis index, i.e. the configuration
    with the most leading up spins.
    """
    n = instance.num_sites
    earlier = [[] for _ in range(n)]
    for i, j, value in instance.nonzero_edges():
        earlier[j].append((i, value))
    energies = np.zeros(1, dtype=np.int32)
    for s in range(n):
        field = np.zeros_like(energies)
        for i, value in earlier[s]:
            # The middle axis is site i's bit, bit s-1-i of the index so far.
            spin = field.reshape(2 ** i, 2, -1)
            spin[:, 0] += value
            spin[:, 1] -= value
        doubled = np.empty((energies.size, 2), dtype=energies.dtype)
        np.add(energies, field, out=doubled[:, 0])
        np.subtract(energies, field, out=doubled[:, 1])
        energies = doubled.reshape(-1)
    best = int(np.argmin(energies))
    return IsingOracle(float(energies[best]), index_to_spins(best, n), best)


def default_penalty(instance: IsingInstance) -> float:
    return 10.0 * max(1, len(instance.nonzero_edges()))


def embed_ising(instance: IsingInstance, penalty=None) -> SecondQuantizedHamiltonian:
    """Fermionic encoding whose determinants reproduce classical energies.

    Site s maps to modes (2s, 2s+1); occupying the even mode means spin up.
    With one particle per site the on-site penalty contributes nothing and
    the density-density couplings reproduce ``J sigma_i sigma_j`` exactly.
    The penalty must dominate the couplings: at least four per nonzero bond.
    """
    if penalty is None:
        penalty = default_penalty(instance)
    penalty = float(penalty)
    floor = 4.0 * len(instance.nonzero_edges())
    if penalty <= 0 or penalty < floor:
        raise ValidationError(
            f"penalty {penalty} is below the dominance floor {max(floor, 0.0)}")
    m = 2 * instance.num_sites
    modes, values = [], []

    def add_density_pair(p, q, value):
        modes.extend(((p, q, q, p), (q, p, p, q)))
        values.extend((value, value))

    for site in range(instance.num_sites):
        add_density_pair(2 * site, 2 * site + 1, penalty)
    for (i, j), value in instance.couplings.items():
        if value == 0:
            continue
        for a in (0, 1):
            for b in (0, 1):
                add_density_pair(2 * i + a, 2 * j + b, value * (-1) ** (a + b))
    return SecondQuantizedHamiltonian.from_entries(np.zeros((m, m)), modes,
                                                   np.array(values, dtype=float))


def classical_state(instance: IsingInstance, spins) -> SlaterState:
    """The determinant encoding one classical configuration."""
    spins = tuple(int(s) for s in spins)
    if len(spins) != instance.num_sites or any(s not in (-1, 1) for s in spins):
        raise ValidationError(
            f"need {instance.num_sites} spins valued +-1, got {spins}")
    m = 2 * instance.num_sites
    orbitals = np.zeros((m, instance.num_sites))
    for site, spin in enumerate(spins):
        orbitals[2 * site + (0 if spin == 1 else 1), site] = 1.0
    return SlaterState(orbitals)


def decode_spins(instance: IsingInstance, state: SlaterState):
    """Round a determinant's site densities back to classical spins.

    Returns the spins and the number of undecided sites.  Site s decodes by
    its mode densities ``n_2s`` (up) and ``n_2s+1`` (down) when they differ
    by more than ``DECODE_MARGIN``; a doubly occupied or empty site differs
    by rounding noise only, so it is undecided and decodes as +1.
    """
    n = instance.num_sites
    density = np.diag(state.density()).real
    up, down = density[0:2 * n:2], density[1:2 * n:2]
    decided = np.abs(up - down) > DECODE_MARGIN
    spins = np.where(decided & (down > up), -1, 1)
    return tuple(spins.tolist()), int(n - decided.sum())
