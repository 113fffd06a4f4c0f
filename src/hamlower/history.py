"""History-state Hamiltonians on a unary domain-wall clock.

A short circuit of 1- and 2-spin gates becomes a Feynman-Kitaev propagation
Hamiltonian: a dense matrix on the computation (x) legal-clock space,
certified by exact diagonalization against the circuit's history state.  It
is not a ``SpinHamiltonian``, and ``gadgets.compile`` cannot take it as a
source.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .operators import Spectrum, eig_hermitian


@dataclass(frozen=True)
class HistorySpec:
    """A short circuit to encode: gates in order, each with its target spins."""

    num_computation_spins: int
    gates: tuple

    def __post_init__(self):
        n = self.num_computation_spins
        if not 1 <= n <= 3:
            raise ValidationError("computation register must have 1 to 3 spins")
        gates = []
        for matrix, sites in self.gates:
            matrix = np.asarray(matrix, dtype=complex)
            sites = tuple(int(s) for s in sites)
            if not 1 <= len(sites) <= 2 or len(set(sites)) != len(sites):
                raise ValidationError("each gate acts on 1 or 2 distinct spins")
            if any(not 0 <= s < n for s in sites):
                raise ValidationError(f"gate sites {sites} outside the register")
            dim = 2 ** len(sites)
            if matrix.shape != (dim, dim):
                raise ValidationError(
                    f"gate on {len(sites)} spins needs shape {(dim, dim)}, "
                    f"got {matrix.shape}")
            # Negated so that a NaN entry fails the test as well.
            if not np.abs(matrix @ matrix.conj().T - np.eye(dim)).max() <= 1e-12:
                raise ValidationError("gate is not unitary to 1e-12")
            gates.append((matrix, sites))
        if not 1 <= len(gates) <= 8:
            raise ValidationError("circuit must contain 1 to 8 gates")
        object.__setattr__(self, "gates", tuple(gates))

    @property
    def num_steps(self) -> int:
        return len(self.gates)


def embed_gate(matrix, sites, num_spins) -> np.ndarray:
    """Unitary on the full register from a 1- or 2-spin gate.

    ``sites[0]`` is the gate's leading tensor factor.  The gate tensored
    with the identity on the other spins has its row and column axes in
    the order ``sites + rest``; permuting them to site order embeds it.
    """
    matrix = np.asarray(matrix, dtype=complex)
    rest = [s for s in range(num_spins) if s not in sites]
    op = np.kron(matrix, np.eye(2 ** len(rest)))
    axes = np.argsort(list(sites) + rest)
    op = op.reshape((2,) * (2 * num_spins))
    dim = 2 ** num_spins
    return op.transpose([*axes, *(axes + num_spins)]).reshape(dim, dim)


@dataclass(frozen=True)
class HistoryResult:
    """Clock Hamiltonian on computation (x) legal-clock space, plus checks."""

    hamiltonian: np.ndarray
    history_state: np.ndarray
    spectrum: Spectrum
    ground_energy: float
    ground_degeneracy: int
    history_energy: float
    ground_overlap: float

    @property
    def certified(self) -> bool:
        return (self.history_energy - self.ground_energy <= 1e-10
                and self.ground_overlap >= 1 - 1e-10)


def history_state(spec: HistorySpec, psi0=None) -> np.ndarray:
    """Normalized equal superposition of the partially executed circuit."""
    n = spec.num_computation_spins
    dim = 2 ** n
    if psi0 is None:
        psi = np.zeros(dim, dtype=complex)
        psi[0] = 1.0
    else:
        psi = np.asarray(psi0, dtype=complex)
        if psi.shape != (dim,):
            raise ValidationError(f"initial state must have dimension {dim}")
        if not np.isfinite(psi).all():
            raise ValidationError("initial state has non-finite entries")
        norm = np.linalg.norm(psi)
        if norm < 1e-12:
            raise ValidationError("initial state has zero norm")
        psi = psi / norm
    steps = spec.num_steps
    out = np.zeros(dim * (steps + 1), dtype=complex)
    current = psi
    for t in range(steps + 1):
        if t > 0:
            matrix, sites = spec.gates[t - 1]
            current = embed_gate(matrix, sites, n) @ current
        clock = np.zeros(steps + 1)
        clock[t] = 1.0
        out += np.kron(current, clock)
    return out / math.sqrt(steps + 1)


def build_history_hamiltonian(spec: HistorySpec, *, initial_projector=None,
                              final_projector=None, penalty=1.0) -> HistoryResult:
    """Propagation Hamiltonian on the legal clock subspace, with certificate.

    The propagation term for step t is
    (|t><t| + |t-1><t-1|)/2 (x) I - (U_t (x) |t><t-1| + h.c.)/2, acting on
    computation (x) (T+1)-dimensional legal clock space.  Optional penalty
    projectors restrict the t = 0 and t = T computation states to the ranges
    of the given projectors.  The certificate checks the history state of
    the all-zero input.
    """
    n = spec.num_computation_spins
    dim = 2 ** n
    steps = spec.num_steps
    cdim = steps + 1
    ham = np.zeros((dim * cdim, dim * cdim), dtype=complex)
    eye = np.eye(dim)
    for t in range(1, steps + 1):
        u_t = embed_gate(*spec.gates[t - 1], n)
        proj = np.zeros((cdim, cdim))
        proj[t, t] = proj[t - 1, t - 1] = 0.5
        hop = np.zeros((cdim, cdim))
        hop[t, t - 1] = 1.0
        ham += np.kron(eye, proj)
        ham -= 0.5 * (np.kron(u_t, hop) + np.kron(u_t.conj().T, hop.T))
    for projector, t_slot in ((initial_projector, 0), (final_projector, steps)):
        if projector is None:
            continue
        projector = np.asarray(projector, dtype=complex)
        if projector.shape != (dim, dim):
            raise ValidationError(f"penalty projector must be {dim}x{dim}")
        if not np.abs(projector @ projector - projector).max() <= 1e-10:
            raise ValidationError("penalty projector is not idempotent")
        clock = np.zeros((cdim, cdim))
        clock[t_slot, t_slot] = 1.0
        ham += penalty * np.kron(eye - projector, clock)
    spectrum = eig_hermitian(ham)
    state = history_state(spec)
    ground = float(spectrum.values[0])
    scale = max(1.0, float(np.abs(spectrum.values).max()))
    ground_mask = spectrum.values <= ground + 1e-9 * scale
    degeneracy = int(ground_mask.sum())
    energy = float((state.conj() @ ham @ state).real)
    ground_vecs = spectrum.vectors[:, ground_mask]
    overlap = float(np.linalg.norm(ground_vecs.conj().T @ state) ** 2)
    return HistoryResult(ham, state, spectrum, ground, degeneracy, energy, overlap)
