"""Pauli-string and fermionic operator cores.

Conventions used throughout the package (changing any of these silently
invalidates every frozen expected value in the test suite):

* Spin site 0 is the most significant tensor factor, so on ``n`` spins the
  basis state with index ``b`` assigns spin ``s`` the bit ``(b >> (n-1-s)) & 1``
  and ``Z`` on site 0 of a 2-spin system realizes ``diag(1, 1, -1, -1)``.
* ``|0>`` is the ``Z = +1`` eigenstate.
* Fermionic mode 0 is the leftmost slot of the occupation bitstring and the
  sector basis is ordered with occupied-leftmost states first (``|10>`` before
  ``|01>``), which makes the singly-occupied block of a spinful lattice line
  up with the spin basis above without any permutation.
* Creation / annihilation signs follow the usual convention
  ``a_m^+ |n> = (-1)**(n_0 + ... + n_{m-1}) |...>``.
* Spin Hamiltonian coefficients are real.  Fermionic coefficients may be
  complex internally (the on-site image of ``Y`` needs them) but the text
  interchange format only accepts real values.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .errors import ParseError, ResourceLimitError, ValidationError

AXES = ("X", "Y", "Z")

PAULI_MATRICES = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    "Y": np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    "Z": np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
}

# Single-site products P*Q -> (phase, R) for P != Q, both non-identity.
_PAULI_PRODUCT = {
    ("X", "Y"): (1.0j, "Z"),
    ("Y", "X"): (-1.0j, "Z"),
    ("Y", "Z"): (1.0j, "X"),
    ("Z", "Y"): (-1.0j, "X"),
    ("Z", "X"): (1.0j, "Y"),
    ("X", "Z"): (-1.0j, "Y"),
}

# Coefficients of magnitude at or below this are treated as zero: dropped
# on canonicalization and normal ordering, and read as a real value's
# rounding residue by the writers that accept real coefficients only.
NEGLIGIBLE = 1e-12

# Dense realizations refuse to build above this many spins unless the
# environment override is set; 2**14 doubles is the intended desk-scale cap.
DENSE_SPIN_LIMIT = 14
_DENSE_LIMIT_ENV = "HAMLOWER_DENSE_LIMIT"


def dense_spin_limit() -> int:
    """Current dense-realization cap in spins (env override included)."""
    raw = os.environ.get(_DENSE_LIMIT_ENV)
    if raw is None:
        return DENSE_SPIN_LIMIT
    try:
        value = int(raw)
    except ValueError as exc:
        raise ValidationError(f"{_DENSE_LIMIT_ENV} must be an integer, got {raw!r}") from exc
    if value < 1:
        raise ValidationError(f"{_DENSE_LIMIT_ENV} must be positive, got {value}")
    return value


def pauli_product(left: str, right: str):
    """Single-site product ``left * right`` as ``(phase, axis)``.

    ``axis`` is ``"I"`` when the product is proportional to the identity.
    """
    if left == "I":
        return 1.0 + 0.0j, right
    if right == "I":
        return 1.0 + 0.0j, left
    if left == right:
        return 1.0 + 0.0j, "I"
    return _PAULI_PRODUCT[(left, right)]


def multiply_factor_tuples(left, right):
    """Product of two Pauli factor tuples, each ``((site, axis), ...)``.

    Returns ``(phase, factors)`` with factors site-sorted and identity sites
    dropped.  Inputs must individually be site-sorted and duplicate free.
    """
    phase = 1.0 + 0.0j
    merged = {}
    for site, axis in left:
        merged[site] = axis
    for site, axis in right:
        if site in merged:
            p, ax = pauli_product(merged[site], axis)
            phase *= p
            if ax == "I":
                del merged[site]
            else:
                merged[site] = ax
        else:
            merged[site] = axis
    return phase, tuple(sorted(merged.items()))


@dataclass(frozen=True)
class PauliTerm:
    """One real-weighted Pauli string, e.g. ``0.5 * X@1 Z@4``.

    ``factors`` is a site-sorted tuple of ``(site, axis)`` pairs with no
    repeated sites; an empty tuple denotes a multiple of the identity.
    """

    coefficient: float
    factors: tuple = ()

    def __post_init__(self):
        if isinstance(self.coefficient, complex):
            raise ValidationError("PauliTerm coefficients must be real")
        c = float(self.coefficient)
        if not math.isfinite(c):
            raise ValidationError(f"non-finite coefficient {self.coefficient!r}")
        object.__setattr__(self, "coefficient", c)
        factors = tuple((int(s), str(a)) for s, a in self.factors)
        seen = set()
        for site, axis in factors:
            if site < 0:
                raise ValidationError(f"negative site index {site}")
            if axis not in AXES:
                raise ValidationError(f"unknown Pauli axis {axis!r}")
            if site in seen:
                raise ValidationError(f"duplicate site {site} in term")
            seen.add(site)
        object.__setattr__(self, "factors", tuple(sorted(factors)))

    @classmethod
    def prevalidated(cls, coefficient, factors: tuple) -> "PauliTerm":
        """A term on ``factors`` that are already a valid, site-sorted tuple.

        For factors taken from validated terms or gadgets; only the new
        coefficient is checked (it must be finite).
        """
        c = float(coefficient)
        if not math.isfinite(c):
            raise ValidationError(f"non-finite coefficient {coefficient!r}")
        term = object.__new__(cls)
        object.__setattr__(term, "coefficient", c)
        object.__setattr__(term, "factors", factors)
        return term

    @property
    def weight(self) -> int:
        """Number of non-identity tensor factors (locality of the string)."""
        return len(self.factors)

    def max_site(self) -> int:
        return self.factors[-1][0] if self.factors else -1

    def scaled(self, factor: float) -> "PauliTerm":
        return PauliTerm.prevalidated(self.coefficient * factor, self.factors)


class SpinHamiltonian:
    """Real linear combination of Pauli strings on ``num_spins`` spins.

    ``canonicalize`` marks its result canonical, so canonicalizing it again
    (as ``spin_to_text`` and ``==`` do) returns it unchanged.
    """

    def __init__(self, num_spins: int, terms=()):
        num_spins = int(num_spins)
        if num_spins < 1:
            raise ValidationError("num_spins must be at least 1")
        terms = tuple(t if isinstance(t, PauliTerm) else PauliTerm(*t) for t in terms)
        for t in terms:
            if t.max_site() >= num_spins:
                raise ValidationError(
                    f"term touches site {t.max_site()} but system has {num_spins} spins")
        self.num_spins = num_spins
        self.terms = terms
        self._canonical = False

    def canonicalize(self) -> "SpinHamiltonian":
        """Merge duplicate strings, drop tiny ones, sort deterministically.

        A string that occurs once keeps its term object.
        """
        if self._canonical:
            return self
        merged = {}
        for t in self.terms:
            seen = merged.get(t.factors)
            merged[t.factors] = t if seen is None else PauliTerm.prevalidated(
                seen.coefficient + t.coefficient, t.factors)
        kept = [t for t in merged.values() if abs(t.coefficient) > NEGLIGIBLE]
        kept.sort(key=lambda t: (len(t.factors), t.factors))
        # Kept terms come from this Hamiltonian, so they fit its spins.
        out = object.__new__(SpinHamiltonian)
        out.num_spins, out.terms, out._canonical = self.num_spins, tuple(kept), True
        return out

    def __add__(self, other: "SpinHamiltonian") -> "SpinHamiltonian":
        if not isinstance(other, SpinHamiltonian):
            return NotImplemented
        n = max(self.num_spins, other.num_spins)
        return SpinHamiltonian(n, self.terms + other.terms).canonicalize()

    def scaled(self, factor: float) -> "SpinHamiltonian":
        return SpinHamiltonian(self.num_spins, [t.scaled(factor) for t in self.terms])

    def constant(self) -> float:
        """Sum of identity-term coefficients."""
        return sum(t.coefficient for t in self.terms if not t.factors)

    def max_locality(self) -> int:
        return max((t.weight for t in self.terms), default=0)

    def __eq__(self, other):
        if not isinstance(other, SpinHamiltonian):
            return NotImplemented
        a, b = self.canonicalize(), other.canonicalize()
        return a.num_spins == b.num_spins and a.terms == b.terms

    def __repr__(self):
        return f"SpinHamiltonian(num_spins={self.num_spins}, terms={len(self.terms)})"


def _term_action(term: PauliTerm, num_spins: int, cols: np.ndarray):
    """Where one Pauli string sends each basis column, and with what weight.

    Column ``c`` maps to row ``rows[c]`` with amplitude ``phase[c]``; ``cols``
    is ``arange(2**num_spins)`` as uint64.
    """
    flip = 0
    phase_bits = 0
    n_y = 0
    for site, axis in term.factors:
        bit = 1 << (num_spins - 1 - site)
        if axis in ("X", "Y"):
            flip |= bit
        if axis in ("Y", "Z"):
            phase_bits |= bit
        if axis == "Y":
            n_y += 1
    rows = cols ^ np.uint64(flip)
    par = np.bitwise_count(cols & np.uint64(phase_bits)).astype(np.int64)
    phase = term.coefficient * (1.0j ** n_y) * np.where(par & 1, -1.0, 1.0)
    return rows, phase


def realize_spin(h: SpinHamiltonian, num_spins=None) -> np.ndarray:
    """Dense complex matrix of ``h`` with spin 0 as the leading tensor factor.

    Refuses systems above the dense limit (see ``dense_spin_limit``) with
    ``ResourceLimitError``.
    """
    n = h.num_spins if num_spins is None else int(num_spins)
    if n < h.num_spins:
        raise ValidationError("num_spins smaller than the Hamiltonian support")
    limit = dense_spin_limit()
    if n > limit:
        raise ResourceLimitError(
            f"dense realization of {n} spins exceeds the {limit}-spin limit "
            f"(set {_DENSE_LIMIT_ENV} to override)")
    dim = 1 << n
    out = np.zeros((dim, dim), dtype=complex)
    cols = np.arange(dim, dtype=np.uint64)
    for term in h.terms:
        rows, phase = _term_action(term, n, cols)
        out[rows, cols] += phase
    return out


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues (ascending) and matching eigenvector columns.

    For a stack of matrices both fields carry the stack's leading axes.
    """

    values: np.ndarray
    vectors: np.ndarray


def _checked_hermitian(matrix) -> np.ndarray:
    """``matrix`` as an array, after checking it is square and Hermitian.

    A stack ``(..., m, m)`` is checked matrix by matrix, each against its
    own largest entry, in one pass over the whole stack.
    """
    matrix = np.asarray(matrix)
    if matrix.ndim < 2 or matrix.shape[-2] != matrix.shape[-1]:
        raise ValidationError(f"expected a square matrix, got shape {matrix.shape}")
    axes = (-2, -1)
    scale = np.abs(matrix).max(axis=axes)
    # An inf entry facing a finite mirror leaves an inf difference that an
    # inf scale would excuse, so finiteness is checked on its own.
    if not np.isfinite(scale).all():
        raise ValidationError("matrix has non-finite entries")
    diff = np.abs(matrix - matrix.conj().swapaxes(-2, -1)).max(axis=axes)
    if not (diff <= 1e-10 * np.maximum(1.0, scale)).all():
        raise ValidationError("matrix is not Hermitian within tolerance")
    return matrix


def eig_hermitian(matrix: np.ndarray) -> Spectrum:
    """Full eigendecomposition of a matrix or a stack of matrices, with an
    explicit Hermiticity check."""
    values, vectors = np.linalg.eigh(_checked_hermitian(matrix))
    return Spectrum(values, vectors)


def eig_values(matrix: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues only, with the same Hermiticity check."""
    return np.linalg.eigvalsh(_checked_hermitian(matrix))


def component_eig_values(matrix: np.ndarray) -> np.ndarray:
    """``eig_values`` of one matrix, solved per connected component.

    After the same whole-matrix check, the indices are labelled by the
    connected components of the symmetrized nonzero pattern, and each
    component's principal block is solved on its own; blocks of one size
    share one stacked solve.  Each block keeps its indices in ascending
    order, so it reads the same lower triangle that a whole solve reads.
    The merged values agree with ``eig_values`` to rounding, not bit for bit.
    """
    matrix = _checked_hermitian(matrix)
    if matrix.ndim != 2:
        raise ValidationError(f"expected one matrix, got shape {matrix.shape}")
    pattern = matrix != 0
    pattern |= pattern.T
    np.fill_diagonal(pattern, True)
    # nonzero() lists entries row by row, so each row's neighbours form one
    # contiguous run; the diagonal makes every run nonempty.
    rows, cols = np.nonzero(pattern)
    starts = np.searchsorted(rows, np.arange(matrix.shape[0]))
    # Every index points at the smallest index reached so far in its
    # component: hook to the smallest neighbour label, then jump pointers.
    labels = np.arange(matrix.shape[0])
    while True:
        hooked = np.minimum.reduceat(labels[cols], starts)
        hooked = hooked[hooked]
        if np.array_equal(hooked, labels):
            break
        labels = hooked
    order = np.argsort(labels, kind="stable")
    _, offsets, sizes = np.unique(labels[order], return_index=True,
                                  return_counts=True)
    values = []
    for size in np.unique(sizes):
        idx = order[offsets[sizes == size, None] + np.arange(size)]
        values.append(np.linalg.eigvalsh(
            matrix[idx[:, :, None], idx[:, None, :]]).ravel())
    return np.sort(np.concatenate(values))


def spin_components(h: SpinHamiltonian):
    """Connected components of the interaction graph of ``h``.

    Two sites are connected when a term acts on both.  Returns ascending
    site lists ordered by their lowest site; a site no term touches forms a
    component of its own.
    """
    parent = list(range(h.num_spins))

    def root(site):
        while parent[site] != site:
            parent[site] = parent[parent[site]]
            site = parent[site]
        return site

    for t in h.terms:
        sites = [s for s, _ in t.factors]
        for site in sites[1:]:
            parent[root(site)] = root(sites[0])
    groups = {}
    for site in range(h.num_spins):
        groups.setdefault(root(site), []).append(site)
    return list(groups.values())


def low_spectrum(h: SpinHamiltonian, k: int) -> np.ndarray:
    """Lowest ``min(k, 2**num_spins)`` eigenvalues of ``h``, ascending.

    ``h`` is split into the connected components of its interaction graph
    (``spin_components``), which act on separate tensor factors.  Each
    component is relabelled onto its own sites and solved alone, by
    values-only dense diagonalization, for its lowest ``k`` eigenvalues; a
    component above the dense limit raises ``ResourceLimitError``.  The
    spectra are merged as a Kronecker sum, keeping the lowest ``k`` at each
    step, and the constant is added once.
    """
    components = spin_components(h)
    local = {}
    for index, sites in enumerate(components):
        for position, site in enumerate(sites):
            local[site] = (index, position)
    blocks = [[] for _ in components]
    for t in h.terms:
        if t.factors:
            index = local[t.factors[0][0]][0]
            # Positions keep the site order, so the factors stay sorted.
            blocks[index].append(PauliTerm.prevalidated(
                t.coefficient, tuple((local[s][1], a) for s, a in t.factors)))
    low = np.zeros(1)
    for sites, terms in zip(components, blocks):
        vals = eig_values(realize_spin(SpinHamiltonian(len(sites), terms)))[:k]
        low = np.sort(np.add.outer(low, vals).ravel())[:k]
    return low + h.constant()


# ---------------------------------------------------------------------------
# Fermions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FermionOperator:
    """Linear combination of creation/annihilation monomials.

    ``terms`` is a tuple of ``(coefficient, monomial)`` where the monomial is
    a tuple of ``(mode, dagger)`` pairs in left-to-right operator order.  Use
    ``normal_order`` to bring every monomial to the canonical form with all
    creations left of all annihilations and mode indices ascending inside
    each group.
    """

    num_modes: int
    terms: tuple = ()

    def __post_init__(self):
        if self.num_modes < 1:
            raise ValidationError("num_modes must be at least 1")
        cleaned = []
        for coeff, mono in self.terms:
            coeff = complex(coeff)
            if not (math.isfinite(coeff.real) and math.isfinite(coeff.imag)):
                raise ValidationError("non-finite fermionic coefficient")
            mono = tuple((int(m), bool(d)) for m, d in mono)
            for mode, _ in mono:
                if not 0 <= mode < self.num_modes:
                    raise ValidationError(
                        f"mode {mode} outside [0, {self.num_modes})")
            cleaned.append((coeff, mono))
        object.__setattr__(self, "terms", tuple(cleaned))

    def dagger(self) -> "FermionOperator":
        terms = []
        for coeff, mono in self.terms:
            terms.append((coeff.conjugate(),
                          tuple((m, not d) for m, d in reversed(mono))))
        return FermionOperator(self.num_modes, terms)

    def __add__(self, other: "FermionOperator") -> "FermionOperator":
        if not isinstance(other, FermionOperator):
            return NotImplemented
        n = max(self.num_modes, other.num_modes)
        return FermionOperator(n, self.terms + other.terms)

    def __mul__(self, other):
        if isinstance(other, FermionOperator):
            n = max(self.num_modes, other.num_modes)
            terms = [(c1 * c2, m1 + m2)
                     for c1, m1 in self.terms for c2, m2 in other.terms]
            return FermionOperator(n, terms)
        return FermionOperator(self.num_modes,
                               [(c * other, m) for c, m in self.terms])

    __rmul__ = __mul__

    def scaled(self, factor) -> "FermionOperator":
        return self * factor

    def normal_order(self) -> "FermionOperator":
        """Canonical normal-ordered form with anticommutator bookkeeping.

        Swapping two fermionic operators flips the sign; swapping ``a_m`` past
        ``a_m^+`` additionally produces the contracted monomial from
        ``a a^+ = 1 - a^+ a``.  Monomials with a repeated creation (or
        annihilation) vanish, and so do merged coefficients of magnitude at
        most ``NEGLIGIBLE``.
        """
        acc = {}
        stack = [(coeff, mono) for coeff, mono in self.terms]
        while stack:
            coeff, mono = stack.pop()
            if coeff == 0:
                continue
            for i in range(len(mono) - 1):
                (m1, d1), (m2, d2) = mono[i], mono[i + 1]
                if (not d1) and d2:
                    head, tail = mono[:i], mono[i + 2:]
                    if m1 == m2:
                        stack.append((coeff, head + tail))
                    stack.append((-coeff, head + ((m2, d2), (m1, d1)) + tail))
                    break
                if d1 == d2:
                    if m1 == m2:
                        break  # nilpotent pair, term vanishes
                    if m1 > m2:
                        head, tail = mono[:i], mono[i + 2:]
                        stack.append((-coeff, head + ((m2, d2), (m1, d1)) + tail))
                        break
            else:
                acc[mono] = acc.get(mono, 0.0) + coeff
                continue
        terms = [(c, m) for m, c in acc.items() if abs(c) > NEGLIGIBLE]
        terms.sort(key=lambda t: (len(t[1]), t[1]))
        return FermionOperator(self.num_modes, terms)

    def __repr__(self):
        return f"FermionOperator(num_modes={self.num_modes}, terms={len(self.terms)})"


class FockSector:
    """Fixed-particle-number block of the Fock space.

    Basis states are occupation bitstrings with mode 0 leftmost, ordered with
    occupied-leftmost states first; internally a state is an integer whose
    bit ``num_modes - 1 - m`` holds the occupation of mode ``m``.
    """

    def __init__(self, num_modes: int, num_particles: int):
        if num_modes < 1:
            raise ValidationError("num_modes must be at least 1")
        if not 0 <= num_particles <= num_modes:
            raise ValidationError(
                f"num_particles {num_particles} outside [0, {num_modes}]")
        self.num_modes = num_modes
        self.num_particles = num_particles
        states = []
        for occ in combinations(range(num_modes), num_particles):
            state = 0
            for m in occ:
                state |= 1 << (num_modes - 1 - m)
            states.append(state)
        states.sort(reverse=True)
        self.states = tuple(states)
        self.index = {s: i for i, s in enumerate(states)}

    @property
    def dimension(self) -> int:
        return len(self.states)

    def occupations(self, state: int):
        """Occupation tuple ``(n_0, ..., n_{M-1})`` for a basis integer."""
        n = self.num_modes
        return tuple((state >> (n - 1 - m)) & 1 for m in range(n))

    def state_label(self, state: int) -> str:
        return "".join(str(b) for b in self.occupations(state))


def realize_fermion(op: FermionOperator, sector: FockSector) -> np.ndarray:
    """Matrix of ``op`` on the sector basis (complex; Hermitian iff op is).

    Each monomial acts on every sector state at once: operators apply right
    to left, a creation on an occupied mode or an annihilation on an empty
    one drops the state, each step's sign is the parity of the occupied
    modes to its left, and a result outside the sector is dropped.
    """
    if op.num_modes > sector.num_modes:
        raise ValidationError(
            f"operator on {op.num_modes} modes, sector has {sector.num_modes}")
    dim = sector.dimension
    num_modes = sector.num_modes
    out = np.zeros((dim, dim), dtype=complex)
    cols = np.arange(dim)
    states = np.array(sector.states, dtype=np.int64)
    # sector.states is descending; searchsorted needs it ascending
    ascending = states[::-1]
    for coeff, mono in op.terms:
        if not mono:
            out[np.diag_indices(dim)] += coeff
            continue
        state = states.copy()
        alive = np.ones(dim, dtype=bool)
        odd = np.zeros(dim, dtype=np.uint8)
        for mode, dagger in reversed(mono):
            pos = num_modes - 1 - mode
            occupied = (state >> pos) & 1
            alive &= occupied == (0 if dagger else 1)
            odd ^= np.bitwise_count(state >> (pos + 1))
            state ^= 1 << pos
        found = np.minimum(np.searchsorted(ascending, state), dim - 1)
        alive &= ascending[found] == state
        rows = dim - 1 - found[alive]
        out[rows, cols[alive]] += coeff * np.where(odd[alive] & 1, -1.0, 1.0)
    return out


def excitation_table(sector: FockSector):
    """Every nonzero single excitation ``E_pq = a+_p a_q`` of every sector state.

    Returns ``(pairs, targets, signs)``, each of shape ``(dim, P)``: under
    ``E_pq`` with ``p * num_modes + q == pairs[s, x]``, state ``s`` goes to
    ``signs[s, x]`` times state ``targets[s, x]``.  Every state has the same
    ``P = n (M - n + 1)`` excitations for ``n`` particles on ``M`` modes:
    ``n_q`` for each occupied ``q`` and a hop from each occupied ``q`` to
    each empty ``p``.  Masks and signs follow ``realize_fermion``.
    """
    m = sector.num_modes
    dim = sector.dimension
    states = np.array(sector.states, dtype=np.int64)[:, None, None]
    q_bit = m - 1 - np.arange(m)            # (q,) bit of mode q
    p_bit = q_bit[:, None]                  # (p, 1)
    # a_q first, then a+_p, each signed by the occupied modes to its left
    alive = ((states >> q_bit) & 1) == 1
    odd = np.bitwise_count(states >> (q_bit + 1))
    state = states ^ (1 << q_bit)
    alive = alive & (((state >> p_bit) & 1) == 0)
    odd = odd + np.bitwise_count(state >> (p_bit + 1))
    state = state | (1 << p_bit)
    source, pq = np.nonzero(alive.reshape(dim, m * m))
    # sector.states is descending; searchsorted needs it ascending, and the
    # excitations conserve particle number, so every target is in the sector
    found = np.searchsorted(states[::-1, 0, 0], state.reshape(dim, -1)[source, pq])
    signs = np.where(odd.reshape(dim, -1)[source, pq] & 1, -1.0, 1.0)
    return pq.reshape(dim, -1), (dim - 1 - found).reshape(dim, -1), signs.reshape(dim, -1)


def default_site_modes(site: int):
    """Spinful lattice convention: site i holds modes (2i up, 2i+1 down)."""
    return 2 * site, 2 * site + 1


# Single-site Pauli images as on-site bilinears sum_{ss'} P_{ss'} a+_{is} a_{is'}
# with the spin-up mode listed first.
_BILINEAR = {
    "X": (((0, 1), 1.0 + 0.0j), ((1, 0), 1.0 + 0.0j)),
    "Y": (((0, 1), -1.0j), ((1, 0), 1.0j)),
    "Z": (((0, 0), 1.0 + 0.0j), ((1, 1), -1.0 - 0.0j)),
}


def jordan_map_spin_to_fermion(term: PauliTerm, num_sites: int) -> FermionOperator:
    """On-site quadratic image of a Pauli string for spinful fermions.

    Each single-site Pauli ``P_i`` becomes ``sum_{ss'} P_{ss'} a+_{is} a_{is'}``
    on the site's (up, down) mode pair; multi-site strings are products of
    the per-site bilinears, expanded and normal ordered.  On the
    singly-occupied subspace this reproduces the spin matrix exactly.
    """
    num_modes = 2 * num_sites
    out = FermionOperator(num_modes, [(term.coefficient, ())])
    for site, axis in term.factors:
        if site >= num_sites:
            raise ValidationError(f"site {site} outside the {num_sites}-site lattice")
        modes = default_site_modes(site)
        bilinear = FermionOperator(
            num_modes,
            [(c, ((modes[s1], True), (modes[s2], False)))
             for (s1, s2), c in _BILINEAR[axis]])
        out = out * bilinear
    return out.normal_order()


def singly_occupied_projector(sector: FockSector, num_sites: int) -> np.ndarray:
    """Columns spanning the one-particle-per-site block, in spin basis order.

    Sector ordering makes the singly-occupied states appear in the same
    relative order as the corresponding spin basis (up = |0>), so the columns
    can be filled by a single ordered scan.
    """
    cols = []
    for state in sector.states:
        occ = sector.occupations(state)
        good = all(occ[up] + occ[down] == 1
                   for up, down in map(default_site_modes, range(num_sites)))
        if good:
            cols.append(sector.index[state])
    if len(cols) != 2 ** num_sites:
        raise ValidationError(
            f"expected {2 ** num_sites} singly-occupied states, found {len(cols)}")
    proj = np.zeros((sector.dimension, len(cols)))
    for k, i in enumerate(cols):
        proj[i, k] = 1.0
    return proj


# ---------------------------------------------------------------------------
# Text interchange formats
# ---------------------------------------------------------------------------


class LineReader:
    """The comment-stripped, non-blank records of one text document.

    Every interchange format reads through this class, so all of them share
    one rule: ``#`` starts a comment that runs to the end of its line, and
    blank lines are skipped.  Records are read in order; ``error`` names the
    document line of the record read last, also inside a ``section``.
    Record loops convert tokens directly and call ``error`` only on failure.
    """

    def __init__(self, records, kind: str):
        self._records = records     # [(lineno, line)], line without comment
        self._pos = 0
        self._kind = kind

    @classmethod
    def from_text(cls, text: str, kind: str) -> "LineReader":
        records = []
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if line:
                records.append((lineno, line))
        return cls(records, kind)

    @property
    def at_end(self) -> bool:
        return self._pos >= len(self._records)

    def error(self, message: str) -> ParseError:
        """A ParseError naming the line of the record read last."""
        return ParseError(f"line {self._records[self._pos - 1][0]}: {message}")

    def _next(self) -> str:
        if self.at_end:
            raise ParseError(f"unexpected end of {self._kind}")
        self._pos += 1
        return self._records[self._pos - 1][1]

    def _until(self, stop: int):
        records = self._records
        while self._pos < stop:
            self._pos += 1
            yield records[self._pos - 1][1]

    def expect(self, line: str) -> None:
        """Read a bare header line."""
        if self._next() != line:
            raise self.error(f"expected {line!r}")

    def field(self, key: str, cast):
        """Read a ``key value`` line and return ``cast(value)``."""
        tokens = self._next().split()
        if len(tokens) != 2 or tokens[0] != key:
            raise self.error(f"expected '{key} <value>'")
        try:
            return cast(tokens[1])
        except ValueError:
            raise self.error(f"bad {key} value {tokens[1]!r}") from None

    def counted(self, key: str):
        """Read ``key <count>``; iterate over the next ``count`` lines."""
        count = self.field(key, int)
        if count < 0:
            raise self.error(f"bad {key} value {count}")
        stop = self._pos + count
        if stop > len(self._records):
            raise ParseError(f"unexpected end of {self._kind}")
        return self._until(stop)

    def section(self, key: str) -> "LineReader":
        """Read a bare ``key`` line; return a reader over the lines up to ``end``."""
        self.expect(key)
        start = self._pos
        while self._next() != "end":
            pass
        return LineReader(self._records[start:self._pos - 1], f"{key!r} section")

    def rest(self):
        """Iterate over the remaining lines."""
        return self._until(len(self._records))

    def remaining(self) -> list:
        """The remaining lines, without reading them."""
        return [line for _, line in self._records[self._pos:]]

    def done(self) -> None:
        """Reject any content left after the last expected record."""
        if not self.at_end:
            self._pos += 1
            raise self.error(f"unexpected trailing content in {self._kind}")

    def build(self, make, *args):
        """Return ``make(*args)``, reporting a ValidationError as a ParseError."""
        try:
            return make(*args)
        except ValidationError as exc:
            raise ParseError(f"bad {self._kind}: {exc}") from None


def spin_to_text(h: SpinHamiltonian) -> str:
    """Serialize in the line format ``coeff axis@site axis@site ...``."""
    h = h.canonicalize()
    lines = [f"spins {h.num_spins}"]
    for t in h.terms:
        parts = [repr(t.coefficient)]
        parts.extend(f"{axis}@{site}" for site, axis in t.factors)
        lines.append(" ".join(parts))
    return "\n".join(lines) + "\n"


def _read_spin(reader: LineReader) -> SpinHamiltonian:
    num_spins = reader.field("spins", int)
    terms = []
    for line in reader.rest():
        tokens = line.split()
        try:
            factors = []
            for tok in tokens[1:]:
                axis, site = tok.split("@")
                factors.append((int(site), axis))
            terms.append(PauliTerm(float(tokens[0]), factors))
        except (ValueError, ValidationError) as exc:
            raise reader.error(f"bad term {line!r}: {exc}") from None
    return reader.build(reader.build(SpinHamiltonian, num_spins, terms).canonicalize)


def spin_from_text(text: str) -> SpinHamiltonian:
    return _read_spin(LineReader.from_text(text, "spin document"))


def fermion_to_text(op: FermionOperator) -> str:
    """Serialize in the line format ``coeff +i -j ...`` (real coefficients)."""
    lines = [f"modes {op.num_modes}"]
    for coeff, mono in op.terms:
        if abs(coeff.imag) > NEGLIGIBLE:
            raise ValidationError(
                "the fermionic interchange format only accepts real coefficients")
        parts = [repr(coeff.real)]
        parts.extend(("+" if d else "-") + str(m) for m, d in mono)
        lines.append(" ".join(parts))
    return "\n".join(lines) + "\n"


def _read_fermion(reader: LineReader) -> FermionOperator:
    num_modes = reader.field("modes", int)
    terms = []
    for line in reader.rest():
        tokens = line.split()
        try:
            mono = []
            for tok in tokens[1:]:
                if tok[0] not in "+-":
                    raise ValueError(tok)
                mono.append((int(tok[1:]), tok[0] == "+"))
            terms.append((float(tokens[0]), tuple(mono)))
        except ValueError:
            raise reader.error(f"bad term {line!r}") from None
    return reader.build(FermionOperator, num_modes, terms)

