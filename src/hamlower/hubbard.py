"""Spinful Fermi-Hubbard lattices and their strong-coupling spin physics.

A model is a graph of sites with hopping ``-t`` on each undirected edge for
both spin species, on-site repulsion ``U n_up n_down``, and optional Zeeman
fields ``b . sigma`` (Pauli normalization).  At half filling and large U the
low sector is the singly-occupied subspace, where second-order virtual
hopping produces the exchange interaction

    (t**2 / U) * (sigma_i . sigma_j - I)   per edge,

an antiferromagnetic coupling with singlet ground state and singlet-triplet
splitting ``4 t**2 / U`` on a single edge.  ``verify_exchange`` rebuilds
that prediction from the block-decoupling engine and compares elementwise.

The exact half-filling spectrum is solved per particle-hole sector.  On a
bipartite lattice (``eta_i = +-1`` on the two colours) the spin-preserving
map ``c_i_up -> eta_i c+_i_down``, ``c_i_down -> -eta_i c+_i_up`` commutes
with the hopping, the repulsion and every Zeeman field (Lieb 1989), so the
sector splits into its two eigenspaces, each about half the size.  A lattice
with an odd cycle has no such map and is solved whole.  Every
singly-occupied state is an even fixed point of the map, so the low band
sits in the even sector: a caller that reads only the lowest values
(``sector_values(..., lowest=k)``) gets them from the even block alone
whenever the odd block's Gershgorin floor lies above them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParseError, RegimeError, ResourceLimitError, ValidationError
from .operators import (
    AXES,
    NEGLIGIBLE,
    FermionOperator,
    FockSector,
    LineReader,
    PauliTerm,
    SpinHamiltonian,
    _checked_hermitian,
    _read_fermion,
    default_site_modes,
    eig_hermitian,  # unused here; perfbench/spans.py traces hubbard.eig_hermitian
    fermion_to_text,
    jordan_map_spin_to_fermion,
    realize_fermion,
    realize_spin,
    singly_occupied_projector,
)
from . import sw

# Half filling of 6 sites is a 924-dimensional sector; beyond that dense
# exact work stops being interactive.
MAX_EXACT_SITES = 6

REGIME_FACTOR = 10.0

# Relative rounding margin by which a block's Gershgorin floor must clear the
# values asked of ``sector_values`` before the block's solve is skipped.
FLOOR_MARGIN = 1e-8


@dataclass(frozen=True)
class HubbardModel:
    """Hopping graph with uniform t, on-site U, and per-site Zeeman fields."""

    sites: int
    t: float
    u: float
    edges: tuple
    fields: tuple = ()

    def __post_init__(self):
        if self.sites < 1:
            raise ValidationError("model needs at least one site")
        if not (math.isfinite(self.t) and self.t >= 0):
            raise ValidationError(f"hopping must be finite and >= 0, got {self.t}")
        if not (math.isfinite(self.u) and self.u > 0):
            raise ValidationError(f"repulsion must be positive, got {self.u}")
        seen = set()
        edges = []
        for edge in self.edges:
            i, j = (int(edge[0]), int(edge[1]))
            if i == j:
                raise ValidationError(f"edge ({i}, {j}) is a self loop")
            if not (0 <= i < self.sites and 0 <= j < self.sites):
                raise ValidationError(f"edge ({i}, {j}) leaves the lattice")
            key = (min(i, j), max(i, j))
            if key in seen:
                raise ValidationError(f"edge ({i}, {j}) appears twice")
            seen.add(key)
            edges.append(key)
        object.__setattr__(self, "edges", tuple(edges))
        fields = [f for f in self.fields]
        if len(fields) not in (0, self.sites):
            raise ValidationError(
                f"field table needs one row per site ({self.sites}), "
                f"got {len(fields)}")
        if not fields:
            fields = [(0.0, 0.0, 0.0)] * self.sites
        fields = tuple(tuple(float(b) for b in row) for row in fields)
        for row in fields:
            if len(row) != 3 or any(not math.isfinite(b) for b in row):
                raise ValidationError(f"bad field row {row}")
        object.__setattr__(self, "fields", fields)

    @property
    def num_modes(self) -> int:
        return 2 * self.sites

    def max_degree(self) -> int:
        degree = [0] * self.sites
        for i, j in self.edges:
            degree[i] += 1
            degree[j] += 1
        return max(degree, default=0)


def _check_exact_size(model: HubbardModel):
    if model.sites > MAX_EXACT_SITES:
        raise ResourceLimitError(
            f"exact work is capped at {MAX_EXACT_SITES} sites; "
            f"model has {model.sites}")


def build_hubbard(model: HubbardModel) -> FermionOperator:
    """Second-quantized Hamiltonian: hopping, repulsion, Zeeman fields."""
    _check_exact_size(model)
    return (interaction_operator(model) + hopping_operator(model)).normal_order()


def half_filling_sector(model: HubbardModel) -> FockSector:
    _check_exact_size(model)
    return FockSector(model.num_modes, model.sites)


def interaction_operator(model: HubbardModel) -> FermionOperator:
    """Repulsion plus Zeeman fields: the unperturbed part of the splitting."""
    terms = [(model.u, ((up, True), (up, False), (down, True), (down, False)))
             for up, down in map(default_site_modes, range(model.sites))]
    for site, row in enumerate(model.fields):
        for axis, b in zip(AXES, row):
            if b != 0.0:
                terms.extend(jordan_map_spin_to_fermion(
                    PauliTerm(b, [(site, axis)]), model.sites).terms)
    return FermionOperator(model.num_modes, terms).normal_order()


def hopping_operator(model: HubbardModel) -> FermionOperator:
    terms = []
    for i, j in model.edges:
        for a, b in zip(default_site_modes(i), default_site_modes(j)):
            terms.append((-model.t, ((a, True), (b, False))))
            terms.append((-model.t, ((b, True), (a, False))))
    return FermionOperator(model.num_modes, terms).normal_order()


def check_regime(model: HubbardModel):
    """Strong-coupling guard: U must dominate the total hopping per site."""
    bound = REGIME_FACTOR * model.t * model.max_degree()
    if model.edges and model.u < bound:
        raise RegimeError(
            f"U = {model.u} is below {REGIME_FACTOR} * t * max_degree = {bound}; "
            "the exchange picture does not apply")


def heisenberg_from_hubbard(model: HubbardModel) -> SpinHamiltonian:
    """Effective spin model at half filling: exchange per edge plus fields.

    Raises ``RegimeError`` outside the strong-coupling window.
    """
    check_regime(model)
    exchange = model.t ** 2 / model.u
    terms = []
    for i, j in model.edges:
        for axis in AXES:
            terms.append(PauliTerm(exchange, [(i, axis), (j, axis)]))
        terms.append(PauliTerm(-exchange, []))
    for site, row in enumerate(model.fields):
        for axis, b in zip(AXES, row):
            if b != 0.0:
                terms.append(PauliTerm(b, [(site, axis)]))
    return SpinHamiltonian(model.sites, terms).canonicalize()


def exchange_error_budget(model: HubbardModel) -> float:
    """Third-order scale of the exchange approximation."""
    return 10.0 * len(model.edges) * model.t ** 3 / model.u ** 2


@dataclass(frozen=True)
class ExchangeReport:
    """Elementwise comparison of derived vs. closed-form exchange models."""

    model: HubbardModel
    measured: float
    tolerance: float
    passed: bool
    first_order_norm: float
    splitting_derived: float
    splitting_closed_form: float


def verify_exchange(model: HubbardModel, tolerance=None) -> ExchangeReport:
    """Derive the half-filling effective model and compare to the closed form.

    The unperturbed part is repulsion plus fields, the perturbation is the
    hopping, and the low space is the singly-occupied block.  First-order
    hopping vanishes on that block identically; the second-order block must
    match ``heisenberg_from_hubbard`` elementwise within tolerance (default
    ``10 * edges * t**3 / U**2``).  The reported splitting comes from the
    two lowest eigenvalues of ``h0 + v``, the full lattice Hamiltonian on
    the sector (``sector_values`` with ``lowest=2``).  On a bipartite
    lattice they come from the even particle-hole block: the split's
    regime check puts the odd block above them, and its Gershgorin floor
    shows it, so the odd block is built but not solved.
    """
    check_regime(model)
    sector = half_filling_sector(model)
    h0 = realize_fermion(interaction_operator(model), sector)
    v = realize_fermion(hopping_operator(model), sector)
    columns = singly_occupied_projector(sector, model.sites)
    result = sw.effective_hamiltonian(h0, v, 1.0, low_columns=columns)
    closed = realize_spin(heisenberg_from_hubbard(model))
    measured = float(np.abs(result.h_eff - closed).max())
    if tolerance is None:
        tolerance = exchange_error_budget(model)
    # The split holds copies of h0's blocks, so h0 + v is formed in h0.
    h0 += v
    del v
    exact = sector_values(model, sector, h0, lowest=2)
    # Singlet-triplet splitting of the first edge's pure-exchange prediction;
    # only meaningful without fields, reported regardless.
    derived = float(exact[1] - exact[0]) if exact.size > 1 else 0.0
    closed_split = 4 * model.t ** 2 / model.u
    return ExchangeReport(model, measured, float(tolerance),
                          bool(measured <= tolerance),
                          float(np.abs(result.v00).max()),
                          derived, closed_split)


def exact_spectrum(model: HubbardModel) -> np.ndarray:
    """Every half-filling eigenvalue of the full lattice Hamiltonian, solved
    per particle-hole sector (both blocks) on a bipartite lattice and whole
    otherwise."""
    sector = half_filling_sector(model)
    return sector_values(model, sector, realize_fermion(build_hubbard(model), sector))


def particle_hole_map(model: HubbardModel, sector: FockSector):
    """The particle-hole map of a half-filling sector as ``(image, sign)``,
    or None when the lattice has an odd cycle.

    With ``eta`` a 2-colouring of the sites, the map sends
    ``c_i_up -> eta_i c+_i_down`` and ``c_i_down -> -eta_i c+_i_up``, so
    sector state ``b`` goes to ``sign[b]`` times state ``image[b]``, with
    ``n'_i_up = 1 - n_i_down`` and ``n'_i_down = 1 - n_i_up``.  The sign
    is the product of the ``eta`` factors and the parity of the mapped
    annihilators applied, right to left, to the full state.  The full
    state's own sign, the image of the vacuum, is free; ``(-1)**sites``
    times the product of all ``eta`` makes every fixed point, that is every
    singly-occupied state, even.  The map is its own inverse.
    """
    eta = [0] * model.sites
    for root in range(model.sites):
        if eta[root]:
            continue
        eta[root], frontier = 1, [root]
        while frontier:
            i = frontier.pop()
            for j in {a + b - i for a, b in model.edges if i in (a, b)}:
                if eta[j] == eta[i]:
                    return None
                if not eta[j]:
                    eta[j] = -eta[i]
                    frontier.append(j)
    m = sector.num_modes
    states = np.array(sector.states, dtype=np.int64)
    image = np.full_like(states, (1 << m) - 1)
    odd = np.full_like(states, model.sites + eta.count(-1))
    for mode in reversed(range(m)):
        occupied = (states >> (m - 1 - mode)) & 1
        bit = m - 1 - (mode ^ 1)
        # c+_mode becomes -eta c_{partner} for a down mode, +eta for an up one
        odd += occupied * (np.bitwise_count(image >> (bit + 1))
                           + (mode & 1) + (eta[mode // 2] < 0))
        image ^= occupied << bit
    # sector.states is descending; searchsorted needs it ascending
    found = np.searchsorted(states[::-1], image)
    return states.size - 1 - found, np.where(odd & 1, -1.0, 1.0)


def sector_values(model: HubbardModel, sector: FockSector, matrix,
                  lowest=None) -> np.ndarray:
    """The ascending lowest ``lowest`` eigenvalues of ``model``'s
    half-filling ``matrix``, or all of them when ``lowest`` is None (one
    Hermiticity verdict on ``matrix``).  A ``lowest`` at or above the
    dimension returns every value; one below 1 is refused.

    When ``particle_hole_map`` has no map the matrix is solved whole.
    Otherwise it is solved per particle-hole sector: sector ``s = +-1``
    keeps one representative ``b`` per orbit ``{b, image b}``, a fixed
    point only when its sign is ``s``, with
    ``B_s[k, l] = (H[b_k, b_l] + s sign[b_k] H[image b_k, b_l]) * 2 / (N_k N_l)``
    and ``N = sqrt 2`` for a pair, 2 for a fixed point.  Each block is built
    and solved in turn, so no temporary is as large as ``matrix``.

    The even block, which holds every fixed point, is solved first.  The
    odd block is solved only when it could hold one of the values asked
    for: it is skipped when its Gershgorin floor
    ``min_k (Re B_kk - sum_{l != k} |B_kl|)`` exceeds the even block's
    ``lowest``-th value by more than ``FLOOR_MARGIN * max(1, max |B|)``,
    a rounding margin that keeps the result bit-identical to the first
    ``lowest`` values of the merged spectrum.

    Inside ``verify_exchange`` the odd block never holds the values read.
    ``effective_hamiltonian`` refuses the model unless ``|v| < gap / 2``,
    with ``gap`` between the singly-occupied (low) and the other (high)
    eigenvalues of ``h0``.  Every odd state lies in the high space, so by
    Weyl's inequality the odd block's values lie above
    ``max(low) + gap - |v| > max(low) + gap / 2``, while the lowest
    ``2**n`` values of ``h0 + v`` lie below ``max(low) + |v| <
    max(low) + gap / 2``.  So the floor, which alone decides the skip, is
    a safeguard for other callers, not a bet; on the strong-coupling
    models checked it clears the lowest ``2**n`` values by far.
    """
    if lowest is not None and lowest < 1:
        raise ValidationError(f"lowest must be at least 1, got {lowest}")
    matrix = _checked_hermitian(matrix)
    ph_map = particle_hole_map(model, sector)
    if ph_map is None:
        return np.linalg.eigvalsh(matrix)[:lowest]
    values = np.linalg.eigvalsh(_sector_block(matrix, *ph_map, 1.0))
    odd = _sector_block(matrix, *ph_map, -1.0)
    if lowest is None or lowest > values.size or not _floor_clears(
            odd, values[lowest - 1]):
        values = np.sort(np.concatenate([values, np.linalg.eigvalsh(odd)]))
    return values[:lowest]


def _floor_clears(block, value) -> bool:
    """Whether every eigenvalue of Hermitian ``block`` provably exceeds
    ``value`` by more than the rounding margin (Gershgorin)."""
    if not block.size:
        return True
    size = np.abs(block)
    diagonal = block.diagonal().real
    floor = np.min(diagonal - (size.sum(axis=1) - size.diagonal()))
    return floor > value + FLOOR_MARGIN * max(1.0, size.max())


def _sector_block(matrix, image, sign, s):
    index = np.arange(image.size)
    pair = image != index
    keep = np.flatnonzero(np.where(pair, index < image, sign == s))
    block = matrix[np.ix_(image[keep], keep)]
    block *= (s * sign[keep])[:, None]
    block += matrix[np.ix_(keep, keep)]
    scale = np.where(pair[keep], 1.0, math.sqrt(0.5))
    block *= scale[:, None]
    block *= scale
    return block


def singlet_triplet_splitting(model: HubbardModel) -> float:
    """Gap above the ground state at half filling, from the two lowest
    eigenvalues only (``sector_values``)."""
    sector = half_filling_sector(model)
    values = sector_values(model, sector,
                           realize_fermion(build_hubbard(model), sector), lowest=2)
    if values.size < 2:
        raise ValidationError("model has no excited state at half filling")
    return float(values[1] - values[0])


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def hubbard_to_text(model: HubbardModel) -> str:
    """Model header plus, when representable, the realized operator body.

    Zeeman fields along Y give the fermionic form complex coefficients the
    interchange format cannot carry; the operator section is omitted then.
    """
    lines = ["hubbard", f"sites {model.sites}", f"t {model.t!r}", f"U {model.u!r}"]
    lines.append(f"edges {len(model.edges)}")
    for i, j in model.edges:
        lines.append(f"{i} {j}")
    nonzero = [(s, row) for s, row in enumerate(model.fields)
               if any(b != 0.0 for b in row)]
    lines.append(f"fields {len(nonzero)}")
    for s, (bx, by, bz) in nonzero:
        lines.append(f"{s} {bx!r} {by!r} {bz!r}")
    if model.sites <= MAX_EXACT_SITES:
        op = build_hubbard(model)
        if all(abs(c.imag) <= NEGLIGIBLE for c, _ in op.terms):
            lines.append("operator")
            lines.append(fermion_to_text(op).rstrip("\n"))
            lines.append("end")
    return "\n".join(lines) + "\n"


def hubbard_from_text(text: str) -> HubbardModel:
    """Read a model document; an ``operator`` section must match the model."""
    reader = LineReader.from_text(text, "model document")
    reader.expect("hubbard")
    sites = reader.field("sites", int)
    t = reader.field("t", float)
    u = reader.field("U", float)
    edges = []
    seen = set()
    for line in reader.counted("edges"):
        try:
            i, j = line.split()
            i, j = int(i), int(j)
        except ValueError:
            raise reader.error(f"bad edges record {line!r}") from None
        bond = (min(i, j), max(i, j))
        if bond in seen:
            raise reader.error(f"edge ({i}, {j}) appears twice")
        seen.add(bond)
        edges.append((i, j))
    fields = {}
    for line in reader.counted("fields"):
        try:
            site, bx, by, bz = line.split()
            site, row = int(site), (float(bx), float(by), float(bz))
        except ValueError:
            raise reader.error(f"bad fields record {line!r}") from None
        if not 0 <= site < sites:
            raise reader.error(f"field row targets site {site} outside the lattice")
        if site in fields:
            raise reader.error(f"field row for site {site} appears twice")
        fields[site] = row
    fields = [fields.get(site, (0.0, 0.0, 0.0)) for site in range(sites)]
    operator = None if reader.at_end else _read_fermion(reader.section("operator"))
    reader.done()
    model = reader.build(HubbardModel, sites, t, u, tuple(edges), tuple(fields))
    # normal_order drops residual terms of magnitude <= NEGLIGIBLE, the
    # threshold hubbard_to_text uses for imaginary parts it leaves out.
    if operator is not None and (
            operator.num_modes != model.num_modes
            or (operator + build_hubbard(model).scaled(-1)).normal_order().terms):
        raise ParseError("operator section does not match the model's operator")
    return model
