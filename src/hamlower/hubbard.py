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
    _read_fermion,
    default_site_modes,
    eig_hermitian,  # unused here; perfbench/spans.py traces hubbard.eig_hermitian
    eig_values,
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


def _real_if_real(matrix: np.ndarray) -> np.ndarray:
    """A copy of ``matrix.real`` unless an imaginary part exceeds ``NEGLIGIBLE``.

    Hopping is always real; only a Y field gives ``h0`` imaginary entries.
    A copy, not the ``.real`` view, so that the complex matrix is freed.
    """
    return matrix if np.abs(matrix.imag).max() > NEGLIGIBLE else matrix.real.copy()


def verify_exchange(model: HubbardModel, tolerance=None) -> ExchangeReport:
    """Derive the half-filling effective model and compare to the closed form.

    The unperturbed part is repulsion plus fields, the perturbation is the
    hopping, and the low space is the singly-occupied block.  First-order
    hopping vanishes on that block identically; the second-order block must
    match ``heisenberg_from_hubbard`` elementwise within tolerance (default
    ``10 * edges * t**3 / U**2``).  The reported splitting comes from the
    eigenvalues of ``h0 + v``, the full lattice Hamiltonian on the sector.
    """
    check_regime(model)
    sector = half_filling_sector(model)
    h0 = _real_if_real(realize_fermion(interaction_operator(model), sector))
    v = _real_if_real(realize_fermion(hopping_operator(model), sector))
    columns = singly_occupied_projector(sector, model.sites)
    result = sw.effective_hamiltonian(h0, v, 1.0, low_columns=columns)
    first_order = result.split.blocks(v)[0]
    closed = realize_spin(heisenberg_from_hubbard(model))
    measured = float(np.abs(result.h_eff - closed).max())
    if tolerance is None:
        tolerance = exchange_error_budget(model)
    exact = eig_values(h0 + v)
    # Singlet-triplet splitting of the first edge's pure-exchange prediction;
    # only meaningful without fields, reported regardless.
    derived = float(exact[1] - exact[0]) if exact.size > 1 else 0.0
    closed_split = 4 * model.t ** 2 / model.u
    return ExchangeReport(model, measured, float(tolerance),
                          bool(measured <= tolerance),
                          float(np.abs(first_order).max()),
                          derived, closed_split)


def exact_spectrum(model: HubbardModel) -> np.ndarray:
    """Half-filling eigenvalues of the full lattice Hamiltonian."""
    sector = half_filling_sector(model)
    return eig_values(realize_fermion(build_hubbard(model), sector))


def singlet_triplet_splitting(model: HubbardModel) -> float:
    """Gap above the ground state at half filling."""
    values = exact_spectrum(model)
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
