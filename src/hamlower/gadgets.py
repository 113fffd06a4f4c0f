"""Mediator-gadget compiler: 2-local Pauli sources down to Heisenberg form.

A mediator gadget is one auxiliary spin with a strong splitting field
``delta * |h><h|`` and weak couplings ``sum_P P_w (x) S_P`` attaching a system
operator ``S_P`` to each used mediator axis ("slot").  The dressed basis
comes from the rotation

    M(theta, phi) = [[cos t, -sin t e^{-i phi}], [sin t e^{i phi}, cos t]]

with ``|l> = M|0>``, ``|h> = M|1>``.  At second order the low sector sees

    sum_P d_P S_P  -  (1/delta) (sum_P o_P S_P)(sum_Q conj(o_Q) S_Q)

with ``d_P = <l|P|l>`` and ``o_P = <l|P|h>``; ``gadget_model`` expands it
from single-site Pauli products (the closed form ``mediator_effective`` is
used only by tests).  There are two gadget kinds: a *mixer* (``_mixer``) has
one slot of strength lambda per attached site, with splitting angles solved
for its target pair factor; a *freezer* (``_freeze``) attaches both sites to
every slot with a mediator frozen along one axis, so only same-axis
couplings survive.  The compiler chains four layers of them (mixers that
decompose same-axis couplings and entangle, freezers to a two-axis pattern
and to full Heisenberg couplings), schedules the (lambda, delta) ladder
against a precision target, and emits exact compensation fields for every
first- and second-order local byproduct so the compiled low spectrum
reproduces the source up to a scalar offset.

Sub-coupling strengths are emitted *down-scaled* so that each layer's
realized second-order coupling equals its bookkeeping target exactly; the
error budget sum(lambda^3/delta^2) then refers to realized magnitudes.
"""

from __future__ import annotations

import cmath
import math
from collections import Counter
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .errors import (
    HamlowerError,
    ParseError,
    ResourceLimitError,
    ScheduleError,
    ValidationError,
)
from .operators import (
    AXES,
    PAULI_MATRICES,
    LineReader,
    PauliTerm,
    SpinHamiltonian,
    dense_spin_limit,
    eig_hermitian,  # unused here; perfbench/spans.py traces gadgets.eig_hermitian
    low_spectrum,
    pauli_product,
    realize_spin,  # unused here; perfbench/spans.py traces gadgets.realize_spin
    spin_components,
    spin_from_text,  # unused here; perfbench/spans.py traces gadgets.spin_from_text
    spin_to_text,
    _read_spin,
)

SAFETY = 10.0

NEXT_AXIS = {"X": "Y", "Y": "Z", "Z": "X"}

# Splitting angles that freeze the mediator into the +1 eigenstate of an
# axis, making that axis's cross element <l|P|h> vanish identically.
FROZEN_ANGLES = {
    "X": (math.pi / 4, 0.0),
    "Y": (math.pi / 4, math.pi / 2),
    "Z": (0.0, 0.0),
}

LAYER_DECOMPOSE = "decompose"
LAYER_ENTANGLE = "entangle"
LAYER_FREEZE_PAIR = "freeze-pair"
LAYER_FREEZE_HEIS = "freeze-heisenberg"
LAYER_ORDER = (LAYER_DECOMPOSE, LAYER_ENTANGLE, LAYER_FREEZE_PAIR, LAYER_FREEZE_HEIS)


def third_axis(a: str, b: str) -> str:
    rest = {"X", "Y", "Z"} - {a, b}
    if len(rest) != 1:
        raise ValidationError(f"axes {a!r}, {b!r} do not determine a third axis")
    return rest.pop()


@dataclass(frozen=True)
class MediatorCoefficients:
    """Per-axis dressed (d) and cross (o) elements of one splitting choice."""

    theta: float
    phi: float
    d: dict
    o: dict

    def pair_factor(self, p: str, q: str) -> float:
        """Closed-form coefficient of P_i Q_j per lambda**2/delta.

        Equals -2 Re(o_P conj(o_Q)); in trigonometric form the three slot
        pairs give sin^2(2t) sin(2phi) for XY, sin(4t) cos(phi) for XZ and
        sin(4t) sin(phi) for YZ.
        """
        return float(-2.0 * (self.o[p] * self.o[q].conjugate()).real)


def mediator_coefficients(theta: float, phi: float) -> MediatorCoefficients:
    """``d_P = <l|P|l>`` (real by Hermiticity) and ``o_P = <l|P|h>`` per axis.

    ``|l>`` and ``|h>`` are the columns of the splitting rotation M(theta, phi).
    """
    m = np.array(
        [[math.cos(theta), -math.sin(theta) * cmath.exp(-1j * phi)],
         [math.sin(theta) * cmath.exp(1j * phi), math.cos(theta)]])
    l, h = m[:, 0], m[:, 1]
    d = {p: float((l.conj() @ PAULI_MATRICES[p] @ l).real) for p in AXES}
    o = {p: complex(l.conj() @ PAULI_MATRICES[p] @ h) for p in AXES}
    return MediatorCoefficients(theta, phi, d, o)


class CoefficientSets(dict):
    """``mediator_coefficients`` per ``(theta, phi)``, computed on first use.

    One table lives for one compile call (or one plan query), so each
    distinct splitting angle is computed once and the table's size is
    bounded by the gadgets it served.
    """

    def __missing__(self, angles):
        co = self[angles] = mediator_coefficients(*angles)
        return co


@dataclass(frozen=True)
class EffectiveCoefficients:
    """Second-order output of a uniform-strength mediator gadget."""

    pairs: dict
    fields: dict
    constant: float


def mediator_effective(theta, phi, lam, delta, axes=AXES) -> EffectiveCoefficients:
    """Closed-form effective coefficients for slots of equal strength ``lam``.

    ``pairs[(P, Q)]`` multiplies the cross coupling carried by slots P and Q,
    ``fields[P]`` is the first-order local factor on slot P's operator, and
    ``constant`` collects the second-order identity part.
    """
    _validate_gadget_scales(lam, delta)
    co = mediator_coefficients(theta, phi)
    scale = lam * lam / delta
    pairs = {(p, q): scale * co.pair_factor(p, q) for p, q in combinations(axes, 2)}
    fields = {p: lam * co.d[p] for p in axes}
    constant = -scale * sum(abs(co.o[p]) ** 2 for p in axes)
    return EffectiveCoefficients(pairs, fields, constant)


def _validate_gadget_scales(lam, delta):
    if not (lam > 0 and delta > 0):
        raise ValidationError(f"scales must be positive, got lambda={lam}, delta={delta}")
    if delta < SAFETY * lam * (1 - 1e-9):
        raise ValidationError(
            f"splitting {delta} is not at least {SAFETY}x the coupling {lam}")


@dataclass(frozen=True)
class MediatorGadget:
    """One auxiliary spin with its splitting angles, scales, and slots.

    ``slots`` maps a mediator axis to a tuple of ``(site, axis, strength)``
    system attachments; the physical perturbation is
    ``sum_P P_mediator (x) sum_entries strength * axis_site``.  ``lam`` is the
    layer's bookkeeping coupling scale; individual slot strengths never
    exceed it.  ``frozen_axis`` is set on freezing gadgets only.
    """

    mediator: int
    layer: str
    theta: float
    phi: float
    lam: float
    delta: float
    slots: dict
    frozen_axis: str = None

    def __post_init__(self):
        if not 0 <= self.theta <= math.pi / 2 + 1e-12:
            raise ValidationError(f"theta {self.theta} outside [0, pi/2]")
        if not 0 <= self.phi < 2 * math.pi:
            raise ValidationError(f"phi {self.phi} outside [0, 2*pi)")
        _validate_gadget_scales(self.lam, self.delta)
        if self.layer not in LAYER_ORDER:
            raise ValidationError(f"unknown layer {self.layer!r}")
        if self.frozen_axis is not None and self.frozen_axis not in AXES:
            raise ValidationError(f"unknown frozen axis {self.frozen_axis!r}")
        if self.mediator < 0:
            raise ValidationError(f"negative mediator index {self.mediator}")
        for axis, entries in self.slots.items():
            if axis not in AXES:
                raise ValidationError(f"unknown slot axis {axis!r}")
            for site, sys_axis, strength in entries:
                if site == self.mediator:
                    raise ValidationError("slot may not touch the mediator itself")
                if site < 0:
                    raise ValidationError(f"negative site index {site}")
                if sys_axis not in AXES:
                    raise ValidationError(f"unknown system axis {sys_axis!r}")
                # Negated so that a NaN strength fails the test as well.
                if not abs(strength) <= self.lam * (1 + 1e-9):
                    raise ValidationError(
                        f"slot strength {strength} is outside the layer scale {self.lam}")

    def sites(self):
        """Distinct non-mediator sites this gadget touches, sorted."""
        return tuple(sorted({site for entries in self.slots.values()
                             for site, _, _ in entries}))


def _penalty(g: MediatorGadget, co: MediatorCoefficients):
    """The splitting as mediator fields ``-(delta/2) * (d . sigma)`` and ``delta/2``."""
    fields = [PauliTerm.prevalidated(-0.5 * g.delta * co.d[axis], ((g.mediator, axis),))
              for axis in AXES if abs(co.d[axis]) > 1e-15]
    return fields, 0.5 * g.delta


def gadget_hamiltonian(g: MediatorGadget):
    """Bare physical terms of one gadget: (SpinHamiltonian terms, offset).

    The splitting ``delta |h><h|`` is emitted as the field
    ``-(delta/2) * (d . sigma)`` on the mediator plus the scalar ``delta/2``
    returned as the offset.
    """
    terms, offset = _penalty(g, mediator_coefficients(g.theta, g.phi))
    for axis, entries in g.slots.items():
        for site, sys_axis, strength in entries:
            factors = tuple(sorted([(g.mediator, axis), (site, sys_axis)]))
            terms.append(PauliTerm.prevalidated(strength, factors))
    return terms, offset


def _model_coefficients(g: MediatorGadget, co: MediatorCoefficients) -> dict:
    """``gadget_model``'s merged real coefficients by factor tuple, in order."""
    acc = {}

    def add(factors, coeff):
        acc[factors] = acc.get(factors, 0.0) + coeff

    for axis, entries in g.slots.items():
        for site, sys_axis, strength in entries:
            add(((site, sys_axis),), co.d[axis] * strength)
    for axis_p, entries_p in g.slots.items():
        for axis_q, entries_q in g.slots.items():
            oo = co.o[axis_p] * co.o[axis_q].conjugate()
            if abs(oo) < 1e-15:
                continue
            c_pq = -oo / g.delta
            for site_p, ax_p, s_p in entries_p:
                for site_q, ax_q, s_q in entries_q:
                    if site_p != site_q:
                        phase = 1.0 + 0.0j
                        factors = tuple(sorted(((site_p, ax_p), (site_q, ax_q))))
                    else:
                        phase, axis = pauli_product(ax_p, ax_q)
                        factors = () if axis == "I" else ((site_p, axis),)
                    add(factors, c_pq * phase * s_p * s_q)
    scale = max((abs(c) for c in acc.values()), default=1.0)
    out = {}
    for factors, coeff in acc.items():
        if abs(coeff.imag) > 1e-8 * scale:
            raise HamlowerError(
                "gadget model has a non-real coefficient; slot layout is invalid")
        if abs(coeff.real) > 1e-14 * scale:
            out[factors] = coeff.real
    return out


def gadget_model(g: MediatorGadget) -> SpinHamiltonian:
    """Second-order effective Hamiltonian of one gadget on its low sector.

    Includes the first-order dressed fields, all cross and diagonal
    second-order products (expanded through the Pauli algebra), and the
    identity part.  Imaginary parts must cancel; a residual signals a bug.
    """
    co = mediator_coefficients(g.theta, g.phi)
    terms = [PauliTerm.prevalidated(c, f) for f, c in _model_coefficients(g, co).items()]
    num = max(s for entries in g.slots.values() for s, _, _ in entries) + 1
    return SpinHamiltonian(num, terms)


# ---------------------------------------------------------------------------
# Scale scheduling
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LayerScales:
    """Scheduled scales for one gadget layer."""

    index: int
    name: str
    lam: float
    delta: float
    count: int

    @property
    def budget(self) -> float:
        """The layer's error budget ``count * lambda**3 / delta**2``."""
        return self.count * self.lam ** 3 / self.delta ** 2


def schedule_scales(counts, precision, *, safety=SAFETY):
    """Greedy ladder of (lambda, delta) per layer for a precision target.

    ``counts`` is an ordered list of ``(layer_name, gadget_count)``.  Each
    layer's ratio k = delta/lambda is the smallest value satisfying
    k >= safety, k >= safety * k_previous, and an equal split of the error
    budget sum(count * lambda^3/delta^2) <= precision across layers.
    ``precision`` may be ``inf`` (scales sit at the safety boundary).
    ``safety`` must be finite and at least ``SAFETY``, the separation every
    gadget is checked against.
    """
    if isinstance(precision, bool) or not isinstance(precision, (int, float)):
        raise ScheduleError(f"precision must be a number, got {precision!r}")
    precision = float(precision)
    if math.isnan(precision) or precision <= 0:
        raise ScheduleError(
            f"precision must be positive (got {precision}); "
            "the budget constraint sum(lambda^3/delta^2) <= precision is infeasible")
    if not (math.isfinite(safety) and safety >= SAFETY):
        raise ScheduleError(
            f"safety must be a finite number of at least {SAFETY} (got {safety}); "
            "every gadget's splitting is checked against that floor")
    counts = [(name, int(n)) for name, n in counts]
    for name, n in counts:
        if name not in LAYER_ORDER:
            raise ScheduleError(f"unknown layer {name!r}")
        if n < 1:
            raise ScheduleError(f"layer {name!r} has no gadgets")
    names = [name for name, _ in counts]
    if names != sorted(names, key=LAYER_ORDER.index) or len(set(names)) != len(names):
        raise ScheduleError("layers must appear once each, in chain order")
    num_layers = len(counts)
    layers = []
    lam_prev = 1.0
    k_prev = None
    for name, n in counts:
        k = safety if k_prev is None else safety * k_prev
        if math.isfinite(precision):
            k = max(k, num_layers * n * lam_prev / precision)
        lam = k * lam_prev
        delta = k * lam
        if not (math.isfinite(lam) and math.isfinite(delta)):
            raise ScheduleError(
                f"scale ladder exceeds the float range at layer {name!r}; "
                "the precision target cannot be met at finite scales")
        layers.append(LayerScales(LAYER_ORDER.index(name), name, lam, delta, n))
        lam_prev, k_prev = lam, k
    return layers


# ---------------------------------------------------------------------------
# Compilation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GadgetPlan:
    """Compiled reduction: layer stack, gadgets, couplings, bookkeeping.

    ``compiled`` holds only Heisenberg couplings (three same-coefficient
    terms per edge in ``heisenberg``) and single-spin fields.  Adding
    ``offset`` to the low spectrum of ``compiled`` reproduces the source
    spectrum within ``total_error_budget`` times the verification factor.
    """

    source: SpinHamiltonian
    target_precision: float
    safety: float
    layers: tuple
    gadgets: tuple
    heisenberg: tuple
    compiled: SpinHamiltonian
    offset: float
    total_error_budget: float

    @property
    def num_spins(self) -> int:
        return self.compiled.num_spins

    def layer_gadgets(self, name):
        return tuple(g for g in self.gadgets if g.layer == name)

    def freezing_gadgets(self):
        return tuple(g for g in self.gadgets if g.frozen_axis is not None)


def _classify_source(source: SpinHamiltonian):
    source = source.canonicalize()
    constant = 0.0
    fields = []
    couplings = []
    for t in source.terms:
        if t.weight == 0:
            constant += t.coefficient
        elif t.weight == 1:
            fields.append(t)
        elif t.weight == 2:
            if abs(t.coefficient) > 1.0 + 1e-12:
                raise ValidationError(
                    f"coupling strength {t.coefficient} exceeds 1; rescale the "
                    "source so every coupling satisfies |J| <= 1")
            couplings.append(t)
        else:
            raise ValidationError(
                f"source term touches {t.weight} sites; only 2-local inputs compile")
    return source, constant, fields, couplings


def _solve_angles(axis_pair, target):
    """Splitting angles whose pair factor equals ``target`` for these slots.

    theta is pi/8 when either slot axis is Z, else pi/4; phi solves the
    matching trigonometric family.  |target| <= 1 is required.
    """
    if abs(target) > 1 + 1e-12:
        raise ValidationError(
            f"required gadget coefficient {target} exceeds the attainable range "
            "[-1, 1]; no splitting angle solves it")
    target = min(1.0, max(-1.0, target))
    pair = frozenset(axis_pair)
    if pair == frozenset(("X", "Y")):
        theta = math.pi / 4
        phi = 0.5 * math.asin(target)
    elif pair == frozenset(("X", "Z")):
        theta = math.pi / 8
        phi = math.acos(target)
    elif pair == frozenset(("Y", "Z")):
        theta = math.pi / 8
        phi = math.asin(target)
    else:
        raise ValidationError(f"slot axes {axis_pair} must be two distinct Paulis")
    if phi < 0:
        phi += 2 * math.pi
    return theta, phi


class _Assembler:
    """Mutable state threaded through one compile call.

    ``layers`` holds the scheduled scales by layer name.  ``prefactor`` is
    the decompose layer's lambda (1 without that layer), which equals the
    entangle layer's lambda**2/delta: an entangler's pair factor is its
    target coupling divided by it.
    """

    def __init__(self, num_source_spins, layers):
        self.next_spin = num_source_spins
        self.layers = {rec.name: rec for rec in layers}
        decompose = self.layers.get(LAYER_DECOMPOSE)
        self.prefactor = decompose.lam if decompose is not None else 1.0
        self.gadgets = []
        self.heisenberg = []
        self.extra_terms = []   # penalty fields + compensation fields
        self.offset = 0.0
        self.coefficients = CoefficientSets()

    def alloc(self):
        spin = self.next_spin
        self.next_spin += 1
        return spin

    def register(self, g: MediatorGadget, intended_pairs):
        """Record a gadget: penalty, compensation, and model verification."""
        co = self.coefficients[g.theta, g.phi]
        fields, penalty_offset = _penalty(g, co)
        self.extra_terms.extend(fields)
        self.offset += penalty_offset
        got_pairs = {}
        for factors, coeff in _model_coefficients(g, co).items():
            if not factors:
                self.offset -= coeff
            elif len(factors) == 1:
                self.extra_terms.append(PauliTerm.prevalidated(-coeff, factors))
            else:
                got_pairs[factors] = coeff
        want = {}
        for (sa, pa), (sb, pb), coeff in intended_pairs:
            factors = tuple(sorted([(sa, pa), (sb, pb)]))
            want[factors] = want.get(factors, 0.0) + coeff
        scale = max([abs(c) for c in want.values()] + [1.0])
        if set(got_pairs) != set(want) or any(
                abs(got_pairs[f] - want[f]) > 1e-9 * scale for f in want):
            raise HamlowerError(
                "gadget output does not match its target couplings; "
                "this indicates a compiler bug")
        self.gadgets.append(g)


def _mixer(mediator, rec, a, b, target):
    """Two-slot gadget of strength ``rec.lam`` whose pair factor is ``target``.

    ``a`` and ``b`` are ``(slot_axis, site, system_axis)`` attachments.
    """
    theta, phi = _solve_angles((a[0], b[0]), target)
    slots = {slot: ((site, axis, rec.lam),) for slot, site, axis in (a, b)}
    return MediatorGadget(mediator, rec.name, theta, phi, rec.lam, rec.delta, slots)


def _freeze(asm, layer, site_a, site_b, coefficient, frozen, slot_axes, targets):
    """Register a freezer realizing ``coefficient * P_a P_b`` for each target P.

    Both sites attach to every slot axis with strengths ``c_a = s`` and
    ``c_b = -copysign(s, coefficient)``, ``s = sqrt(|coefficient| delta / 2)``;
    the mediator sits frozen along ``frozen``.  Returns ``(mediator, c_a, c_b)``.
    """
    rec = asm.layers[layer]
    mediator = asm.alloc()
    s = math.sqrt(abs(coefficient) * rec.delta / 2.0)
    c_a, c_b = s, -math.copysign(s, coefficient)
    slots = {axis: ((site_a, axis, c_a), (site_b, axis, c_b)) for axis in slot_axes}
    theta, phi = FROZEN_ANGLES[frozen]
    g = MediatorGadget(mediator, layer, theta, phi, rec.lam, rec.delta, slots,
                       frozen_axis=frozen)
    asm.register(g, [((site_a, axis), (site_b, axis), coefficient) for axis in targets])
    return mediator, c_a, c_b


def _compile_freeze_heisenberg(asm, site_a, site_b, axis_one, axis_two, coefficient):
    frozen = third_axis(axis_one, axis_two)
    y, h_a, h_b = _freeze(asm, LAYER_FREEZE_HEIS, site_a, site_b, coefficient, frozen,
                          AXES, (axis_one, axis_two))
    asm.heisenberg.extend([(site_a, y, h_a), (site_b, y, h_b)])


def _compile_freeze_pair(asm, site_a, site_b, axis, coefficient):
    partner = NEXT_AXIS[axis]
    u, c_a, c_b = _freeze(asm, LAYER_FREEZE_PAIR, site_a, site_b, coefficient, partner,
                          (axis, partner), (axis,))
    for site, strength in ((site_a, c_a), (site_b, c_b)):
        _compile_freeze_heisenberg(asm, site, u, axis, partner, strength)


def _compile_entangle(asm, site_a, axis_a, site_b, axis_b, coefficient):
    m = asm.alloc()
    g = _mixer(m, asm.layers[LAYER_ENTANGLE], (axis_a, site_a, axis_a),
               (axis_b, site_b, axis_b), coefficient / asm.prefactor)
    asm.register(g, [((site_a, axis_a), (site_b, axis_b), coefficient)])
    for site, axis in ((site_a, axis_a), (site_b, axis_b)):
        _compile_freeze_pair(asm, site, m, axis, g.lam)


def _compile_decompose(asm, term: PauliTerm):
    (site_i, axis), (site_j, _) = term.factors
    m0 = asm.alloc()
    slot_i = NEXT_AXIS[axis]
    slot_j = NEXT_AXIS[slot_i]
    g = _mixer(m0, asm.layers[LAYER_DECOMPOSE], (slot_i, site_i, axis),
               (slot_j, site_j, axis), term.coefficient)
    asm.register(g, [((site_i, axis), (site_j, axis), term.coefficient)])
    for site, slot_axis in ((site_i, slot_i), (site_j, slot_j)):
        _compile_entangle(asm, site, axis, m0, slot_axis, g.lam)


def compile(source: SpinHamiltonian, precision, *, safety=SAFETY) -> GadgetPlan:
    """Compile a 2-local source into Heisenberg couplings plus fields.

    Couplings must satisfy |J| <= 1 (rescale the source first).  Single-spin
    fields and constants pass through.  Every mixed-axis coupling expands to
    exactly 8 Heisenberg couplings; same-axis couplings decompose through an
    extra layer into 16.
    """
    source, constant, fields, couplings = _classify_source(source)
    same = [t for t in couplings if t.factors[0][1] == t.factors[1][1]]
    mixed = [t for t in couplings if t.factors[0][1] != t.factors[1][1]]
    counts = []
    if same:
        counts.append((LAYER_DECOMPOSE, len(same)))
    n1 = len(mixed) + 2 * len(same)
    if n1:
        counts.extend([(LAYER_ENTANGLE, n1),
                       (LAYER_FREEZE_PAIR, 2 * n1),
                       (LAYER_FREEZE_HEIS, 4 * n1)])
    layers = schedule_scales(counts, precision, safety=safety)
    asm = _Assembler(source.num_spins, layers)
    asm.offset += constant
    for t in couplings:
        (site_i, axis_a), (site_j, axis_b) = t.factors
        if axis_a == axis_b:
            _compile_decompose(asm, t)
        else:
            _compile_entangle(asm, site_i, axis_a, site_j, axis_b, t.coefficient)
    heis_terms = []
    # Each coupling's mediator was allocated after its site, so a < b.
    for a, b, strength in asm.heisenberg:
        for axis in AXES:
            heis_terms.append(PauliTerm.prevalidated(strength, ((a, axis), (b, axis))))
    num_total = asm.next_spin
    compiled = SpinHamiltonian(
        num_total, heis_terms + asm.extra_terms + list(fields)).canonicalize()
    for t in compiled.terms:
        if t.weight > 2:
            raise HamlowerError("compiled Hamiltonian grew a >2-local term; bug")
    budget = float(sum(rec.budget for rec in layers))
    return GadgetPlan(source, float(precision), float(safety), tuple(layers),
                      tuple(asm.gadgets), tuple(asm.heisenberg), compiled,
                      asm.offset, budget)


# ---------------------------------------------------------------------------
# Verification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PlanVerification:
    """Measured low-spectrum deviation of a compiled plan vs. its source.

    ``floor`` is machine epsilon times the summed coefficient magnitudes of
    the compiled Hamiltonian: a lower bound on the float64 resolution of
    its spectrum, not the resolution itself (eigensolver rounding grows
    with the matrix dimension).
    """

    measured: float
    budget: float
    tolerance_factor: float
    tolerance: float
    passed: bool
    compiled_low: np.ndarray
    source_spectrum: np.ndarray
    floor: float


def verify_plan(plan: GadgetPlan, tolerance_factor: float = 10.0) -> PlanVerification:
    """Compare the low spectrum of the compiled plan with the source spectrum.

    The lowest 2^(source spins) eigenvalues of the compiled Hamiltonian,
    shifted by the plan offset, are compared to the full source spectrum.
    Both sides come from ``low_spectrum``, which solves each connected
    component of the interaction graph on its own.  Raises
    ``ResourceLimitError`` when the source or the largest compiled component
    exceeds the dense limit; the source bound also caps the number of
    eigenvalues kept, since the component spectra are merged into 2^(source
    spins) of them.  ``tolerance_factor`` must be finite and positive.
    """
    tolerance_factor = float(tolerance_factor)
    if not (math.isfinite(tolerance_factor) and tolerance_factor > 0):
        raise ValidationError(
            f"tolerance factor must be finite and positive, got {tolerance_factor!r}")
    limit = dense_spin_limit()
    if plan.source.num_spins > limit:
        raise ResourceLimitError(
            f"source system has {plan.source.num_spins} spins; dense "
            f"verification is capped at {limit}")
    largest = max(len(c) for c in spin_components(plan.compiled))
    if largest > limit:
        raise ResourceLimitError(
            f"compiled system has a connected component of {largest} spins; "
            f"dense verification is capped at {limit} per component")
    k = 2 ** plan.source.num_spins
    source_vals = low_spectrum(plan.source, k)
    low = low_spectrum(plan.compiled, k) + plan.offset
    measured = float(np.abs(low - source_vals).max())
    budget = plan.total_error_budget
    tolerance = tolerance_factor * budget
    floor = float(np.finfo(float).eps
                  * sum(abs(t.coefficient) for t in plan.compiled.terms))
    return PlanVerification(measured, budget, tolerance_factor, tolerance,
                            bool(measured <= tolerance), low, source_vals, floor)


def frozen_cross_residuals(plan: GadgetPlan):
    """|<l|P|h>| of the unwanted Pauli for every freezing gadget."""
    sets = CoefficientSets()
    return [(g.mediator, g.frozen_axis, abs(sets[g.theta, g.phi].o[g.frozen_axis]))
            for g in plan.freezing_gadgets()]


@dataclass(frozen=True)
class EntanglerCheck:
    """Single-gadget realization of one mixed-axis coupling, for spot checks.

    ``hamiltonian`` holds the bare 3-spin gadget (penalty field plus the two
    slot couplings, no compensation); adding ``offset`` to its spectrum
    aligns it with ``model`` = target + first/second-order locals + constant.
    """

    gadget: MediatorGadget
    hamiltonian: SpinHamiltonian
    offset: float
    model: SpinHamiltonian
    budget: float


def entangler_realization(term: PauliTerm, precision, *, safety=SAFETY) -> EntanglerCheck:
    """Realize one coupling J * A_i B_j with a single scheduled mediator."""
    if term.weight != 2 or term.factors[0][1] == term.factors[1][1]:
        raise ValidationError("expected one mixed-axis 2-local coupling")
    if abs(term.coefficient) > 1 + 1e-12:
        raise ValidationError("coupling must satisfy |J| <= 1; rescale first")
    (rec,) = schedule_scales([(LAYER_ENTANGLE, 1)], precision, safety=safety)
    (site_i, axis_a), (site_j, axis_b) = term.factors
    m = max(site_i, site_j) + 1
    g = _mixer(m, rec, (axis_a, site_i, axis_a), (axis_b, site_j, axis_b),
               term.coefficient)
    terms, offset = gadget_hamiltonian(g)
    hamiltonian = SpinHamiltonian(m + 1, terms).canonicalize()
    model = gadget_model(g)
    return EntanglerCheck(g, hamiltonian, offset, model, rec.budget)


# ---------------------------------------------------------------------------
# Plan serialization
# ---------------------------------------------------------------------------


def plan_to_text(plan: GadgetPlan) -> str:
    lines = ["gadget-plan v1"]
    lines.append(f"precision {plan.target_precision!r}")
    lines.append(f"safety {plan.safety!r}")
    lines.append(f"budget {plan.total_error_budget!r}")
    lines.append(f"offset {plan.offset!r}")
    lines.append(f"spins {plan.num_spins}")
    lines.append("")
    lines.append(f"layers {len(plan.layers)}")
    lines.append("# index name lambda delta count budget")
    for rec in plan.layers:
        lines.append(f"{rec.index} {rec.name} {rec.lam!r} {rec.delta!r} "
                     f"{rec.count} {rec.budget!r}")
    lines.append("")
    lines.append(f"gadgets {len(plan.gadgets)}")
    lines.append("# mediator layer frozen theta phi lambda delta slots")
    for g in plan.gadgets:
        slot_txt = " ".join(
            f"{axis}:{site}:{sys_axis}:{strength!r}"
            for axis, entries in g.slots.items()
            for site, sys_axis, strength in entries)
        frozen = g.frozen_axis if g.frozen_axis is not None else "-"
        lines.append(f"{g.mediator} {g.layer} {frozen} {g.theta!r} {g.phi!r} "
                     f"{g.lam!r} {g.delta!r} {slot_txt}")
    lines.append("")
    lines.append(f"heisenberg {len(plan.heisenberg)}")
    lines.append("# site mediator coupling")
    for a, b, strength in plan.heisenberg:
        lines.append(f"{a} {b} {strength!r}")
    lines.append("")
    lines.append("source")
    lines.append(spin_to_text(plan.source).rstrip("\n"))
    lines.append("end")
    lines.append("")
    lines.append("compiled")
    lines.append(spin_to_text(plan.compiled).rstrip("\n"))
    lines.append("end")
    return "\n".join(lines) + "\n"


def plan_from_text(text: str) -> GadgetPlan:
    """Read a plan document; reject one whose sections or budgets disagree."""
    reader = LineReader.from_text(text, "plan document")
    reader.expect("gadget-plan v1")
    precision = reader.field("precision", float)
    safety = reader.field("safety", float)
    if not (math.isfinite(safety) and safety >= SAFETY):
        raise reader.error(f"safety {safety!r} is below the floor {SAFETY} "
                           "or not finite")
    budget = reader.field("budget", float)
    offset = reader.field("offset", float)
    num_spins = reader.field("spins", int)
    layer_rows = []
    layer_budgets = []
    for line in reader.counted("layers"):
        try:
            index, name, lam, delta, count, layer_budget = line.split()
            layer_rows.append(LayerScales(int(index), name, float(lam), float(delta),
                                          int(count)))
            layer_budgets.append(float(layer_budget))
        except ValueError:
            raise reader.error(f"bad layer record {line!r}") from None
    gadgets = []
    for line in reader.counted("gadgets"):
        tokens = line.split()
        try:
            if len(tokens) < 8:
                raise ValueError("no slot tokens")
            slots = {}
            for tok in tokens[7:]:
                axis, site, sys_axis, strength = tok.split(":")
                slots.setdefault(axis, []).append((int(site), sys_axis, float(strength)))
            g = MediatorGadget(
                int(tokens[0]), tokens[1], float(tokens[3]), float(tokens[4]),
                float(tokens[5]), float(tokens[6]),
                {axis: tuple(entries) for axis, entries in slots.items()},
                frozen_axis=None if tokens[2] == "-" else tokens[2])
        except (ValueError, ValidationError) as exc:
            raise reader.error(f"bad gadget record {line!r}: {exc}") from None
        if max((g.mediator,) + g.sites()) >= num_spins:
            raise reader.error(f"gadget record {line!r} names a spin outside "
                               f"the plan's {num_spins}")
        gadgets.append(g)
    # compile lists each Heisenberg freezer's distinct (site, strength) slot
    # entries, in gadget order, as that freezer's couplings.
    expected = [entry for g in gadgets if g.layer == LAYER_FREEZE_HEIS
                for entry in dict.fromkeys((site, g.mediator, strength)
                                           for entries in g.slots.values()
                                           for site, _, strength in entries)]
    heisenberg = []
    for line in reader.counted("heisenberg"):
        try:
            a, b, strength = line.split()
            record = (int(a), int(b), float(strength))
        except ValueError:
            raise reader.error(f"bad coupling record {line!r}") from None
        if not (0 <= record[0] < num_spins and 0 <= record[1] < num_spins):
            raise reader.error(f"coupling record {line!r} names a spin outside "
                               f"the plan's {num_spins}")
        if len(heisenberg) >= len(expected) or record != expected[len(heisenberg)]:
            raise reader.error(f"coupling record {line!r} is not the next "
                               "freeze-heisenberg slot entry")
        heisenberg.append(record)
    if len(heisenberg) != len(expected):
        raise ParseError(f"heisenberg section lists {len(heisenberg)} couplings; the "
                         f"freeze-heisenberg gadgets hold {len(expected)}")
    source = _read_spin(reader.section("source"))
    compiled = _read_spin(reader.section("compiled"))
    reader.done()
    if num_spins != compiled.num_spins:
        raise ParseError(f"plan declares {num_spins} spins but its compiled "
                         f"section has {compiled.num_spins}")
    declared = {rec.name: rec.count for rec in layer_rows}
    listed = Counter(g.layer for g in gadgets)
    if listed != declared:
        raise ParseError(f"layer records count gadgets {declared} but the "
                         f"gadgets section lists {dict(listed)}")
    # compile writes every budget with exactly this arithmetic.
    try:
        stale = [rec.budget for rec in layer_rows] != layer_budgets
    except ArithmeticError:     # a zero delta or an overflowing power
        stale = True
    if stale:
        raise ParseError("layer budgets are not count * lambda**3 / delta**2")
    if budget != float(sum(layer_budgets)):
        raise ParseError(f"plan budget {budget!r} is not the sum of its layer budgets")
    return GadgetPlan(source, precision, safety, tuple(layer_rows), tuple(gadgets),
                      tuple(heisenberg), compiled, offset, budget)
