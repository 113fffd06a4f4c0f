"""Mediator algebra, scheduling, compilation, and history-state tests.

Sign conventions for the cross coefficients are pinned by dense
diagonalization of the bare 3-spin gadget, not by any closed-form table:
the oracle tests realize penalty + slot couplings exactly and compare the
low spectrum against the second-order model.
"""

import hashlib
import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hamlower.errors import (
    ParseError,
    ResourceLimitError,
    ScheduleError,
    ValidationError,
)
from hamlower import gadgets
from hamlower.gadgets import (
    FROZEN_ANGLES,
    MediatorGadget,
    entangler_realization,
    frozen_cross_residuals,
    gadget_hamiltonian,
    gadget_model,
    mediator_coefficients,
    mediator_effective,
    plan_from_text,
    plan_to_text,
    schedule_scales,
    third_axis,
    verify_plan,
)
from hamlower.history import (
    HistorySpec,
    build_history_hamiltonian,
    embed_gate,
    history_state,
)
from hamlower.operators import (
    AXES,
    PauliTerm,
    SpinHamiltonian,
    eig_hermitian,
    realize_spin,
    spin_components,
    spin_from_text,
)
from pauli_reference import multiply_factor_tuples

angles = st.floats(min_value=0.0, max_value=math.pi / 2)
phases = st.floats(min_value=0.0, max_value=2 * math.pi, exclude_max=True)


def low_eigs(h: SpinHamiltonian, k: int) -> np.ndarray:
    return eig_hermitian(realize_spin(h)).values[:k]


class TestDressedAlgebra:
    @given(theta=angles, phi=phases)
    @settings(max_examples=40, deadline=None)
    def test_dressed_states_orthonormal(self, theta, phi):
        # From sum_P P A P = 2 tr(A) I - A: sum_P d_P^2 = <l|l>^2,
        # sum_P d_P o_P = <l|l><l|h> and
        # sum_P |o_P|^2 = 2 <l|l><h|h> - |<l|h>|^2.
        co = mediator_coefficients(theta, phi)
        assert sum(co.d[p] ** 2 for p in AXES) == pytest.approx(1.0, abs=1e-12)
        assert abs(sum(co.d[p] * co.o[p] for p in AXES)) < 1e-12
        assert sum(abs(co.o[p]) ** 2 for p in AXES) == pytest.approx(2.0, abs=1e-12)

    @given(theta=angles, phi=phases)
    @example(theta=0.7, phi=1.3)
    @settings(max_examples=40, deadline=None)
    def test_mediator_matrix_is_unitary(self, theta, phi):
        # P|l> = d_P |l> + conj(o_P) |h> is a unit vector in span{|l>, |h>}
        # exactly when the splitting rotation is unitary.
        co = mediator_coefficients(theta, phi)
        for p in AXES:
            assert co.d[p] ** 2 + abs(co.o[p]) ** 2 == pytest.approx(1.0, abs=1e-12)

    @given(theta=angles, phi=phases)
    @settings(max_examples=40, deadline=None)
    def test_dressed_elements_closed_forms(self, theta, phi):
        d = mediator_coefficients(theta, phi).d
        assert d["X"] == pytest.approx(math.sin(2 * theta) * math.cos(phi), abs=1e-12)
        assert d["Y"] == pytest.approx(math.sin(2 * theta) * math.sin(phi), abs=1e-12)
        assert d["Z"] == pytest.approx(math.cos(2 * theta), abs=1e-12)

    @given(theta=angles, phi=phases)
    @settings(max_examples=40, deadline=None)
    def test_pair_factors_trigonometric_forms(self, theta, phi):
        co = mediator_coefficients(theta, phi)
        assert co.pair_factor("X", "Y") == pytest.approx(
            math.sin(2 * theta) ** 2 * math.sin(2 * phi), abs=1e-12)
        assert co.pair_factor("X", "Z") == pytest.approx(
            math.sin(4 * theta) * math.cos(phi), abs=1e-12)
        assert co.pair_factor("Y", "Z") == pytest.approx(
            math.sin(4 * theta) * math.sin(phi), abs=1e-12)

    @given(theta=angles, phi=phases)
    @settings(max_examples=40, deadline=None)
    def test_cross_magnitudes_sum_to_two(self, theta, phi):
        co = mediator_coefficients(theta, phi)
        total = sum(abs(co.o[p]) ** 2 for p in AXES)
        assert total == pytest.approx(2.0, abs=1e-12)

    def test_equal_rotation_quarter_phase(self):
        eff = mediator_effective(math.pi / 4, math.pi / 4, 1.0, 10.0)
        assert eff.pairs[("X", "Y")] == pytest.approx(0.1, abs=1e-12)
        assert eff.pairs[("X", "Z")] == pytest.approx(0.0, abs=1e-12)
        assert eff.pairs[("Y", "Z")] == pytest.approx(0.0, abs=1e-12)
        assert eff.fields["X"] == pytest.approx(math.sqrt(0.5), abs=1e-12)
        assert eff.fields["Y"] == pytest.approx(math.sqrt(0.5), abs=1e-12)
        assert eff.fields["Z"] == pytest.approx(0.0, abs=1e-12)
        assert eff.constant == pytest.approx(-0.2, abs=1e-12)

    def test_eighth_rotation_couples_x_to_z(self):
        # Sign pinned by TestDenseOracle below: at theta = pi/8, phi = 0 the
        # XZ coefficient is +lambda^2/delta.
        eff = mediator_effective(math.pi / 8, 0.0, 1.0, 10.0)
        assert eff.pairs[("X", "Z")] == pytest.approx(0.1, abs=1e-12)
        assert eff.pairs[("X", "Y")] == pytest.approx(0.0, abs=1e-12)
        assert eff.pairs[("Y", "Z")] == pytest.approx(0.0, abs=1e-12)

    def test_zero_rotation_decouples_everything(self):
        eff = mediator_effective(0.0, 0.0, 1.0, 10.0)
        assert all(abs(v) < 1e-12 for v in eff.pairs.values())
        assert eff.fields["Z"] == pytest.approx(1.0)

    @pytest.mark.parametrize("axis", AXES)
    def test_frozen_angles_kill_their_axis(self, axis):
        co = mediator_coefficients(*FROZEN_ANGLES[axis])
        assert abs(co.o[axis]) <= 1e-12
        assert co.d[axis] == pytest.approx(1.0, abs=1e-12)
        for other in AXES:
            if other != axis:
                assert abs(co.o[other]) == pytest.approx(1.0, abs=1e-12)
                assert co.d[other] == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("axis", AXES)
    def test_frozen_angles_decouple_transverse_pair(self, axis):
        # The two surviving axes never cross-couple: second order produces
        # only same-axis pairs out of a frozen mediator.
        theta, phi = FROZEN_ANGLES[axis]
        co = mediator_coefficients(theta, phi)
        others = [p for p in AXES if p != axis]
        assert abs(co.pair_factor(*others)) <= 1e-12


def bare_two_slot(theta, phi, eps, delta, axis_a, axis_b):
    slots = {axis_a: ((0, axis_a, eps),), axis_b: ((1, axis_b, eps),)}
    g = MediatorGadget(2, "entangle", theta, phi, eps, delta, slots)
    terms, offset = gadget_hamiltonian(g)
    return g, SpinHamiltonian(3, terms), offset


class TestDenseOracle:
    """Dense diagonalization of bare gadgets fixes every model sign."""

    @pytest.mark.parametrize("theta,phi,axis_a,axis_b", [
        (math.pi / 4, math.pi / 4, "X", "Y"),
        (math.pi / 8, 0.0, "X", "Z"),
        (math.pi / 8, math.pi / 2, "Y", "Z"),
        (0.61, 2.2, "X", "Y"),
        (0.61, 2.2, "X", "Z"),
        (0.61, 2.2, "Y", "Z"),
    ])
    def test_model_matches_dense_low_spectrum(self, theta, phi, axis_a, axis_b):
        eps, delta = 1e-3, 1.0
        g, bare, offset = bare_two_slot(theta, phi, eps, delta, axis_a, axis_b)
        model = gadget_model(g)
        dense = low_eigs(bare, 4) + offset
        predicted = eig_hermitian(realize_spin(model)).values
        assert np.abs(dense - predicted).max() < 30 * eps ** 3

    def test_eighth_rotation_sign_against_dense(self):
        # theta = pi/8, phi = 0 realizes +eps^2/delta X_0 Z_1: flipping the
        # model's pair sign must break agreement with the dense spectrum.
        eps, delta = 1e-3, 1.0
        g, bare, offset = bare_two_slot(math.pi / 8, 0.0, eps, delta, "X", "Z")
        dense = low_eigs(bare, 4) + offset
        model = gadget_model(g)
        good = np.abs(dense - eig_hermitian(realize_spin(model)).values).max()
        flipped_terms = [t.scaled(-1.0) if t.weight == 2 else t
                         for t in model.terms]
        flipped = SpinHamiltonian(2, flipped_terms)
        bad = np.abs(dense - eig_hermitian(realize_spin(flipped)).values).max()
        assert good < 30 * eps ** 3
        assert bad > eps ** 2 / delta

    def test_model_matches_mediator_effective(self):
        g, _, _ = bare_two_slot(0.61, 2.2, 0.05, 1.0, "X", "Z")
        model = {t.factors: t.coefficient for t in gadget_model(g).terms}
        eff = mediator_effective(0.61, 2.2, 0.05, 1.0, axes=("X", "Z"))
        assert model[((0, "X"), (1, "Z"))] == pytest.approx(
            eff.pairs[("X", "Z")], rel=1e-12)
        assert model[((0, "X"),)] == pytest.approx(eff.fields["X"], rel=1e-12)
        assert model[((1, "Z"),)] == pytest.approx(eff.fields["Z"], rel=1e-12)
        assert model[()] == pytest.approx(eff.constant, rel=1e-12)


class TestFreezerModels:
    def test_heisenberg_freezer_closed_forms(self):
        delta, tau = 1e6, 0.08
        lam = math.sqrt(tau * delta)
        h = math.sqrt(tau * delta / 2)
        slots = {ax: ((0, ax, h), (1, ax, -h)) for ax in AXES}
        g = MediatorGadget(2, "freeze-heisenberg", *FROZEN_ANGLES["Z"],
                           lam, delta, slots, frozen_axis="Z")
        model = {t.factors: t.coefficient for t in gadget_model(g).terms}
        assert model[((0, "X"), (1, "X"))] == pytest.approx(tau, rel=1e-12)
        assert model[((0, "Y"), (1, "Y"))] == pytest.approx(tau, rel=1e-12)
        assert ((0, "Z"), (1, "Z")) not in model
        assert model[((0, "Z"),)] == pytest.approx(h + 2 * h * h / delta, rel=1e-12)
        assert model[((1, "Z"),)] == pytest.approx(-h + 2 * h * h / delta, rel=1e-12)
        assert model[()] == pytest.approx(-4 * h * h / delta, rel=1e-12)

    def test_heisenberg_freezer_dense_spectrum(self):
        delta, tau = 1e6, 0.08
        lam = math.sqrt(tau * delta)
        h = math.sqrt(tau * delta / 2)
        slots = {ax: ((0, ax, h), (1, ax, -h)) for ax in AXES}
        g = MediatorGadget(2, "freeze-heisenberg", *FROZEN_ANGLES["Z"],
                           lam, delta, slots, frozen_axis="Z")
        terms, offset = gadget_hamiltonian(g)
        dense = low_eigs(SpinHamiltonian(3, terms), 4) + offset
        predicted = eig_hermitian(realize_spin(gadget_model(g))).values
        assert np.abs(dense - predicted).max() < 10 * lam ** 3 / delta ** 2

    def test_pair_freezer_keeps_only_wanted_axis(self):
        delta, tau = 1e6, 0.08
        lam = math.sqrt(tau * delta)
        s = math.sqrt(tau * delta / 2)
        slots = {"X": ((0, "X", s), (1, "X", -s)),
                 "Y": ((0, "Y", s), (1, "Y", -s))}
        g = MediatorGadget(2, "freeze-pair", *FROZEN_ANGLES["Y"],
                           lam, delta, slots, frozen_axis="Y")
        pairs = {t.factors: t.coefficient
                 for t in gadget_model(g).terms if t.weight == 2}
        assert pairs == {((0, "X"), (1, "X")): pytest.approx(tau, rel=1e-12)}
        terms, offset = gadget_hamiltonian(g)
        dense = low_eigs(SpinHamiltonian(3, terms), 4) + offset
        predicted = eig_hermitian(realize_spin(gadget_model(g))).values
        assert np.abs(dense - predicted).max() < 10 * lam ** 3 / delta ** 2


def model_reference(g, co):
    """The gadget model expanded through the general Pauli-string product."""
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
                    phase, factors = multiply_factor_tuples(
                        ((site_p, ax_p),), ((site_q, ax_q),))
                    add(factors, c_pq * phase * s_p * s_q)
    scale = max((abs(c) for c in acc.values()), default=1.0)
    assert all(abs(c.imag) <= 1e-8 * scale for c in acc.values())
    return {f: c.real for f, c in acc.items() if abs(c.real) > 1e-14 * scale}


class TestModelExpansion:
    """The gadget model's single-site products against the general product."""

    @pytest.mark.parametrize("source", [
        "spins 2\n0.5 X@0 Y@1\n",
        "spins 2\n-0.7 Z@0 Z@1\n",
        "spins 3\n0.5 X@0 Y@1\n-0.25 Z@1 X@2\n",
    ], ids=["mixed", "same-axis", "shared-site"])
    def test_matches_general_product(self, source):
        plan = gadgets.compile(spin_from_text(source), 0.5)
        for g in plan.gadgets:
            co = mediator_coefficients(g.theta, g.phi)
            got = gadgets._model_coefficients(g, co)
            want = model_reference(g, co)
            assert list(got) == list(want)
            assert all(got[f] == want[f] for f in want)
        # Freezers attach one site to several slots, so both the same-site
        # and the two-site products are compared.
        assert plan.freezing_gadgets()


class TestGadgetValidation:
    def good(self, **kw):
        base = dict(mediator=2, layer="entangle", theta=0.3, phi=0.4,
                    lam=1.0, delta=100.0,
                    slots={"X": ((0, "X", 1.0),), "Y": ((1, "Y", 1.0),)})
        base.update(kw)
        return MediatorGadget(**base)

    def test_valid_gadget_builds(self):
        g = self.good()
        assert g.sites() == (0, 1)

    def test_angle_ranges(self):
        with pytest.raises(ValidationError):
            self.good(theta=-0.1)
        with pytest.raises(ValidationError):
            self.good(theta=2.0)
        with pytest.raises(ValidationError):
            self.good(phi=-0.1)
        with pytest.raises(ValidationError):
            self.good(phi=2 * math.pi)

    def test_scale_hierarchy(self):
        with pytest.raises(ValidationError):
            self.good(delta=9.0)
        self.good(delta=10.0)   # boundary ratio is allowed
        with pytest.raises(ValidationError):
            self.good(lam=0.0)
        with pytest.raises(ValidationError):
            self.good(delta=-1.0)

    def test_slot_constraints(self):
        with pytest.raises(ValidationError):
            self.good(slots={"X": ((2, "X", 1.0),)})
        with pytest.raises(ValidationError):
            self.good(slots={"X": ((0, "X", 1.5),)})
        with pytest.raises(ValidationError):
            self.good(slots={"Q": ((0, "X", 1.0),)})
        with pytest.raises(ValidationError):
            self.good(slots={"X": ((0, "Q", 1.0),)})
        with pytest.raises(ValidationError):
            self.good(layer="melt")

    def test_negative_indices_are_rejected(self):
        # gadget_hamiltonian builds its terms from these indices unchecked.
        with pytest.raises(ValidationError, match="negative site"):
            self.good(slots={"X": ((-1, "X", 1.0),)})
        with pytest.raises(ValidationError, match="negative mediator"):
            self.good(mediator=-2)

    def test_third_axis(self):
        assert third_axis("X", "Y") == "Z"
        assert third_axis("Z", "X") == "Y"
        with pytest.raises(ValidationError):
            third_axis("X", "X")


class TestScheduler:
    def test_single_layer_tight_precision(self):
        (rec,) = schedule_scales([("entangle", 1)], 1e-3)
        assert rec.lam == pytest.approx(1000.0)
        assert rec.delta == pytest.approx(1e6)
        assert rec.budget == pytest.approx(1e-3)

    def test_single_layer_unconstrained(self):
        (rec,) = schedule_scales([("entangle", 1)], math.inf)
        assert rec.lam == pytest.approx(10.0)
        assert rec.delta == pytest.approx(100.0)

    def test_three_layer_ladder(self):
        recs = schedule_scales(
            [("entangle", 1), ("freeze-pair", 2), ("freeze-heisenberg", 4)], 0.5)
        assert [(r.lam, r.delta) for r in recs] == [
            (pytest.approx(10.0), pytest.approx(100.0)),
            (pytest.approx(1200.0), pytest.approx(144000.0)),
            (pytest.approx(34560000.0), pytest.approx(995328000000.0)),
        ]
        assert sum(r.budget for r in recs) <= 0.5 + 1e-12

    def test_ladder_invariants(self):
        recs = schedule_scales(
            [("decompose", 2), ("entangle", 5), ("freeze-pair", 10),
             ("freeze-heisenberg", 20)], 0.05)
        prev_lam, prev_delta = 1.0, None
        for rec in recs:
            assert rec.delta >= 10 * rec.lam * (1 - 1e-12)
            if prev_delta is not None:
                assert rec.lam >= 10 * prev_delta * (1 - 1e-12)
            assert rec.lam ** 2 / rec.delta == pytest.approx(prev_lam, rel=1e-12)
            prev_lam, prev_delta = rec.lam, rec.delta
        assert sum(r.budget for r in recs) <= 0.05 + 1e-12

    def test_tighter_precision_grows_scales(self):
        counts = [("entangle", 3), ("freeze-pair", 6), ("freeze-heisenberg", 12)]
        loose = schedule_scales(counts, 1.0)
        tight = schedule_scales(counts, 1e-3)
        for a, b in zip(loose, tight):
            assert b.lam >= a.lam
            assert b.delta >= a.delta
        assert sum(r.budget for r in tight) <= 1e-3 + 1e-15

    def test_safety_knob(self):
        (rec,) = schedule_scales([("entangle", 1)], math.inf, safety=100.0)
        assert rec.lam == pytest.approx(100.0)
        assert rec.delta == pytest.approx(10000.0)

    @pytest.mark.parametrize("precision", [0.0, -1.0, float("nan")])
    def test_invalid_precision(self, precision):
        with pytest.raises(ScheduleError):
            schedule_scales([("entangle", 1)], precision)

    @pytest.mark.parametrize("safety", [5.0, 9.999, float("inf"), float("nan")])
    def test_safety_below_the_gadget_floor_is_refused(self, safety):
        with pytest.raises(ScheduleError, match="at least 10.0"):
            schedule_scales([("entangle", 1)], 0.5, safety=safety)
        # Refused before any gadget is built, also for an empty source.
        with pytest.raises(ScheduleError, match="at least 10.0"):
            gadgets.compile(single_coupling(0.5), 0.5, safety=safety)
        with pytest.raises(ScheduleError, match="at least 10.0"):
            gadgets.compile(SpinHamiltonian(2), 0.5, safety=safety)

    def test_invalid_layer_requests(self):
        with pytest.raises(ScheduleError):
            schedule_scales([("melt", 1)], 0.1)
        with pytest.raises(ScheduleError):
            schedule_scales([("entangle", 0)], 0.1)
        with pytest.raises(ScheduleError):
            schedule_scales([("freeze-pair", 1), ("entangle", 1)], 0.1)
        with pytest.raises(ScheduleError):
            schedule_scales([("entangle", 1), ("entangle", 1)], 0.1)

    def test_overflow_is_reported(self):
        with pytest.raises(ScheduleError):
            schedule_scales(
                [("decompose", 1), ("entangle", 2), ("freeze-pair", 4),
                 ("freeze-heisenberg", 8)], 1e-200)


def single_coupling(coefficient, axis_a="X", axis_b="Y"):
    return SpinHamiltonian(2, [PauliTerm(coefficient, [(0, axis_a), (1, axis_b)])])


class TestCompile:
    def test_mixed_axis_coupling_counts(self):
        plan = gadgets.compile(single_coupling(0.5), 0.5)
        assert plan.num_spins == 9
        assert len(plan.gadgets) == 7
        assert len(plan.heisenberg) == 8
        assert [(r.name, r.count) for r in plan.layers] == [
            ("entangle", 1), ("freeze-pair", 2), ("freeze-heisenberg", 4)]
        assert len(plan.layer_gadgets("freeze-heisenberg")) == 4

    def test_same_axis_coupling_counts(self):
        plan = gadgets.compile(
            SpinHamiltonian(2, [PauliTerm(-0.7, [(0, "Z"), (1, "Z")])]), 1.0)
        assert plan.num_spins == 17
        assert len(plan.gadgets) == 15
        assert len(plan.heisenberg) == 16
        assert [(r.name, r.count) for r in plan.layers] == [
            ("decompose", 1), ("entangle", 2), ("freeze-pair", 4),
            ("freeze-heisenberg", 8)]

    def test_final_couplings_share_one_magnitude(self):
        plan = gadgets.compile(single_coupling(0.5), 0.5)
        rec = plan.layers[-1]
        expected = 2 ** -0.75 * rec.lam
        for _, _, strength in plan.heisenberg:
            assert abs(strength) == pytest.approx(expected, rel=1e-12)

    def test_sign_pattern_per_freezer_quartet(self):
        # Each pair freezer hands one positive and one negative strength to
        # its two Heisenberg freezers; those re-split as (+, -) and (+, +).
        plan = gadgets.compile(single_coupling(0.5), 0.5)
        signs = [math.copysign(1, s) for _, _, s in plan.heisenberg]
        assert signs == [1, -1, 1, 1, 1, -1, 1, 1]

    def test_compiled_is_heisenberg_plus_fields(self):
        plan = gadgets.compile(single_coupling(0.5), 0.5)
        assert plan.compiled.max_locality() == 2
        pair_terms = [t for t in plan.compiled.terms if t.weight == 2]
        assert len(pair_terms) == 3 * len(plan.heisenberg)
        by_edge = {}
        for t in pair_terms:
            (a, pa), (b, pb) = t.factors
            assert pa == pb
            by_edge.setdefault((a, b), []).append(t.coefficient)
        for (a, b), coeffs in by_edge.items():
            assert len(coeffs) == 3
            assert max(coeffs) == pytest.approx(min(coeffs), rel=1e-12)

    def test_field_and_constant_passthrough(self):
        src = SpinHamiltonian(2, [PauliTerm(0.25, []), PauliTerm(-0.8, [(1, "Z")])])
        plan = gadgets.compile(src, 0.1)
        assert plan.gadgets == ()
        assert plan.layers == ()
        assert plan.offset == pytest.approx(0.25)
        assert plan.total_error_budget == 0.0
        assert plan.compiled == SpinHamiltonian(2, [PauliTerm(-0.8, [(1, "Z")])])

    def test_negligible_coupling_compiles_to_nothing(self):
        src = SpinHamiltonian(2, [PauliTerm(1e-14, [(0, "X"), (1, "Y")])])
        plan = gadgets.compile(src, 0.1)
        assert plan.gadgets == ()

    def test_oversized_coupling_rejected(self):
        with pytest.raises(ValidationError):
            gadgets.compile(single_coupling(1.5), 0.1)

    def test_three_local_source_rejected(self):
        src = SpinHamiltonian(
            3, [PauliTerm(0.5, [(0, "X"), (1, "X"), (2, "X")])])
        with pytest.raises(ValidationError):
            gadgets.compile(src, 0.1)

    def test_two_couplings_double_the_chain(self):
        src = SpinHamiltonian(3, [PauliTerm(0.5, [(0, "X"), (1, "Y")]),
                                  PauliTerm(-0.25, [(1, "Z"), (2, "X")])])
        plan = gadgets.compile(src, 1.0)
        assert [(r.name, r.count) for r in plan.layers] == [
            ("entangle", 2), ("freeze-pair", 4), ("freeze-heisenberg", 8)]
        assert len(plan.heisenberg) == 16
        assert plan.num_spins == 3 + 14

    def test_precision_changes_scales_not_structure(self):
        loose = gadgets.compile(single_coupling(0.5), 1.0)
        tight = gadgets.compile(single_coupling(0.5), 0.25)
        assert tight.total_error_budget <= 0.25 + 1e-12
        assert [(g.layer, g.mediator, g.frozen_axis) for g in loose.gadgets] == \
            [(g.layer, g.mediator, g.frozen_axis) for g in tight.gadgets]
        assert [(a, b) for a, b, _ in loose.heisenberg] == \
            [(a, b) for a, b, _ in tight.heisenberg]
        assert tight.layers[-1].lam > loose.layers[-1].lam

    def test_compile_is_deterministic(self):
        src = SpinHamiltonian(3, [PauliTerm(0.5, [(0, "X"), (1, "Y")]),
                                  PauliTerm(0.125, [(0, "Z"), (2, "Z")])])
        assert gadgets.compile(src, 0.7) == gadgets.compile(src, 0.7)

    def test_plan_text_is_frozen(self):
        # Plans must stay byte-identical across releases for the same source;
        # any moved bit in the plan changes this digest.
        text = plan_to_text(gadgets.compile(seeded_mixed_source(), 0.5))
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == (
            "3a54c43a72329ed237475a00c666345e0a79f97bcd033e916407a66ca6f72f2d")

    @pytest.mark.parametrize("source,digest", [
        ("spins 3\n0.5 X@0 Y@1\n-0.75 Z@1 X@2\n",
         "24fb561c0fe5b36980cf03439a8c7e46f2f78f180573a1984d876f7fa1b4d025"),
        ("spins 3\n0.5 Z@0 Z@1\n-0.25 X@1 X@2\n",
         "212fba581ab8550cae87f42e28a06f5d1e81d560901966ffa9c2c2c24eefd737"),
        ("spins 3\n0.5 X@0 Y@1\n0.25 Y@0 Z@1\n-0.5 X@1 Z@2\n",
         "4486679f43a51627d21f7b4ea806d0584f058b7c465271957a5565e8fda2906b"),
        ("spins 2\n0.3 Z@0\n-0.2 X@1\n0.6 Y@0 Z@1\n1.5\n",
         "8eb99c4ffbcf504e1071eca17432dd7121a37f7e2a8acefdb3e7cb7635f30b6d"),
    ], ids=["mixed", "same-axis", "shared-sites", "fields"])
    def test_plan_bytes_are_pinned(self, source, digest):
        # Plans must stay byte-identical across releases for the same source;
        # one source per compile path (mixed, same-axis, shared sites, fields).
        text = plan_to_text(gadgets.compile(spin_from_text(source), 0.5))
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest

    def test_one_coefficient_set_per_splitting_angle(self, monkeypatch):
        calls = []
        original = gadgets.mediator_coefficients

        def counted(theta, phi):
            calls.append((theta, phi))
            return original(theta, phi)

        monkeypatch.setattr(gadgets, "mediator_coefficients", counted)
        src = SpinHamiltonian(4, [PauliTerm(0.5, [(0, "X"), (1, "Y")]),
                                  PauliTerm(-0.25, [(1, "Z"), (2, "X")]),
                                  PauliTerm(0.75, [(2, "Y"), (3, "Z")])])
        plan = gadgets.compile(src, 0.5)
        assert len(plan.gadgets) == 21
        # Three entangler angles plus at most the three frozen angles.
        assert len(calls) == len(set(calls)) <= 6


def seeded_mixed_source(seed=6, spins=8, couplings=6):
    """Distinct mixed-axis couplings plus fields on even sites, from ``seed``."""
    rng = random.Random(seed)
    terms = {}
    while len(terms) < couplings:
        i, j = sorted(rng.sample(range(spins), 2))
        a, b = rng.sample(AXES, 2)
        terms.setdefault(((i, a), (j, b)), rng.uniform(-1, 1))
    for site in range(0, spins, 2):
        terms.setdefault(((site, rng.choice(AXES)),), rng.uniform(-1, 1))
    return SpinHamiltonian(spins, [PauliTerm(c, f) for f, c in terms.items()])


class TestVerifyPlan:
    def test_mixed_coupling_low_spectrum(self):
        plan = gadgets.compile(single_coupling(0.5), 0.5)
        report = verify_plan(plan)
        assert report.passed
        assert report.measured <= report.tolerance
        assert report.budget == pytest.approx(plan.total_error_budget)
        assert report.source_spectrum.shape == (4,)

    def test_verification_fails_under_absurd_tolerance(self):
        plan = gadgets.compile(single_coupling(0.5), 0.5)
        report = verify_plan(plan, tolerance_factor=1e-12)
        assert not report.passed

    def test_empty_plan_verifies_exactly(self):
        src = SpinHamiltonian(2, [PauliTerm(0.25, []), PauliTerm(-0.8, [(1, "Z")])])
        report = verify_plan(gadgets.compile(src, 0.1))
        assert report.passed
        assert report.measured <= 1e-12

    def test_disjoint_couplings_verify_by_component(self):
        src = SpinHamiltonian(4, [PauliTerm(0.5, [(0, "X"), (1, "Y")]),
                                  PauliTerm(-0.3, [(2, "Z"), (3, "X")])])
        plan = gadgets.compile(src, 0.5)
        assert plan.num_spins == 18
        report = verify_plan(plan)
        assert report.passed
        assert report.source_spectrum.shape == (16,)

    def test_dense_limit_applies_per_component(self, monkeypatch):
        src = SpinHamiltonian(3, [PauliTerm(0.5, [(0, "X"), (1, "Y")]),
                                  PauliTerm(0.3, [(2, "Z")])])
        plan = gadgets.compile(src, 0.5)
        assert plan.num_spins == 10
        monkeypatch.setenv("HAMLOWER_DENSE_LIMIT", "9")
        assert verify_plan(plan).passed
        monkeypatch.setenv("HAMLOWER_DENSE_LIMIT", "8")
        with pytest.raises(ResourceLimitError, match="component of 9 spins"):
            verify_plan(plan)

    def test_oversized_field_only_source_refuses_verification(self, monkeypatch):
        # Fields compile unchanged, so every compiled component is one spin;
        # the source size alone must stop the 2^15-value spectrum merge.
        monkeypatch.delenv("HAMLOWER_DENSE_LIMIT", raising=False)
        src = SpinHamiltonian(15, [PauliTerm(0.1, [(i, "Z")]) for i in range(15)])
        plan = gadgets.compile(src, 0.5)
        assert max(len(c) for c in spin_components(plan.compiled)) == 1
        with pytest.raises(ResourceLimitError, match="source system has 15 spins"):
            verify_plan(plan)

    def test_oversized_plan_refuses_dense_verification(self):
        plan = gadgets.compile(
            SpinHamiltonian(2, [PauliTerm(0.5, [(0, "Z"), (1, "Z")])]), 1.0)
        with pytest.raises(ResourceLimitError):
            verify_plan(plan)

    def test_all_freezers_have_silent_frozen_axis(self):
        plan = gadgets.compile(single_coupling(0.5), 0.5)
        residuals = frozen_cross_residuals(plan)
        assert len(residuals) == 6
        assert all(r <= 1e-12 for _, _, r in residuals)


class TestEntanglerRealization:
    def test_scales_and_model_coupling(self):
        check = entangler_realization(PauliTerm(1.0, [(0, "X"), (1, "Y")]), 1e-2)
        assert check.gadget.lam == pytest.approx(100.0)
        assert check.gadget.delta == pytest.approx(10000.0)
        pairs = {t.factors: t.coefficient
                 for t in check.model.terms if t.weight == 2}
        assert pairs[((0, "X"), (1, "Y"))] == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.parametrize("coefficient,axis_a,axis_b", [
        (1.0, "X", "Y"), (-0.6, "X", "Y"), (0.3, "X", "Z"),
        (-1.0, "Y", "Z"), (0.77, "Z", "Y"),
    ])
    def test_low_spectrum_matches_model(self, coefficient, axis_a, axis_b):
        term = PauliTerm(coefficient, [(0, axis_a), (1, axis_b)])
        check = entangler_realization(term, 1e-2)
        dense = low_eigs(check.hamiltonian, 4) + check.offset
        predicted = eig_hermitian(realize_spin(check.model)).values
        assert np.abs(dense - predicted).max() <= 10 * check.budget

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValidationError):
            entangler_realization(PauliTerm(0.5, [(0, "X"), (1, "X")]), 0.1)
        with pytest.raises(ValidationError):
            entangler_realization(PauliTerm(1.2, [(0, "X"), (1, "Y")]), 0.1)
        with pytest.raises(ValidationError):
            entangler_realization(PauliTerm(0.5, [(0, "X")]), 0.1)


class TestPlanSerialization:
    @pytest.mark.parametrize("source,precision", [
        (single_coupling(0.5), 0.5),
        (SpinHamiltonian(2, [PauliTerm(-0.7, [(0, "Z"), (1, "Z")])]), 1.0),
        (SpinHamiltonian(3, [PauliTerm(0.5, [(0, "X"), (1, "Y")]),
                             PauliTerm(0.25, []),
                             PauliTerm(-0.1, [(2, "Z")])]), 0.7),
        (SpinHamiltonian(2, [PauliTerm(0.125, [(1, "Y")])]), 0.1),
    ])
    def test_round_trip(self, source, precision):
        plan = gadgets.compile(source, precision)
        assert plan_from_text(plan_to_text(plan)) == plan

    def test_round_trip_preserves_verification(self):
        plan = gadgets.compile(single_coupling(0.5), 0.5)
        again = plan_from_text(plan_to_text(plan))
        assert verify_plan(again).passed

    def test_parse_errors_name_the_line(self):
        with pytest.raises(ParseError, match="gadget-plan"):
            plan_from_text("not a plan\n")
        plan = gadgets.compile(single_coupling(0.5), 0.5)
        text = plan_to_text(plan)
        broken = text.replace("precision", "presicion", 1)
        with pytest.raises(ParseError, match="line 2"):
            plan_from_text(broken)
        with pytest.raises(ParseError, match="end of plan"):
            plan_from_text(text[:len(text) // 2].rsplit("\n", 1)[0])

    def test_bad_slot_token(self):
        plan = gadgets.compile(single_coupling(0.5), 0.5)
        text = plan_to_text(plan)
        line = next(l for l in text.splitlines()
                    if " entangle " in l and ":X:" in l)
        broken = text.replace(line, line.replace(":X:", ":Q:Q:", 1), 1)
        with pytest.raises(ParseError):
            plan_from_text(broken)

    def test_section_errors_name_the_document_line(self):
        lines = plan_to_text(gadgets.compile(single_coupling(0.5), 0.5)).splitlines()
        term = lines.index("source") + 2       # after the section's 'spins' header
        lines[term] = "1.0 Q@0"
        with pytest.raises(ParseError, match=rf"^line {term + 1}: .*'Q'"):
            plan_from_text("\n".join(lines) + "\n")

    def test_unknown_frozen_axis_is_rejected(self):
        lines = plan_to_text(gadgets.compile(single_coupling(0.5), 0.5)).splitlines()
        record = next(i for i, line in enumerate(lines)
                      if line.split()[1:3] == ["freeze-pair", "Y"])
        tokens = lines[record].split()
        tokens[2] = "Q"
        lines[record] = " ".join(tokens)
        with pytest.raises(ParseError, match=rf"^line {record + 1}: .*frozen axis 'Q'"):
            plan_from_text("\n".join(lines) + "\n")

    def test_trailing_content_is_rejected(self):
        text = plan_to_text(gadgets.compile(single_coupling(0.5), 0.5))
        with pytest.raises(ParseError, match="trailing"):
            plan_from_text(text + "junk\n")

    def test_spin_count_must_match_compiled_section(self):
        plan = gadgets.compile(single_coupling(0.5), 0.5)
        text = plan_to_text(plan)
        header = f"\nspins {plan.num_spins}\n"
        assert text.index(header) < text.index("\nsource\n")
        broken = text.replace(header, f"\nspins {plan.num_spins + 1}\n", 1)
        with pytest.raises(ParseError, match="spins"):
            plan_from_text(broken)

    def test_layer_count_must_match_listed_gadgets(self):
        plan = gadgets.compile(single_coupling(0.5), 0.5)
        rec = plan.layers[0]
        text = plan_to_text(plan)
        row = f"{rec.index} {rec.name} {rec.lam!r} {rec.delta!r} {rec.count} "
        assert row in text
        broken = text.replace(row, row.replace(f" {rec.count} ", f" {rec.count + 1} "), 1)
        with pytest.raises(ParseError, match="layer"):
            plan_from_text(broken)

    def test_budgets_must_follow_the_layer_scales(self):
        plan = gadgets.compile(single_coupling(0.5), 0.5)
        text = plan_to_text(plan)
        total = f"\nbudget {plan.total_error_budget!r}\n"
        assert total in text
        with pytest.raises(ParseError, match="not the sum of its layer budgets"):
            plan_from_text(text.replace(total, "\nbudget 1e300\n", 1))
        rec = plan.layers[0]
        row = f" {rec.count} {rec.budget!r}\n"
        assert row in text
        doubled = text.replace(row, f" {rec.count} {2 * rec.budget!r}\n", 1)
        with pytest.raises(ParseError, match=r"layer budgets are not count \* lambda"):
            plan_from_text(doubled)
        scales = f" {rec.lam!r} {rec.delta!r} "
        assert scales in text
        for lam, delta in (("1e200", "1e-5"), ("1.0", "0.0")):    # overflow, zero
            with pytest.raises(ParseError, match="layer budgets"):
                plan_from_text(text.replace(scales, f" {lam} {delta} ", 1))

    @pytest.mark.parametrize("safety", ["5.0", "inf", "nan"])
    def test_safety_below_the_gadget_floor_is_rejected(self, safety):
        text = plan_to_text(gadgets.compile(single_coupling(0.5), 0.5))
        assert "\nsafety 10.0\n" in text
        with pytest.raises(ParseError, match="below the floor 10.0"):
            plan_from_text(text.replace("\nsafety 10.0\n", f"\nsafety {safety}\n", 1))

    def test_nan_slot_strength_is_rejected(self):
        lines = plan_to_text(gadgets.compile(single_coupling(0.5), 0.5)).splitlines()
        record = next(i for i, line in enumerate(lines) if " entangle - " in line)
        tokens = lines[record].split()
        tokens[7] = tokens[7].rsplit(":", 1)[0] + ":nan"
        lines[record] = " ".join(tokens)
        with pytest.raises(ParseError, match=rf"^line {record + 1}: .*slot strength nan"):
            plan_from_text("\n".join(lines) + "\n")

    def test_spins_outside_the_plan_are_rejected(self):
        lines = plan_to_text(gadgets.compile(single_coupling(0.5), 0.5)).splitlines()
        assert "spins 9" in lines
        gadget = next(i for i, line in enumerate(lines) if " entangle - " in line)
        coupling = lines.index("heisenberg 8") + 2
        _, rest = lines[gadget].split(" ", 1)
        a, b, strength = lines[coupling].split()
        for record, line in [
                (gadget, f"77 {rest}"),
                (gadget, lines[gadget].replace("Y:1:Y:", "Y:55:Y:", 1)),
                (coupling, f"{a} 99 {strength}"),
                (coupling, f"99 {b} {strength}")]:
            broken = list(lines)
            broken[record] = line
            with pytest.raises(ParseError,
                               match=rf"^line {record + 1}: .*outside the plan's 9"):
                plan_from_text("\n".join(broken) + "\n")

    def test_heisenberg_section_must_list_the_freezer_slots(self):
        lines = plan_to_text(gadgets.compile(single_coupling(0.5), 0.5)).splitlines()
        header = lines.index("heisenberg 8")
        first, second = header + 2, header + 3
        swapped = list(lines)
        swapped[first], swapped[second] = lines[second], lines[first]
        with pytest.raises(ParseError, match=rf"^line {first + 1}: .*not the next"):
            plan_from_text("\n".join(swapped) + "\n")
        a, b, strength = lines[first].split()
        flipped = list(lines)
        flipped[first] = f"{a} {b} {-float(strength)!r}"
        with pytest.raises(ParseError, match=rf"^line {first + 1}: .*not the next"):
            plan_from_text("\n".join(flipped) + "\n")
        last = header + 9
        short = lines[:header] + ["heisenberg 7"] + lines[header + 1:last] + \
            lines[last + 1:]
        with pytest.raises(ParseError, match="lists 7 couplings; .* hold 8"):
            plan_from_text("\n".join(short) + "\n")
        extra = lines[:header] + ["heisenberg 9"] + lines[header + 1:first + 1] + \
            [lines[first]] + lines[first + 1:]
        with pytest.raises(ParseError, match=rf"^line {first + 2}: .*not the next"):
            plan_from_text("\n".join(extra) + "\n")

    def test_trailing_comments_are_ignored(self):
        plan = gadgets.compile(single_coupling(0.5), 0.5)
        commented = "".join(line + "  # note\n"
                            for line in plan_to_text(plan).splitlines())
        assert plan_from_text(commented) == plan


FLIP = np.array([[0.0, 1.0], [1.0, 0.0]])
HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2)
CNOT = np.array([[1.0, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]])
NAN_FLIP = np.array([[np.nan, 1.0], [1.0, 0.0]])


class TestEmbedGate:
    def test_single_spin_sites(self):
        assert np.abs(embed_gate(FLIP, (0,), 2) - np.kron(FLIP, np.eye(2))).max() < 1e-14
        assert np.abs(embed_gate(FLIP, (1,), 2) - np.kron(np.eye(2), FLIP)).max() < 1e-14

    def test_two_spin_ordering(self):
        assert np.abs(embed_gate(CNOT, (0, 1), 2) - CNOT).max() < 1e-14
        # Reversed site order swaps control and target.
        swapped = embed_gate(CNOT, (1, 0), 2)
        state = np.zeros(4)
        state[1] = 1.0   # |01>: spin 1 is set, so it controls a flip of spin 0
        out = swapped @ state
        expect = np.zeros(4)
        expect[3] = 1.0
        assert np.abs(out - expect).max() < 1e-14

    def test_embedding_in_three_spins(self):
        full = embed_gate(CNOT, (0, 2), 3)
        state = np.zeros(8)
        state[0b100] = 1.0
        out = full @ state
        expect = np.zeros(8)
        expect[0b101] = 1.0
        assert np.abs(out - expect).max() < 1e-14

    @pytest.mark.parametrize("num_spins,sites", [
        (n, sites) for n in (1, 2, 3)
        for k in (1, 2) for sites in itertools.permutations(range(n), k)])
    def test_matches_per_column_reference(self, num_spins, sites):
        rng = np.random.default_rng(len(sites) * 10 + num_spins)
        dim = 2 ** len(sites)
        gate = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        assert np.array_equal(embed_gate(gate, sites, num_spins),
                              embed_gate_reference(gate, sites, num_spins))


def embed_gate_reference(matrix, sites, num_spins):
    """The per-column loop embed_gate used before its tensor permutation."""
    matrix = np.asarray(matrix, dtype=complex)
    dim = 2 ** num_spins
    full = np.zeros((dim, dim), dtype=complex)
    for col in range(dim):
        in_bits = [(col >> (num_spins - 1 - s)) & 1 for s in range(num_spins)]
        sub_col = 0
        for s in sites:
            sub_col = (sub_col << 1) | in_bits[s]
        for sub_row in range(matrix.shape[0]):
            amp = matrix[sub_row, sub_col]
            if amp == 0:
                continue
            out_bits = list(in_bits)
            for idx, s in enumerate(reversed(sites)):
                out_bits[s] = (sub_row >> idx) & 1
            row = 0
            for b in out_bits:
                row = (row << 1) | b
            full[row, col] += amp
    return full


class TestHistory:
    def test_single_identity_gate(self):
        spec = HistorySpec(1, ((np.eye(2), (0,)),))
        result = build_history_hamiltonian(spec)
        assert result.ground_energy == pytest.approx(0.0, abs=1e-12)
        assert result.ground_degeneracy == 2
        assert result.certified

    def test_double_flip_circuit(self):
        spec = HistorySpec(1, ((FLIP, (0,)), (FLIP, (0,))))
        result = build_history_hamiltonian(spec)
        assert result.ground_degeneracy == 2
        assert result.ground_overlap >= 1 - 1e-10
        assert result.certified

    def test_bell_circuit_ground_space(self):
        spec = HistorySpec(2, ((HADAMARD, (0,)), (CNOT, (0, 1))))
        result = build_history_hamiltonian(spec)
        assert result.ground_degeneracy == 4
        assert result.certified
        state = result.history_state
        assert np.linalg.norm(state) == pytest.approx(1.0, abs=1e-12)
        # Final clock block carries the Bell state (|00> + |11>)/sqrt(2).
        final = state.reshape(4, 3)[:, 2] * math.sqrt(3)
        expect = np.array([1.0, 0.0, 0.0, 1.0]) / math.sqrt(2)
        assert np.abs(final - expect).max() < 1e-12

    def test_initial_penalty_selects_one_branch(self):
        spec = HistorySpec(1, ((FLIP, (0,)), (FLIP, (0,))))
        keep = np.array([[1.0, 0.0], [0.0, 0.0]])
        result = build_history_hamiltonian(spec, initial_projector=keep,
                                           penalty=2.0)
        assert result.ground_degeneracy == 1
        assert result.certified

    def test_final_penalty_can_frustrate_the_history(self):
        # Forcing a final state orthogonal to the circuit output lifts the
        # history state off the ground space.
        spec = HistorySpec(1, ((FLIP, (0,)),))
        keep_zero = np.array([[1.0, 0.0], [0.0, 0.0]])
        result = build_history_hamiltonian(
            spec, initial_projector=keep_zero, final_projector=keep_zero,
            penalty=2.0)
        assert result.history_energy > result.ground_energy + 1e-3
        assert not result.certified

    def test_custom_initial_state(self):
        spec = HistorySpec(1, ((HADAMARD, (0,)),))
        psi0 = np.array([0.0, 1.0])
        state = history_state(spec, psi0)
        block = state.reshape(2, 2)
        assert np.abs(block[:, 0] * math.sqrt(2) - psi0).max() < 1e-12
        out = HADAMARD @ psi0
        assert np.abs(block[:, 1] * math.sqrt(2) - out).max() < 1e-12

    def test_degeneracy_counts_input_freedom(self):
        for n in (1, 2, 3):
            spec = HistorySpec(n, ((FLIP, (0,)),))
            result = build_history_hamiltonian(spec)
            assert result.ground_degeneracy == 2 ** n

    @pytest.mark.parametrize("build,message", [
        (lambda: HistorySpec(1, ((NAN_FLIP, (0,)),)), "unitary"),
        (lambda: build_history_hamiltonian(HistorySpec(1, ((FLIP, (0,)),)),
                                           initial_projector=NAN_FLIP), "idempotent"),
        (lambda: history_state(HistorySpec(1, ((FLIP, (0,)),)), psi0=[np.nan, 1.0]),
         "non-finite"),
    ], ids=["gate", "projector", "psi0"])
    def test_nan_inputs_are_rejected(self, build, message):
        with pytest.raises(ValidationError, match=message):
            build()

    def test_validation(self):
        with pytest.raises(ValidationError):
            HistorySpec(1, ((np.array([[1.0, 1.0], [0.0, 1.0]]), (0,)),))
        with pytest.raises(ValidationError):
            HistorySpec(1, ((FLIP, (1,)),))
        with pytest.raises(ValidationError):
            HistorySpec(4, ((FLIP, (0,)),))
        with pytest.raises(ValidationError):
            HistorySpec(1, ())
        with pytest.raises(ValidationError):
            HistorySpec(1, tuple((FLIP, (0,)) for _ in range(9)))
        with pytest.raises(ValidationError):
            HistorySpec(2, ((CNOT, (0, 0)),))
        with pytest.raises(ValidationError):
            build_history_hamiltonian(
                HistorySpec(1, ((FLIP, (0,)),)),
                initial_projector=np.array([[0.5, 0.5], [0.5, 0.8]]))
