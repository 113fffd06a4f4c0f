"""Hubbard lattice construction, exchange physics, and serialization tests."""

import math

import numpy as np
import pytest

from hamlower.errors import (
    ParseError,
    RegimeError,
    ResourceLimitError,
    ValidationError,
)
from hamlower.hubbard import (
    HubbardModel,
    build_hubbard,
    check_regime,
    exact_spectrum,
    exchange_error_budget,
    half_filling_sector,
    heisenberg_from_hubbard,
    hopping_operator,
    hubbard_from_text,
    hubbard_to_text,
    interaction_operator,
    singlet_triplet_splitting,
    verify_exchange,
)
from hamlower import hubbard, operators, sw
from hamlower.operators import (
    AXES,
    FermionOperator,
    PauliTerm,
    SpinHamiltonian,
    component_eig_values,
    default_site_modes,
    eig_hermitian,
    eig_values,
    jordan_map_spin_to_fermion,
    realize_fermion,
    realize_spin,
)


def dimer(t=1.0, u=100.0, fields=()):
    return HubbardModel(2, t, u, ((0, 1),), fields)


class TestModelValidation:
    def test_accepts_simple_chain(self):
        m = HubbardModel(3, 1.0, 50.0, ((0, 1), (1, 2)))
        assert m.num_modes == 6
        assert m.max_degree() == 2
        assert m.fields == ((0.0, 0.0, 0.0),) * 3

    def test_edge_validation(self):
        with pytest.raises(ValidationError):
            HubbardModel(2, 1.0, 10.0, ((0, 0),))
        with pytest.raises(ValidationError):
            HubbardModel(2, 1.0, 10.0, ((0, 2),))
        with pytest.raises(ValidationError):
            HubbardModel(2, 1.0, 10.0, ((0, 1), (1, 0)))

    def test_scalar_validation(self):
        with pytest.raises(ValidationError):
            HubbardModel(2, -1.0, 10.0, ((0, 1),))
        with pytest.raises(ValidationError):
            HubbardModel(2, 1.0, 0.0, ((0, 1),))
        with pytest.raises(ValidationError):
            HubbardModel(0, 1.0, 10.0, ())

    def test_field_table_validation(self):
        with pytest.raises(ValidationError):
            HubbardModel(2, 1.0, 10.0, ((0, 1),), ((0.0, 0.0, 0.0),))
        with pytest.raises(ValidationError):
            HubbardModel(1, 1.0, 10.0, (), ((0.0, math.inf, 0.0),))

    def test_exact_size_cap(self):
        big = HubbardModel(7, 1.0, 100.0, ())
        with pytest.raises(ResourceLimitError):
            build_hubbard(big)
        with pytest.raises(ResourceLimitError):
            half_filling_sector(big)


def reference_hubbard(model):
    """Hopping, repulsion and fields summed term by term, then normal ordered."""
    modes = model.num_modes
    out = FermionOperator(modes, [])
    for i, j in model.edges:
        for spin in (0, 1):
            a = default_site_modes(i)[spin]
            b = default_site_modes(j)[spin]
            out = out + FermionOperator(
                modes, [(-model.t, ((a, True), (b, False)))])
            out = out + FermionOperator(
                modes, [(-model.t, ((b, True), (a, False)))])
    for site in range(model.sites):
        up, down = default_site_modes(site)
        out = out + FermionOperator(
            modes, [(model.u, ((up, True), (up, False), (down, True), (down, False)))])
    for site, row in enumerate(model.fields):
        for axis, b in zip(AXES, row):
            if b != 0.0:
                out = out + jordan_map_spin_to_fermion(
                    PauliTerm(b, [(site, axis)]), model.sites)
    return out.normal_order()


BUILD_MODELS = {
    "ring": HubbardModel(4, 1.3, 140.0, ((0, 1), (1, 2), (2, 3), (3, 0))),
    "chain": HubbardModel(3, 0.7, 80.0, ((0, 1), (1, 2))),
    "xz-fields": HubbardModel(3, 1.0, 100.0, ((0, 1), (1, 2)),
                              ((0.1, 0.0, -0.2), (0.0, 0.0, 0.3), (0.05, 0.0, 0.0))),
    "xyz-fields": HubbardModel(3, 1.0, 100.0, ((0, 1), (1, 2), (2, 0)),
                               ((0.1, 0.2, -0.3), (0.0, -0.1, 0.0), (0.3, 0.1, 0.2))),
}


class TestBuildHubbard:
    @pytest.mark.parametrize("name", sorted(BUILD_MODELS))
    def test_equals_term_by_term_build(self, name):
        assert build_hubbard(BUILD_MODELS[name]) == reference_hubbard(BUILD_MODELS[name])

    @pytest.mark.parametrize("name", sorted(BUILD_MODELS))
    def test_text_is_byte_identical(self, name, monkeypatch):
        text = hubbard_to_text(BUILD_MODELS[name])
        monkeypatch.setattr(hubbard, "build_hubbard", reference_hubbard)
        assert hubbard_to_text(BUILD_MODELS[name]) == text


class TestExactSpectra:
    def test_free_dimer_spectrum(self):
        m = dimer(t=1.0)
        sector = half_filling_sector(m)
        values = eig_hermitian(
            realize_fermion(hopping_operator(m), sector)).values
        assert np.allclose(values, [-2, 0, 0, 0, 0, 2], atol=1e-12)

    def test_atomic_limit_spectrum(self):
        # Without hopping the half-filled dimer has four zero-energy spin
        # states and two doubly-occupied states at U.
        m = HubbardModel(2, 0.0, 25.0, ((0, 1),))
        assert np.allclose(exact_spectrum(m), [0, 0, 0, 0, 25, 25], atol=1e-12)

    def test_dimer_ground_state_closed_form(self):
        m = dimer(t=1.3, u=40.0)
        expected = (m.u - math.sqrt(m.u ** 2 + 16 * m.t ** 2)) / 2
        assert exact_spectrum(m)[0] == pytest.approx(expected, abs=1e-11)

    def test_splitting_approaches_exchange_value(self):
        m = dimer(t=1.0, u=100.0)
        splitting = singlet_triplet_splitting(m)
        assert splitting == pytest.approx(4 * m.t ** 2 / m.u, abs=5e-4)

    def test_triplet_degeneracy(self):
        values = exact_spectrum(dimer())
        assert values[1:4] == pytest.approx([values[1]] * 3, abs=1e-12)
        assert values[1] - values[0] > 1e-3

    def test_zeeman_field_splits_triplet(self):
        m = dimer(fields=((0.0, 0.0, 0.2), (0.0, 0.0, 0.2)))
        values = exact_spectrum(m)
        # The S_z = +/-1 triplet states shift by -/+ 2 * 0.2.
        gaps = np.diff(values[:4])
        assert gaps.max() > 0.3

    def test_number_conservation(self):
        m = dimer()
        op = build_hubbard(m)
        for coeff, mono in op.terms:
            assert sum(1 if d else -1 for _, d in mono) == 0


class TestExchangeModel:
    def test_closed_form_terms(self):
        m = dimer(t=2.0, u=200.0)
        h = heisenberg_from_hubbard(m)
        j = m.t ** 2 / m.u
        expected = SpinHamiltonian(2, [PauliTerm(-j, [])] + [
            PauliTerm(j, [(0, a), (1, a)]) for a in "XYZ"])
        assert h == expected

    def test_singlet_is_ground(self):
        h = heisenberg_from_hubbard(dimer())
        spectrum = eig_hermitian(realize_spin(h))
        singlet = np.zeros(4)
        singlet[1], singlet[2] = 1 / math.sqrt(2), -1 / math.sqrt(2)
        overlap = abs(singlet @ spectrum.vectors[:, 0])
        assert overlap == pytest.approx(1.0, abs=1e-10)
        assert spectrum.values[0] == pytest.approx(-4 * 1.0 / 100.0, rel=1e-12)
        assert spectrum.values[1:] == pytest.approx([0.0] * 3, abs=1e-12)

    def test_fields_pass_through(self):
        m = dimer(fields=((0.1, 0.0, -0.2), (0.0, 0.0, 0.0)))
        h = heisenberg_from_hubbard(m)
        coeffs = {t.factors: t.coefficient for t in h.terms}
        assert coeffs[((0, "X"),)] == pytest.approx(0.1)
        assert coeffs[((0, "Z"),)] == pytest.approx(-0.2)

    def test_regime_guard(self):
        with pytest.raises(RegimeError):
            heisenberg_from_hubbard(HubbardModel(2, 1.0, 9.9, ((0, 1),)))
        check_regime(HubbardModel(2, 1.0, 10.0, ((0, 1),)))
        # Degree raises the bar: a 3-site star with degree 2 needs U >= 20 t.
        with pytest.raises(RegimeError):
            heisenberg_from_hubbard(HubbardModel(3, 1.0, 15.0, ((0, 1), (0, 2))))


class TestVerifyExchange:
    def test_dimer_is_exact(self):
        report = verify_exchange(dimer())
        assert report.passed
        assert report.first_order_norm == 0.0
        assert report.measured <= 1e-10
        assert report.splitting_closed_form == pytest.approx(0.04)
        assert report.splitting_derived == pytest.approx(0.04, abs=5e-4)

    def test_chain_within_budget(self):
        m = HubbardModel(3, 1.0, 100.0, ((0, 1), (1, 2)))
        report = verify_exchange(m)
        assert report.passed
        assert report.measured <= exchange_error_budget(m)

    def test_fields_preserve_the_block_structure(self):
        m = dimer(fields=((0.0, 0.0, 0.3), (0.1, 0.2, 0.0)))
        report = verify_exchange(m)
        assert report.passed
        assert report.first_order_norm == 0.0

    def test_square_with_transverse_fields(self):
        m = HubbardModel(4, 1.0, 200.0,
                         ((0, 1), (1, 2), (2, 3), (3, 0)),
                         ((0.05, 0.0, 0.0),) * 4)
        report = verify_exchange(m)
        assert report.passed

    def test_explicit_tolerance_can_fail(self):
        m = HubbardModel(3, 1.0, 100.0, ((0, 1), (1, 2)))
        # Nonzero transverse fields make the second-order block deviate from
        # the field-free closed form; an absurdly tight tolerance must fail.
        m = HubbardModel(3, 1.0, 100.0, ((0, 1), (1, 2)),
                         ((0.3, 0.0, 0.0), (0.0, 0.0, 0.0), (0.0, 0.0, 0.3)))
        report = verify_exchange(m, tolerance=1e-18)
        assert not report.passed

    def test_regime_guard_applies(self):
        with pytest.raises(RegimeError):
            verify_exchange(HubbardModel(2, 1.0, 5.0, ((0, 1),)))

    def test_index_split_solves_four_matrices_and_no_qr(self, monkeypatch):
        solves = []  # (helper, matrix dim, largest block handed to eigvalsh)
        blocks = []
        eigvalsh = np.linalg.eigvalsh

        def sized(matrix, *args, **kwargs):
            blocks.append(np.shape(matrix)[-1])
            return eigvalsh(matrix, *args, **kwargs)

        def counted(helper):
            def solve(matrix):
                blocks.clear()
                values = helper(matrix)
                solves.append((helper.__name__, np.shape(matrix)[0], max(blocks)))
                return values
            return solve

        def refuse(*args, **kwargs):
            raise AssertionError("QR factorization on the index split")

        monkeypatch.setattr(np.linalg, "eigvalsh", sized)
        monkeypatch.setattr(sw, "eig_values", counted(eig_values))
        monkeypatch.setattr(sw, "component_eig_values",
                            counted(component_eig_values))
        monkeypatch.setattr(hubbard, "eig_values", counted(eig_values))
        monkeypatch.setattr(np.linalg, "qr", refuse)
        ring = BUILD_MODELS["ring"]
        xyz = HubbardModel(ring.sites, ring.t, ring.u, ring.edges,
                           ((0.01, 0.02, -0.03), (0.0, -0.01, 0.02),
                            (0.03, 0.01, 0.0), (-0.02, 0.0, 0.01)))
        assert verify_exchange(xyz).passed
        # On the 70-state sector the low block and h0 + v are solved whole.
        # The high block splits by site occupations (at most two singly
        # occupied sites, so 4 spin states) and v by N-up (36 = 6 * 6).
        assert solves == [("eig_values", 16, 16),
                          ("component_eig_values", 54, 4),
                          ("component_eig_values", 70, 36),
                          ("eig_values", 70, 70)]

    def test_each_input_is_checked_for_hermiticity_once(self, monkeypatch):
        checked = []
        original = operators._checked_hermitian

        def recorded(matrix):
            checked.append(np.array(matrix))
            return original(matrix)

        # Patched wherever the checker is bound, so a direct call counts too.
        for module in (operators, sw, hubbard):
            if hasattr(module, "_checked_hermitian"):
                monkeypatch.setattr(module, "_checked_hermitian", recorded)
        ring = BUILD_MODELS["ring"]
        xyz = HubbardModel(ring.sites, ring.t, ring.u, ring.edges,
                           ((0.01, 0.02, -0.03), (0.0, -0.01, 0.02),
                            (0.03, 0.01, 0.0), (-0.02, 0.0, 0.01)))
        assert verify_exchange(xyz).passed
        sector = half_filling_sector(xyz)
        h0 = realize_fermion(interaction_operator(xyz), sector)
        v = realize_fermion(hopping_operator(xyz), sector).real
        low = hubbard.singly_occupied_projector(sector, xyz.sites).any(axis=1)
        # h0 is checked through its two diagonal blocks, which the split
        # solves; the cross blocks are read by the block-diagonality test.
        inputs = {"h0 low block": h0[np.ix_(low, low)],
                  "h0 high block": h0[np.ix_(~low, ~low)],
                  "v": v, "h0 + v": h0 + v, "h0": h0}
        seen = {name: sum(m.shape == want.shape and np.array_equal(m, want)
                          for m in checked)
                for name, want in inputs.items()}
        assert seen == {"h0 low block": 1, "h0 high block": 1,
                        "v": 1, "h0 + v": 1, "h0": 0}
        assert len(checked) == 4

    @pytest.mark.parametrize("name", sorted(BUILD_MODELS))
    def test_split_keeps_hopping_real(self, name, monkeypatch):
        seen = []
        original = sw.effective_hamiltonian

        def spy(h, v, *args, **kwargs):
            seen.append((np.iscomplexobj(h), np.iscomplexobj(v)))
            return original(h, v, *args, **kwargs)

        monkeypatch.setattr(sw, "effective_hamiltonian", spy)
        model = BUILD_MODELS[name]
        assert verify_exchange(model).passed
        y_field = any(row[1] != 0.0 for row in model.fields)
        assert seen == [(y_field, False)]


class TestSerialization:
    def test_round_trip_plain(self):
        m = HubbardModel(3, 1.5, 60.0, ((0, 1), (1, 2)))
        assert hubbard_from_text(hubbard_to_text(m)) == m

    def test_round_trip_with_fields(self):
        m = dimer(fields=((0.0, 0.0, 0.3), (0.1, 0.0, 0.0)))
        assert hubbard_from_text(hubbard_to_text(m)) == m

    def test_operator_section_present_for_real_models(self):
        text = hubbard_to_text(dimer())
        assert "operator" in text
        assert "modes 4" in text

    def test_operator_section_omitted_for_y_fields(self):
        m = dimer(fields=((0.0, 0.4, 0.0), (0.0, 0.0, 0.0)))
        assert "operator" not in hubbard_to_text(m)
        assert hubbard_from_text(hubbard_to_text(m)) == m

    def test_parse_errors_name_the_line(self):
        with pytest.raises(ParseError, match="hubbard"):
            hubbard_from_text("spins 2\n")
        good = hubbard_to_text(dimer())
        with pytest.raises(ParseError, match="line"):
            hubbard_from_text(good.replace("edges 1", "edges x"))
        with pytest.raises(ParseError):
            hubbard_from_text(good.replace("0 1\n", "0 1 9\n"))
        with pytest.raises(ParseError):
            hubbard_from_text("hubbard\nsites 2\nt 1.0\n")

    def test_second_field_row_for_a_site_is_rejected(self):
        text = ("hubbard\nsites 2\nt 1.0\nU 100.0\nedges 1\n0 1\n"
                "fields 2\n0 0.5 0 0\n0 0 0 0.25\n")
        with pytest.raises(ParseError, match="line 9: .*site 0 appears twice"):
            hubbard_from_text(text)

    def test_repeated_edge_names_its_line(self):
        text = ("hubbard\nsites 2\nt 1.0\nU 100.0\nedges 2\n0 1\n1 0\n"
                "fields 0\n")
        with pytest.raises(ParseError, match=r"line 7: .*edge \(1, 0\) appears twice"):
            hubbard_from_text(text)

    def test_operator_section_parse_errors(self):
        header = hubbard_to_text(dimer()).split("operator\n")[0]
        with pytest.raises(ParseError, match="line 10"):
            hubbard_from_text(header + "operator\nmodes 4\n1.0 *1\nend\n")
        with pytest.raises(ParseError, match="mode 5"):
            hubbard_from_text(header + "operator\nmodes 4\n1.0 +5\nend\n")

    def test_trailing_content_is_rejected(self):
        y_field = dimer(fields=((0.0, 0.4, 0.0), (0.0, 0.0, 0.0)))
        with pytest.raises(ParseError, match="operator"):
            hubbard_from_text(hubbard_to_text(y_field) + "junk\n")
        with pytest.raises(ParseError, match="trailing"):
            hubbard_from_text(hubbard_to_text(dimer()) + "junk\n")

    def test_operator_section_must_match_the_model(self):
        lines = hubbard_to_text(dimer()).splitlines()
        first_term = lines.index("operator") + 2
        coeff, rest = lines[first_term].split(" ", 1)
        lines[first_term] = f"{float(coeff) + 1e-6!r} {rest}"
        with pytest.raises(ParseError, match="operator"):
            hubbard_from_text("\n".join(lines) + "\n")

    def test_comments_are_ignored(self):
        text = hubbard_to_text(dimer())
        commented = "# lattice model\n" + text.replace(
            "edges 1", "edges 1  # one bond")
        assert hubbard_from_text(commented) == dimer()


class TestSectorConventions:
    def test_half_filling_dimension(self):
        assert half_filling_sector(dimer()).dimension == 6
        m3 = HubbardModel(3, 1.0, 100.0, ((0, 1),))
        assert half_filling_sector(m3).dimension == 20

    def test_interaction_counts_double_occupancy(self):
        m = dimer(t=0.0 + 1.0, u=30.0)
        sector = half_filling_sector(m)
        h0 = realize_fermion(interaction_operator(m), sector)
        diag = np.diag(h0.real)
        doubles = [sum(1 for s in range(m.sites)
                       if sector.occupations(state)[2 * s]
                       and sector.occupations(state)[2 * s + 1])
                   for state in sector.states]
        assert np.allclose(diag, [m.u * d for d in doubles])
