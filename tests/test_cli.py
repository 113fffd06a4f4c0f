"""Command-line harness tests: workflows, report discipline, exit codes.

Reports must be deterministic outside their '#' header lines, embed the
input file behind a '| ' prefix, and carry a sha256 digest, so most tests
here parse the rendered body rather than mock anything.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import block_diag

import hamlower
from hamlower import sw
from hamlower.cli import main
from hamlower.gadgets import plan_from_text
from hamlower.hubbard import HubbardModel, hubbard_to_text
from hamlower.meanfield import (
    SecondQuantizedHamiltonian,
    embed_ising,
    random_instance,
    ising_to_text,
    second_quantized_to_text,
)
from hamlower.operators import eig_values

SOURCE_TEXT = "spins 2\n0.5 X@0 Y@1\n"
SINGLE_BOND = "ising 1\n0 1 1\n"


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def body_lines(report: str):
    return [line for line in report.splitlines() if not line.startswith("#")]


def field(report: str, key: str) -> str:
    for line in body_lines(report):
        if line.startswith(key + " "):
            return line[len(key) + 1:]
    raise AssertionError(f"report has no {key!r} line")


class TestCompile:
    def test_compiles_and_writes_plan(self, tmp_path, capsys):
        src = tmp_path / "src.txt"
        src.write_text(SOURCE_TEXT)
        out = tmp_path / "plan.txt"
        code, report, _ = run(
            ["compile", str(src), "--precision", "0.5",
             "--output", str(out)], capsys)
        assert code == 0
        plan = plan_from_text(out.read_text())
        assert len(plan.heisenberg) == 8
        assert field(report, "gadgets") == "7"
        assert field(report, "heisenberg-couplings") == "8"
        assert field(report, "spins") == "9"
        assert field(report, "result") == "pass"

    def test_empty_hamiltonian_gives_empty_plan(self, tmp_path, capsys):
        src = tmp_path / "src.txt"
        src.write_text("spins 2\n")
        out = tmp_path / "plan.txt"
        code, report, _ = run(
            ["compile", str(src), "--precision", "0.001",
             "--output", str(out)], capsys)
        assert code == 0
        assert field(report, "gadgets") == "0"
        assert plan_from_text(out.read_text()).gadgets == ()

    def test_report_embeds_digested_input(self, tmp_path, capsys):
        src = tmp_path / "src.txt"
        src.write_text(SOURCE_TEXT)
        _, report, _ = run(
            ["compile", str(src), "--precision", "0.5",
             "--output", str(tmp_path / "p.txt")], capsys)
        digest = hashlib.sha256(SOURCE_TEXT.encode()).hexdigest()
        assert field(report, "input-digest") == f"sha256:{digest}"
        lines = body_lines(report)
        start = lines.index("input-begin")
        end = lines.index("input-end")
        embedded = "\n".join(l[2:] for l in lines[start + 1:end]) + "\n"
        assert embedded == SOURCE_TEXT

    def test_body_is_deterministic(self, tmp_path, capsys):
        src = tmp_path / "src.txt"
        src.write_text(SOURCE_TEXT)
        _, first, _ = run(
            ["compile", str(src), "--precision", "0.5",
             "--output", str(tmp_path / "a.txt")], capsys)
        _, second, _ = run(
            ["compile", str(src), "--precision", "0.5",
             "--output", str(tmp_path / "b.txt")], capsys)
        assert body_lines(first) == body_lines(second)

    @staticmethod
    def compile_onto(out, tmp_path, capsys, source=SOURCE_TEXT):
        src = tmp_path / "src.txt"
        src.write_text(source)
        code, _, _ = run(["compile", str(src), "--precision", "0.5",
                          "--output", str(out)], capsys)
        assert code == 0
        return Path(out).read_bytes()

    def test_compiling_twice_onto_one_path_gives_the_same_bytes(
            self, tmp_path, capsys):
        # The first plan is longer, so a rewrite that left its tail would
        # show.
        out = tmp_path / "plan.txt"
        longer = self.compile_onto(out, tmp_path, capsys,
                                   SOURCE_TEXT + "0.25 Z@0 X@1\n")
        first = self.compile_onto(out, tmp_path, capsys)
        assert len(first) < len(longer)
        assert self.compile_onto(out, tmp_path, capsys) == first
        assert self.compile_onto(tmp_path / "fresh.txt", tmp_path,
                                 capsys) == first

    def test_compiling_onto_a_symlink_rewrites_its_target(self, tmp_path, capsys):
        target = tmp_path / "target.txt"
        target.write_text("old plan\n")
        link = tmp_path / "link.txt"
        link.symlink_to(target)
        plan = self.compile_onto(link, tmp_path, capsys)
        assert link.is_symlink() and link.resolve() == target.resolve()
        assert target.read_bytes() == plan
        assert plan == self.compile_onto(tmp_path / "fresh.txt", tmp_path, capsys)

    def test_both_names_of_a_hard_linked_plan_see_the_new_plan(
            self, tmp_path, capsys):
        first, second = tmp_path / "a.txt", tmp_path / "b.txt"
        first.write_text("old plan\n")
        os.link(first, second)
        plan = self.compile_onto(first, tmp_path, capsys)
        assert second.read_bytes() == plan
        assert os.stat(first).st_ino == os.stat(second).st_ino
        assert plan == self.compile_onto(tmp_path / "fresh.txt", tmp_path, capsys)

    def test_every_stage_has_a_wall_line(self, tmp_path, capsys):
        src = tmp_path / "src.txt"
        src.write_text(SOURCE_TEXT)
        _, report, _ = run(
            ["compile", str(src), "--precision", "0.5",
             "--output", str(tmp_path / "p.txt")], capsys)
        stages = [line.split()[2] for line in report.splitlines()
                  if line.startswith("# wall ")]
        assert stages == ["parse", "compile", "write"]

    def test_safety_below_the_floor_fails_like_a_bad_precision(self, tmp_path, capsys):
        src = tmp_path / "src.txt"
        src.write_text(SOURCE_TEXT)
        out = tmp_path / "p.txt"
        bad_precision = run(["compile", str(src), "--precision", "-1",
                             "--output", str(out)], capsys)
        bad_safety = run(["compile", str(src), "--precision", "0.5",
                          "--safety", "5", "--output", str(out)], capsys)
        assert bad_safety[0] == bad_precision[0] == 1
        assert bad_safety[1] == ""
        assert "safety must be a finite number of at least 10.0" in bad_safety[2]
        assert not out.exists()

    def test_overlarge_coupling_is_a_usage_error(self, tmp_path, capsys):
        src = tmp_path / "src.txt"
        src.write_text("spins 2\n1.5 X@0 Y@1\n")
        code, _, err = run(
            ["compile", str(src), "--precision", "0.5",
             "--output", str(tmp_path / "p.txt")], capsys)
        assert code == 2
        assert "error" in err


class TestVerify:
    @pytest.fixture()
    def plan_file(self, tmp_path, capsys):
        src = tmp_path / "src.txt"
        src.write_text(SOURCE_TEXT)
        out = tmp_path / "plan.txt"
        assert main(["compile", str(src), "--precision", "0.5",
                     "--output", str(out)]) == 0
        capsys.readouterr()
        return out

    def test_compiled_plan_verifies(self, plan_file, capsys):
        code, report, _ = run(["verify", str(plan_file)], capsys)
        assert code == 0
        assert field(report, "result") == "pass"
        stage = field(report, "stage")
        assert stage.startswith("low-spectrum")
        assert stage.endswith("pass")

    def test_report_states_float_floor_below_tolerance(self, plan_file, capsys):
        _, report, _ = run(["verify", str(plan_file)], capsys)
        floor = float(field(report, "floor"))
        tolerance = float(field(report, "stage").split()[2])
        assert 0 < floor < tolerance

    def test_disjoint_couplings_verify(self, tmp_path, capsys):
        src = tmp_path / "src.txt"
        src.write_text("spins 4\n0.5 X@0 Y@1\n-0.3 Z@2 X@3\n")
        out = tmp_path / "plan.txt"
        assert main(["compile", str(src), "--precision", "0.5",
                     "--output", str(out)]) == 0
        capsys.readouterr()
        code, report, _ = run(["verify", str(out)], capsys)
        assert code == 0
        assert field(report, "spins") == "18"
        assert field(report, "result") == "pass"

    def test_every_stage_has_a_wall_line(self, plan_file, capsys):
        _, report, _ = run(["verify", str(plan_file)], capsys)
        stages = [line.split()[2] for line in report.splitlines()
                  if line.startswith("# wall ")]
        assert stages == ["parse", "verify"]

    @pytest.mark.parametrize("factor", ["inf", "nan", "0", "-1"])
    def test_tolerance_factor_must_be_finite_and_positive(
            self, plan_file, capsys, factor):
        code, report, err = run(
            ["verify", str(plan_file), "--tolerance-factor", factor], capsys)
        assert code == 2
        assert report == ""
        assert "tolerance factor must be finite and positive" in err

    def test_tight_tolerance_fails_with_exit_one(self, plan_file, capsys):
        code, report, _ = run(
            ["verify", str(plan_file), "--tolerance-factor", "1e-12"],
            capsys)
        assert code == 1
        assert field(report, "result") == "fail"

    def test_malformed_plan_is_a_usage_error(self, tmp_path, capsys):
        bad = tmp_path / "plan.txt"
        bad.write_text("gadget-plan v1\nprecision oops\n")
        code, _, err = run(["verify", str(bad)], capsys)
        assert code == 2
        assert "line 2" in err

    def test_tampered_budget_is_a_usage_error(self, plan_file, capsys):
        # A raised compiled coefficient would pass under an inflated budget.
        lines = plan_file.read_text().splitlines()
        field_line = next(i for i in range(lines.index("compiled"), len(lines))
                          if lines[i].endswith(" X@0") and len(lines[i].split()) == 2)
        coefficient = float(lines[field_line].split()[0])
        lines[field_line] = f"{coefficient + 5.0!r} X@0"
        lines[next(i for i, line in enumerate(lines)
                   if line.startswith("budget "))] = "budget 1e300"
        plan_file.write_text("\n".join(lines) + "\n")
        code, report, err = run(["verify", str(plan_file)], capsys)
        assert code == 2
        assert report == ""
        assert "budget" in err

    def test_nan_slot_strength_is_a_usage_error(self, plan_file, capsys):
        text = plan_file.read_text()
        line = next(l for l in text.splitlines() if " entangle - " in l)
        tokens = line.split()
        tokens[7] = tokens[7].rsplit(":", 1)[0] + ":nan"
        plan_file.write_text(text.replace(line, " ".join(tokens), 1))
        code, _, err = run(["verify", str(plan_file)], capsys)
        assert code == 2
        assert "slot strength nan" in err

    def test_missing_file(self, tmp_path, capsys):
        code, _, err = run(["verify", str(tmp_path / "nope.txt")], capsys)
        assert code == 2
        assert "error" in err


class TestHubbardCheck:
    def test_dimer_passes(self, tmp_path, capsys):
        path = tmp_path / "hub.txt"
        path.write_text(hubbard_to_text(HubbardModel(2, 1.0, 100.0, ((0, 1),))))
        code, report, _ = run(["hubbard-check", str(path)], capsys)
        assert code == 0
        assert field(report, "first-order-norm") == "0.0"
        assert field(report, "splitting-closed-form") == "0.04"
        assert field(report, "result") == "pass"

    def test_every_stage_has_a_wall_line(self, tmp_path, capsys):
        path = tmp_path / "hub.txt"
        path.write_text(hubbard_to_text(HubbardModel(2, 1.0, 100.0, ((0, 1),))))
        _, report, _ = run(["hubbard-check", str(path)], capsys)
        stages = [line.split()[2] for line in report.splitlines()
                  if line.startswith("# wall ")]
        assert stages == ["parse", "exchange"]

    def test_out_of_regime_fails_with_exit_one(self, tmp_path, capsys):
        path = tmp_path / "hub.txt"
        path.write_text(hubbard_to_text(HubbardModel(2, 1.0, 5.0, ((0, 1),))))
        code, _, err = run(["hubbard-check", str(path)], capsys)
        assert code == 1
        assert "exchange picture" in err

    @pytest.mark.parametrize("model", [
        HubbardModel(6, 1.0, 100.0, tuple((i, (i + 1) % 6) for i in range(6)),
                     tuple((0.01 * (i % 3), -0.02 + 0.01 * i, 0.015 - 0.005 * i)
                           for i in range(6))),
        HubbardModel(4, 1.2, 120.0, ((0, 1), (1, 2), (2, 3), (3, 0))),
    ], ids=["6-ring-xyz", "4-ring"])
    def test_component_solves_keep_the_body(self, model, tmp_path, capsys,
                                            monkeypatch):
        # The per-component solves feed only the regime guard, the spread
        # warning and the error budget, so no printed digit may move.  The
        # whole solve of the high block reads its stacks as one
        # block-diagonal matrix.
        path = tmp_path / "hub.txt"
        path.write_text(hubbard_to_text(model))
        _, split, _ = run(["hubbard-check", str(path)], capsys)
        monkeypatch.setattr(sw, "component_eig_values", eig_values)
        monkeypatch.setattr(sw, "stacked_eig_values", lambda stacks: eig_values(
            block_diag(*(block for stack in stacks for block in stack))))
        _, whole, _ = run(["hubbard-check", str(path)], capsys)
        assert field(split, "result") == "pass"
        assert body_lines(split) == body_lines(whole)

    def test_parse_error(self, tmp_path, capsys):
        path = tmp_path / "hub.txt"
        path.write_text("hubbard\nsites two\n")
        code, _, err = run(["hubbard-check", str(path)], capsys)
        assert code == 2
        assert "line 2" in err


def small_interacting_instance(seed=0, modes=4):
    rng = np.random.default_rng(seed)
    h = rng.normal(size=(modes, modes))
    w = rng.normal(size=(modes,) * 4)
    h = (h + h.T) / 2
    w = (w + w.transpose(3, 2, 1, 0)) / 2
    return SecondQuantizedHamiltonian(h, w)


class TestScf:
    def test_converged_run(self, tmp_path, capsys):
        path = tmp_path / "sq.txt"
        path.write_text(second_quantized_to_text(small_interacting_instance()))
        code, report, _ = run(
            ["scf", str(path), "--particles", "2", "--restarts", "4",
             "--seed", "1"], capsys)
        assert code == 0
        assert field(report, "converged") == "yes"
        assert field(report, "seed") == "1"
        assert field(report, "restarts") == "4"
        assert float(field(report, "energy")) < 0
        assert float(field(report, "residual")) <= 1e-8
        assert 1 <= int(field(report, "restarts-converged")) <= 4

    def test_body_is_deterministic(self, tmp_path, capsys):
        path = tmp_path / "sq.txt"
        path.write_text(second_quantized_to_text(small_interacting_instance()))
        argv = ["scf", str(path), "--particles", "2", "--restarts", "3"]
        _, first, _ = run(argv, capsys)
        _, second, _ = run(argv, capsys)
        assert body_lines(first) == body_lines(second)

    def test_every_stage_has_a_wall_line(self, tmp_path, capsys):
        path = tmp_path / "sq.txt"
        path.write_text(second_quantized_to_text(small_interacting_instance()))
        _, report, _ = run(
            ["scf", str(path), "--particles", "2", "--restarts", "2"], capsys)
        stages = [line.split()[2] for line in report.splitlines()
                  if line.startswith("# wall ")]
        assert stages == ["parse", "scf"]

    def test_non_convergence_exits_one(self, tmp_path, capsys):
        # The spin-glass embedding keeps the density oscillating between
        # degenerate frames; the solver reports that instead of raising.
        emb = embed_ising(random_instance(2, 0))
        path = tmp_path / "sq.txt"
        path.write_text(second_quantized_to_text(emb))
        code, report, _ = run(
            ["scf", str(path), "--particles", "8", "--restarts", "1"],
            capsys)
        assert code == 1
        assert field(report, "converged") == "no"
        assert field(report, "result") == "fail"
        # The convergence story: every iteration spent, residual still open.
        assert field(report, "iterations") == "500"
        assert field(report, "restarts-converged") == "0"
        assert float(field(report, "residual")) > 1e-8

    @pytest.mark.parametrize("record", ["1 0 0 nan", "1 1 1 inf",
                                        "2 0 1 1 0 nan"])
    def test_non_finite_coefficient_is_parse_error(self, tmp_path, capsys,
                                                   record):
        path = tmp_path / "sq.txt"
        path.write_text(f"modes 2\n1 0 0 -1.0\n{record}\n")
        code, report, err = run(["scf", str(path), "--particles", "1"], capsys)
        assert code == 2
        assert "non-finite" in err
        assert report == ""

    def test_bad_particle_count_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "sq.txt"
        path.write_text(second_quantized_to_text(small_interacting_instance()))
        code, _, err = run(
            ["scf", str(path), "--particles", "9"], capsys)
        assert code == 2
        assert "particle" in err


class TestIsing:
    def test_oracle_single_bond(self, tmp_path, capsys):
        path = tmp_path / "ising.txt"
        path.write_text(SINGLE_BOND)
        code, report, _ = run(["ising", str(path), "--oracle"], capsys)
        assert code == 0
        assert field(report, "oracle-energy") == "-1.0"
        assert field(report, "oracle-spins") == "+1 -1"

    def test_oracle_on_seeded_glass(self, tmp_path, capsys):
        path = tmp_path / "ising.txt"
        path.write_text(ising_to_text(random_instance(2, 0)))
        code, report, _ = run(["ising", str(path), "--oracle"], capsys)
        assert code == 0
        assert field(report, "oracle-energy") == "-7.0"
        assert field(report, "oracle-index") == "93"

    def test_scf_mode_recovers_the_oracle(self, tmp_path, capsys):
        path = tmp_path / "ising.txt"
        path.write_text(SINGLE_BOND)
        code, report, _ = run(
            ["ising", str(path), "--scf", "--restarts", "4"], capsys)
        assert code == 0
        assert field(report, "decoded-energy") == "-1.0"
        assert field(report, "decoded-spins") == "+1 -1"
        assert field(report, "undecided-sites") == "0"
        assert field(report, "penalty") == "10.0"
        assert field(report, "seed") == "0"
        converged = field(report, "scf-converged") == "yes"
        iterations = int(field(report, "scf-iterations"))
        assert 1 <= iterations <= 500
        assert 0 <= int(field(report, "scf-restarts-converged")) <= 4
        assert (float(field(report, "scf-residual")) <= 1e-8) == converged

    def test_scf_body_is_deterministic(self, tmp_path, capsys):
        # Neither restart converges on this glass: the body pins the full
        # convergence story.
        path = tmp_path / "ising.txt"
        path.write_text(ising_to_text(random_instance(2, 1)))
        argv = ["ising", str(path), "--scf", "--restarts", "2", "--seed", "3"]
        _, first, _ = run(argv, capsys)
        _, second, _ = run(argv, capsys)
        assert body_lines(first) == body_lines(second)
        assert field(first, "scf-iterations") == "500"
        assert field(first, "scf-restarts-converged") == "0"

    @pytest.mark.parametrize("mode, want", [("--oracle", ["oracle"]),
                                            ("--scf", ["oracle", "scf"])])
    def test_every_stage_has_a_wall_line(self, tmp_path, capsys, mode, want):
        path = tmp_path / "ising.txt"
        path.write_text(SINGLE_BOND)
        _, report, _ = run(["ising", str(path), mode, "--restarts", "2"], capsys)
        stages = [line.split()[2] for line in report.splitlines()
                  if line.startswith("# wall ")]
        assert stages == want

    def test_low_penalty_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "ising.txt"
        path.write_text(SINGLE_BOND)
        code, _, err = run(
            ["ising", str(path), "--scf", "--penalty", "1.0"], capsys)
        assert code == 2
        assert "penalty" in err

    def test_mode_flag_is_required(self, tmp_path, capsys):
        path = tmp_path / "ising.txt"
        path.write_text(SINGLE_BOND)
        with pytest.raises(SystemExit) as excinfo:
            main(["ising", str(path)])
        assert excinfo.value.code == 2

    def test_modes_are_exclusive(self, tmp_path, capsys):
        path = tmp_path / "ising.txt"
        path.write_text(SINGLE_BOND)
        with pytest.raises(SystemExit) as excinfo:
            main(["ising", str(path), "--oracle", "--scf"])
        assert excinfo.value.code == 2


class TestUsage:
    def test_unknown_subcommand(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["frobnicate"])
        assert excinfo.value.code == 2

    def test_missing_required_flag(self, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            main(["compile", str(tmp_path / "x.txt")])
        assert excinfo.value.code == 2


class TestStartup:
    def test_cli_import_loads_no_scipy(self):
        src = str(Path(hamlower.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=src)
        code = ("import sys, hamlower.cli; "
                "print(sorted(m for m in sys.modules "
                "if m.split('.')[0] == 'scipy')); "
                "print('hamlower.history' in sys.modules)")
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, check=True)
        assert out.stdout.split() == ["[]", "False"]

    def test_workflows_run_without_scipy(self, tmp_path):
        # A None entry in sys.modules makes every scipy import fail.
        (tmp_path / "src.txt").write_text(SOURCE_TEXT)
        (tmp_path / "hub.txt").write_text(
            hubbard_to_text(HubbardModel(2, 1.0, 100.0, ((0, 1),))))
        (tmp_path / "sq.txt").write_text(
            second_quantized_to_text(small_interacting_instance()))
        (tmp_path / "ising.txt").write_text(SINGLE_BOND)
        runs = [["compile", "src.txt", "--precision", "0.5", "--output", "plan.txt"],
                ["verify", "plan.txt"],
                ["hubbard-check", "hub.txt"],
                ["scf", "sq.txt", "--particles", "2", "--restarts", "4",
                 "--seed", "1"],
                ["ising", "ising.txt", "--scf", "--restarts", "4"]]
        code = ("import sys; sys.modules['scipy'] = None; "
                "from hamlower.cli import main; "
                f"print([main(argv) for argv in {runs!r}])")
        src = str(Path(hamlower.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-c", code], env=env, cwd=tmp_path,
                             capture_output=True, text=True, check=True)
        assert out.stdout.splitlines()[-1] == "[0, 0, 0, 0, 0]"
