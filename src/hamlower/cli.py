"""Command-line front end for the compile, verify, and solver workflows.

Every subcommand reads one interchange-format file, runs its workflow, and
prints a line-oriented report.  Lines starting with ``#`` carry the
timestamp and per-stage wall-clock seconds and are excluded from the
determinism guarantee; every other line is a stable key-value record, so
identical inputs and seeds reproduce identical report bodies.  The input
file is embedded verbatim with a ``| `` prefix between ``input-begin`` and
``input-end``, which makes a report self-contained: strip the prefix to
re-run it.  Seeds are always echoed.

Exit codes: 0 when every check passes (or the solver converged), 1 when a
verification or comparison fails, 2 for unusable inputs or flags.
"""

from __future__ import annotations

import argparse
import contextlib
import datetime
import hashlib
import sys
import time
from pathlib import Path

from .errors import HamlowerError, ValidationError
from .gadgets import SAFETY, compile, plan_from_text, plan_to_text, verify_plan
from .hubbard import hubbard_from_text, verify_exchange
from .meanfield import (
    classical_energy,
    decode_spins,
    default_penalty,
    embed_ising,
    ising_from_text,
    ising_oracle,
    scf_solve,
    second_quantized_from_text,
)
from .operators import spin_from_text

SPECTRUM_EXCERPT = 4


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        return repr(value)
    return str(value)


class Report:
    """Accumulates header and body lines with stable field ordering."""

    def __init__(self, workflow: str, input_text: str):
        stamp = datetime.datetime.now(datetime.timezone.utc)
        self.headers = [f"# generated {stamp.isoformat(timespec='seconds')}"]
        self.lines = []
        self.passed = True
        self.add("workflow", workflow)
        digest = hashlib.sha256(input_text.encode("utf-8")).hexdigest()
        self.add("input-digest", f"sha256:{digest}")
        self.lines.append("input-begin")
        for line in input_text.splitlines():
            self.lines.append(f"| {line}")
        self.lines.append("input-end")

    @contextlib.contextmanager
    def timed(self, stage: str):
        """Times the ``with`` body as a ``# wall`` header line for ``stage``."""
        start = time.perf_counter()
        yield
        self.headers.append(f"# wall {stage} {time.perf_counter() - start:.3f}s")

    def add(self, key: str, *values) -> None:
        self.lines.append(" ".join([key, *(_fmt(v) for v in values)]))

    def stage(self, name: str, budget: float, measured: float,
              passed: bool) -> None:
        self.add("stage", name, "budget", float(budget),
                 "measured", float(measured),
                 "status", "pass" if passed else "fail")
        self.passed = self.passed and passed

    def spectrum(self, label: str, values) -> None:
        excerpt = [float(v) for v in list(values)[:SPECTRUM_EXCERPT]]
        self.add("spectrum", label, *excerpt)

    def finish(self) -> int:
        """Appends the verdict line, prints the report, returns the exit code."""
        self.add("result", "pass" if self.passed else "fail")
        sys.stdout.write("\n".join(self.headers + self.lines) + "\n")
        return 0 if self.passed else 1


def _read(path: str) -> str:
    return Path(path).read_text(encoding="utf-8")


def cmd_compile(args) -> int:
    text = _read(args.input)
    report = Report("compile", text)
    with report.timed("parse"):
        source = spin_from_text(text)
    with report.timed("compile"):
        plan = compile(source, args.precision, safety=args.safety)
    with report.timed("write"):
        Path(args.output).write_text(plan_to_text(plan), encoding="utf-8")
    report.headers.append(f"# wrote {args.output}")
    report.add("precision", plan.target_precision)
    report.add("safety", plan.safety)
    report.add("source-spins", source.num_spins)
    report.add("source-couplings",
               sum(1 for t in source.terms if t.weight == 2))
    for rec in plan.layers:
        report.add("layer", rec.index, rec.name, "lambda", rec.lam,
                   "delta", rec.delta, "count", rec.count,
                   "budget", rec.budget)
    report.add("gadgets", len(plan.gadgets))
    report.add("heisenberg-couplings", len(plan.heisenberg))
    report.add("spins", plan.num_spins)
    report.add("offset", plan.offset)
    report.add("budget", plan.total_error_budget)
    return report.finish()


def cmd_verify(args) -> int:
    text = _read(args.input)
    report = Report("verify", text)
    with report.timed("parse"):
        plan = plan_from_text(text)
    with report.timed("verify"):
        ver = verify_plan(plan, tolerance_factor=args.tolerance_factor)
    report.add("tolerance-factor", ver.tolerance_factor)
    report.add("spins", plan.num_spins)
    report.add("heisenberg-couplings", len(plan.heisenberg))
    report.add("floor", ver.floor)
    report.spectrum("source", ver.source_spectrum)
    report.spectrum("compiled", ver.compiled_low)
    report.stage("low-spectrum", ver.tolerance, ver.measured, ver.passed)
    return report.finish()


def cmd_hubbard_check(args) -> int:
    text = _read(args.input)
    report = Report("hubbard-check", text)
    with report.timed("parse"):
        model = hubbard_from_text(text)
    with report.timed("exchange"):
        check = verify_exchange(model)
    report.add("sites", model.sites)
    report.add("hopping", model.t)
    report.add("interaction", model.u)
    report.add("edges", len(model.edges))
    report.add("first-order-norm", check.first_order_norm)
    report.add("splitting-derived", check.splitting_derived)
    report.add("splitting-closed-form", check.splitting_closed_form)
    report.stage("exchange-block", check.tolerance, check.measured,
                 check.passed)
    return report.finish()


def cmd_scf(args) -> int:
    text = _read(args.input)
    report = Report("scf", text)
    with report.timed("parse"):
        ham = second_quantized_from_text(text)
    with report.timed("scf"):
        result = scf_solve(ham, args.particles, restarts=args.restarts,
                           seed=args.seed)
    report.add("modes", ham.num_modes)
    report.add("particles", args.particles)
    report.add("restarts", args.restarts)
    report.add("seed", args.seed)
    report.add("energy", result.energy)
    report.add("best-restart", result.restart)
    report.add("iterations", result.iterations)
    report.add("residual", result.history[-1])
    report.add("restarts-converged", result.restarts_converged)
    report.add("converged", result.converged)
    report.passed = result.converged
    return report.finish()


def cmd_ising(args) -> int:
    text = _read(args.input)
    report = Report("ising", text)
    with report.timed("oracle"):
        instance = ising_from_text(text)
        oracle = ising_oracle(instance)
    report.add("length", instance.length)
    report.add("sites", instance.num_sites)
    report.add("nonzero-edges", len(instance.nonzero_edges()))
    report.add("oracle-energy", oracle.energy)
    report.add("oracle-index", oracle.index)
    report.add("oracle-spins", *(f"{s:+d}" for s in oracle.spins))
    if args.oracle:
        return report.finish()
    penalty = args.penalty if args.penalty is not None else \
        default_penalty(instance)
    with report.timed("scf"):
        embedding = embed_ising(instance, penalty)
        result = scf_solve(embedding, instance.num_sites,
                           restarts=args.restarts, seed=args.seed)
        decoded, undecided = decode_spins(instance, result.state)
        decoded_energy = classical_energy(instance, decoded)
    report.add("penalty", float(penalty))
    report.add("restarts", args.restarts)
    report.add("seed", args.seed)
    report.add("scf-energy", result.energy)
    report.add("scf-converged", result.converged)
    report.add("scf-iterations", result.iterations)
    report.add("scf-restarts-converged", result.restarts_converged)
    report.add("scf-residual", result.history[-1])
    report.add("undecided-sites", undecided)
    report.add("decoded-spins", *(f"{s:+d}" for s in decoded))
    report.add("decoded-energy", decoded_energy)
    # The embedding is exact on classical determinants, so the decoded
    # configuration must reach the oracle energy for a pass.
    report.stage("ground-match", 0.0, decoded_energy - oracle.energy,
                 decoded_energy <= oracle.energy)
    return report.finish()


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hamlower",
        description="Hamiltonian lowering compiler and verification harness.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compile",
                       help="compile a 2-local Hamiltonian to a gadget plan")
    p.add_argument("input", help="source Hamiltonian file")
    p.add_argument("--precision", type=float, required=True,
                   help="total error budget delta")
    p.add_argument("--output", required=True, help="plan file to write")
    p.add_argument("--safety", type=float, default=SAFETY,
                   help="scale-separation factor (default %(default)s)")
    p.set_defaults(func=cmd_compile)

    p = sub.add_parser("verify",
                       help="re-check a compiled plan against its source")
    p.add_argument("input", help="plan file")
    p.add_argument("--tolerance-factor", type=float, default=10.0,
                   help="budget multiplier for the pass line "
                        "(default %(default)s)")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("hubbard-check",
                       help="verify the exchange model of a Hubbard instance")
    p.add_argument("input", help="Hubbard model file")
    p.set_defaults(func=cmd_hubbard_check)

    p = sub.add_parser("scf",
                       help="mean-field ground state of a two-body instance")
    p.add_argument("input", help="second-quantized Hamiltonian file")
    p.add_argument("--particles", type=int, required=True)
    p.add_argument("--restarts", type=int, default=16)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_scf)

    p = sub.add_parser("ising",
                       help="spin-glass oracle and mean-field comparison")
    p.add_argument("input", help="Ising instance file")
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--oracle", action="store_true",
                      help="exhaustive ground-state search only")
    mode.add_argument("--scf", action="store_true",
                      help="solve the fermionic embedding and compare")
    p.add_argument("--penalty", type=float, default=None,
                   help="on-site penalty (default: scaled to the instance)")
    p.add_argument("--restarts", type=int, default=16)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_ising)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValidationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except HamlowerError as exc:
        # Scheduling, regime, resource, and degeneracy failures: the input
        # was well-formed but the workflow could not succeed.
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
