"""Benchmark of the hamlower command line, run from the root of a checkout.

    python3 perfbench/run.py --workload certify --seed 0 --seconds 25 --trace 0

Load model: closed loop, one caller, one item at a time, in this process.
The inputs of a workload come from ``--seed``.  A round runs every item of
the workload once; rounds repeat until ``--seconds`` are used up (at least
three, or four in a traced run).  Outputs are checked after each round,
outside the timed region.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``, with the
end-to-end metrics for ``--trace 0`` and the per-layer metrics for
``--trace 1``.  A traced run alternates untraced and traced rounds, so it
also measures the tracing overhead.  ``--workload all`` runs each workload
in its own process and prints their results one after another.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("certify", "compile", "scf", "exact")
BLAS_THREADS = min(2, os.cpu_count() or 1)
BLAS_ENV = {key: str(BLAS_THREADS) for key in
            ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
SETUP_SAMPLES = 7
MIN_ROUNDS = 3
MIN_TRACED_ROUNDS = 4
SUBPROCESS_TIMEOUT = 120

# compile runs pure Python over large object graphs.  On a shared 2-vCPU
# machine its speed drifts by about +-25% over tens of seconds, against about
# 5% for the other workloads, so 10 runs spread wider than any usable bound.
# Its item times are therefore scaled by a fixed pure-Python reference task,
# timed before each round, to seconds at the reference's nominal speed.
REFERENCE_SCALED = {"compile"}
REFERENCE_NOMINAL_S = 0.04

SETUP_CODE = ("import time; t = time.perf_counter(); import hamlower.cli; "
              "print(time.perf_counter() - t)")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def python_child(args):
    env = {**os.environ, **BLAS_ENV, "PYTHONPATH": str(SRC)}
    done = subprocess.run([sys.executable, *args], cwd=ROOT, env=env,
                          capture_output=True, text=True, check=True,
                          timeout=SUBPROCESS_TIMEOUT)
    return done.stdout, done.stderr


def setup_seconds():
    """Import time of hamlower.cli in a fresh interpreter, one sample."""
    return float(python_child(["-c", SETUP_CODE])[0])


def import_split():
    """numpy, scipy and hamlower shares of one ``-X importtime`` import.

    Lines are printed children first, deeper ones more indented; reading
    them backwards gives each line's ancestors.  scipy is every scipy
    module that no other scipy module imported.
    """
    _, err = python_child(["-X", "importtime", "-c", "import hamlower.cli"])
    total = numpy_us = scipy_us = 0
    ancestors = []
    for line in reversed(err.splitlines()):
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cumulative, name = line.split("|")
        if not cumulative.strip().isdigit():
            continue
        depth = (len(name) - len(name.lstrip())) // 2
        name = name.strip()
        ancestors = ancestors[:depth] + [name]
        us = int(cumulative)
        if depth == 0 and name.startswith("hamlower"):
            total += us
        elif name == "numpy":
            numpy_us += us
        elif name.split(".")[0] == "scipy" and not any(
                a.split(".")[0] == "scipy" for a in ancestors[:-1]):
            scipy_us += us
    return {"setup.numpy_s": numpy_us / 1e6, "setup.scipy_s": scipy_us / 1e6,
            "setup.hamlower_s": (total - numpy_us - scipy_us) / 1e6}


def git_commit():
    """Commit of the checkout read from .git, or None outside a repository."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def machine_facts():
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    digest = hashlib.sha256()
    for path in sorted((SRC / "hamlower").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "blas": blas.get("name"), "blas_version": blas.get("version"),
            "blas_threads": BLAS_THREADS, "commit": git_commit(),
            "source_sha256": digest.hexdigest()}


def reference_task():
    """Fixed pure-Python work, independent of hamlower; returns its seconds.

    It builds, formats, parses and sorts small records, as the compiler and
    the plan text format do.
    """
    start = time.perf_counter()
    records = {}
    for i in range(20000):
        key = (i % 499, "XYZ"[i % 3], i % 7)
        records[key] = records.get(key, 0.0) + i / 3
    text = "\n".join(f"{a}:{b}:{c} {v!r}" for (a, b, c), v in sorted(records.items()))
    sum(float(line.split()[1]) for line in text.splitlines())
    return time.perf_counter() - start


def run_round(items, tracer):
    """Runs every item once; returns [(start, end, outcome)] per item."""
    results = []
    if tracer is not None:
        tracer.install()
    try:
        for item in items:
            if tracer is not None:
                tracer.item, tracer.kind = item.id, item.kind
            start = time.perf_counter()
            try:
                result = item.run()
            except Exception as exc:    # a crash is one failed item, not the run
                result = {"error": f"{type(exc).__name__}: {exc}"}
            results.append((start, time.perf_counter(), result))
    finally:
        if tracer is not None:
            tracer.uninstall()
    return results


class Tally:
    """Failures, check results and per-item accuracy across rounds."""

    def __init__(self, items):
        self.items = items
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.checked = {}   # item id -> (body digest, problems) of its first output
        self.accuracy = {}
        self.failures = {}

    def record(self, results):
        """Checks one round; returns the units of work finished correctly.

        An item is checked against its known answers the first time it
        produces output; later rounds must reproduce the same report body.
        """
        units = 0
        for item, (_, _, result) in zip(self.items, results):
            self.attempted += 1
            if result.get("error"):
                self.failed += 1
                self.failures[item.id] = result["error"].splitlines()[-1]
                continue
            digest = hashlib.sha256(result["body"].encode()).hexdigest()
            if item.id not in self.checked:
                try:
                    problems = item.check(result)
                except Exception as exc:    # a malformed report fails its check
                    problems = [f"check raised {type(exc).__name__}: {exc}"]
                self.checked[item.id] = (digest, problems)
                self.accuracy[item.id] = {k: result[k] for k in
                                          ("error_ratio", "energy_excess", "match")
                                          if k in result}
            first_digest, problems = self.checked[item.id]
            if digest != first_digest:
                problems = ["report body differs from the first round"]
            if problems:
                self.failed += 1
                self.correct = False
                self.failures[item.id] = "; ".join(problems)
            else:
                units += item.units
        return units

    def body_digest(self):
        joined = "".join(self.checked.get(item.id, ("-",))[0] for item in self.items)
        return hashlib.sha256(joined.encode()).hexdigest()

    def accuracy_metrics(self):
        def values(key):
            return [a[key] for a in self.accuracy.values() if key in a]
        ratios, excess, match = values("error_ratio"), values("energy_excess"), values("match")
        return {
            "fail_ratio": self.failed / self.attempted,
            "error_ratio.max": max(ratios, default=0.0),
            "match_rate": sum(match) / len(match) if match else 0.0,
            "energy_excess.mean": statistics.fmean(excess) if excess else 0.0,
        }


def measure(items, seconds, tracer, scaled):
    """Runs rounds until the time is used; returns round records and tally.

    ``scale`` converts a round's item times to seconds at the reference
    task's nominal speed when ``scaled``, and is 1 otherwise.
    """
    tally = Tally(items)
    rounds = []
    minimum = MIN_TRACED_ROUNDS if tracer is not None else MIN_ROUNDS
    began = time.perf_counter()
    while True:
        round_began = time.perf_counter()
        traced = tracer is not None and len(rounds) % 2 == 1
        first_span = len(tracer.spans) if traced else 0
        scale = REFERENCE_NOMINAL_S / reference_task() if scaled else 1.0
        results = run_round(items, tracer if traced else None)
        wall = results[-1][1] - results[0][0]
        units = tally.record(results)
        rounds.append({"traced": traced, "wall": wall, "units": units, "scale": scale,
                       "items": [end - start for start, end, _ in results],
                       "spans": (first_span, len(tracer.spans)) if traced else None,
                       "took": time.perf_counter() - round_began})
        elapsed = time.perf_counter() - began
        typical = statistics.median(r["took"] for r in rounds)
        if len(rounds) >= minimum and elapsed + typical > seconds:
            return rounds, tally


def layer_metrics(tracer, rounds, names):
    """Per-layer metrics of the traced rounds, for the declared ``names``.

    A name ``<span>.<key>`` is that span's per-round total of ``key``
    (``s``, ``self_s``, ``calls`` or a recorded fact); a few others are
    derived below.  Also returns each span's self time per round.
    """
    from spans import SPAN_NAMES, aggregate

    traced = [r for r in rounds if r["traced"]]
    plain = [r for r in rounds if not r["traced"]]
    totals, scf_eigh = aggregate(tracer.spans)
    solves = [totals.get(f"meanfield.scf_solve.{k}", {}) for k in ("dense", "ising")]
    restarts = sum(s.get("restarts", 0) for s in solves)
    remainder = []
    for r in traced:
        lo, hi = r["spans"]
        top = sum(end - start for _, start, end, parent, _, _ in tracer.spans[lo:hi]
                  if parent < 0)
        remainder.append(r["wall"] - top)
    derived = {
        # Restart 0 spends one eigensolve on its starting guess.
        "meanfield.scf.iterations_per_restart":
            (scf_eigh - sum(s.get("calls", 0) for s in solves)) / restarts
            if restarts else 0.0,
        "meanfield.scf.converged_ratio":
            sum(s.get("converged", 0) for s in solves) / restarts if restarts else 0.0,
        "trace.wall_s": statistics.fmean(r["wall"] for r in traced),
        "trace.remainder_s": statistics.fmean(remainder),
        "trace.overhead_ratio": statistics.median(r["wall"] for r in traced)
        / statistics.median(r["wall"] for r in plain) - 1,
    }
    aliases = {"gadgets.plan.bytes": "gadgets.plan_to_text.bytes"}
    metrics = {}
    for name in names:
        if name in derived:
            metrics[name] = derived[name]
            continue
        span, _, key = aliases.get(name, name).rpartition(".")
        if span in SPAN_NAMES:
            metrics[name] = totals.get(span, {}).get(key, 0) / len(traced)
    shares = {name: row["self_s"] / len(traced) for name, row in totals.items()}
    shares["remainder"] = derived["trace.remainder_s"]
    return metrics, dict(sorted(shares.items(), key=lambda kv: -kv[1]))


def write_spans(tracer, workload, seed):
    out = ROOT / ".perfbench" / f"spans-{workload}-seed{seed}.json"
    with out.open("w", encoding="utf-8") as fh:
        json.dump({"fields": ["name", "start", "end", "parent", "item", "facts"],
                   "spans": tracer.spans}, fh)
    return out


def run_workload(args):
    import numpy as np

    from spans import Tracer
    from workloads import WORKLOADS

    facts = machine_facts()
    if args.trace:
        splits = [import_split() for _ in range(SETUP_SAMPLES)]
    else:
        setup = [setup_seconds() for _ in range(SETUP_SAMPLES)]
    rng = np.random.default_rng([args.seed, WORKLOAD_NAMES.index(args.workload)])
    workdir = ROOT / ".perfbench" / f"work-{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        items = WORKLOADS[args.workload](rng, workdir)
        tracer = Tracer() if args.trace else None
        rounds, tally = measure(items, args.seconds, tracer,
                                args.workload in REFERENCE_SCALED)
    finally:
        shutil.rmtree(workdir)
    plain = [r for r in rounds if not r["traced"]]
    item_s = {item.id: statistics.median(r["items"][i] * r["scale"] for r in plain)
              for i, item in enumerate(items)}
    accuracy = tally.accuracy_metrics()
    info = {"workload": args.workload, "seed": args.seed, "machine": facts,
            "rounds": len(rounds), "items": len(items),
            "reference_scale": statistics.median(r["scale"] for r in plain),
            "body_sha256": tally.body_digest(), "failures": tally.failures,
            "item_s": item_s,
            "accuracy": accuracy}
    per_layer = declared_units("per_layer")
    if args.trace:
        metrics, shares = layer_metrics(tracer, rounds, per_layer)
        for name in ("setup.numpy_s", "setup.scipy_s", "setup.hamlower_s"):
            metrics[name] = statistics.median(s[name] for s in splits)
        metrics.update(accuracy)
        info["self_s"] = shares
        info["spans_file"] = str(write_spans(tracer, args.workload, args.seed)
                                 .relative_to(ROOT))
    else:
        metrics = {
            "setup_s": statistics.median(setup),
            # A batch's time to verdict, as the sum of each item's median
            # over rounds: a slow moment of the machine then spoils one
            # sample of one item instead of a whole round.
            "wall_s": sum(item_s[item.id] for item in items if item.in_wall),
            "completed_per_s": statistics.median(r["units"] for r in plain)
            / sum(item_s.values()),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
    units = per_layer if args.trace else declared_units("end_to_end")
    if set(units) != set(metrics):
        raise RuntimeError(f"metrics {sorted(set(units) ^ set(metrics))} are "
                           "measured but not declared, or declared but not measured")
    for name, value in {**metrics, **accuracy}.items():
        print(f"{args.workload:8s} {name:42s} {value:.6g} {units.get(name) or per_layer[name]}")
    print(json.dumps({"info": info}))
    return {"correct": tally.correct, "attempted": tally.attempted,
            "failed": tally.failed,
            "metrics": {name: {"value": value, "unit": units[name]}
                        for name, value in metrics.items()}}


def declared_units(section):
    """Metric name to unit, as BENCHMARK.json declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[section]}


def run_all(args):
    """Each workload in a fresh process; the last line merges their results."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        done = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=600)
        sys.stdout.write(done.stdout)
        if done.returncode != 0:
            sys.stderr.write(done.stderr)
            raise SystemExit(done.returncode)
        result = json.loads(done.stdout.splitlines()[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        merged["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    return merged


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "hamlower" / "__init__.py").is_file():
        print(f"error: no hamlower sources under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        print(json.dumps(run_all(args)))
        return 0
    # BLAS reads its thread count when numpy loads; it changes floor-level
    # digits of results, so it is fixed before any import of numpy.
    os.environ.update(BLAS_ENV)
    sys.path.insert(0, str(SRC))
    import hamlower

    if Path(hamlower.__file__).resolve().parent != SRC / "hamlower":
        print(f"error: imported hamlower from {hamlower.__file__}", file=sys.stderr)
        return 2
    print(json.dumps(run_workload(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
