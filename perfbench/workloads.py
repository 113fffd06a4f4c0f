"""Seeded inputs, timed items and known-answer checks for each workload.

An item is one ``hamlower`` subcommand run in-process through
``hamlower.cli.main`` (or one public library call where no subcommand
exists).  ``run`` is the timed part and returns an outcome; ``check`` runs
afterwards, untimed, against answers that do not come from the code path
being timed.  Program functions are looked up on their modules at call
time, so the tracer's wrappers see them.
"""

from __future__ import annotations

import contextlib
import io
from dataclasses import dataclass
from itertools import product
from pathlib import Path
from typing import Callable

import numpy as np

import hamlower.cli
import hamlower.gadgets
import hamlower.meanfield

AXES = ("X", "Y", "Z")
PAULI = {
    "I": np.eye(2),
    "X": np.array([[0.0, 1.0], [1.0, 0.0]]),
    "Y": np.array([[0.0, -1.0j], [1.0j, 0.0]]),
    "Z": np.array([[1.0, 0.0], [0.0, -1.0]]),
}
PRECISION = "0.5"


@dataclass
class Item:
    """One timed unit of work and its untimed check.

    ``check`` returns a list of problems and may note accuracy figures
    (``error_ratio``, ``energy_excess``, ``match``) in the outcome.
    ``units`` is what the item adds to ``completed_per_s`` when it finishes
    correctly; ``in_wall`` marks the items ``wall_s`` covers.
    """

    id: str
    kind: str
    run: Callable[[], dict]
    check: Callable[[dict], list]
    units: int = 1
    in_wall: bool = True


def cli(argv):
    """Runs one subcommand in-process; returns (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = hamlower.cli.main([str(a) for a in argv])
    return code, out.getvalue(), err.getvalue()


def body(report):
    """The deterministic part of a report: every line not starting with '#'."""
    return "\n".join(l for l in report.splitlines() if not l.startswith("#"))


def fields(report, key):
    """Value tokens of the first body line starting with ``key``."""
    for line in report.splitlines():
        tokens = line.split()
        if tokens and tokens[0] == key:
            return tokens[1:]
    return None


def spectrum(report, label):
    """Values of the report's ``spectrum <label>`` line."""
    for line in report.splitlines():
        tokens = line.split()
        if tokens[:2] == ["spectrum", label]:
            return np.array([float(v) for v in tokens[2:]])
    return None


def stage(report):
    """(budget, measured) of the report's gated stage line."""
    tokens = fields(report, "stage")
    return float(tokens[2]), float(tokens[4])


def outcome(reports, **extra):
    """Outcome of one item.

    ``error`` is set when a subcommand printed no report: the program refused
    the input (an exception reported on stderr), which counts as a failure.
    """
    error = next((err.strip() or f"exit {code} without a report"
                  for code, out, err in reports if not out), None)
    return {"reports": reports, "error": error,
            "body": "\n".join(body(out) for _, out, _ in reports), **extra}


def spin_text(num_spins, terms):
    lines = [f"spins {num_spins}"]
    for coeff, factors in terms:
        lines.append(" ".join([repr(float(coeff))]
                              + [f"{a}@{s}" for s, a in factors]))
    return "\n".join(lines) + "\n"


def dense_spin_matrix(num_spins, terms):
    """Independent dense realization: site 0 is the leading kron factor."""
    dim = 2 ** num_spins
    out = np.zeros((dim, dim), dtype=complex)
    for coeff, factors in terms:
        axes = dict(factors)
        mat = np.ones((1, 1))
        for site in range(num_spins):
            mat = np.kron(mat, PAULI[axes.get(site, "I")])
        out += coeff * mat
    return out


def random_axis(rng):
    return AXES[int(rng.integers(3))]


def mixed_axis_pair(rng):
    a, b = rng.choice(3, size=2, replace=False)
    return AXES[a], AXES[b]


# ---------------------------------------------------------------------------
# certify: compile then verify one mixed-axis coupling plus spectator spins
# ---------------------------------------------------------------------------

# 0 spectators compile to 9 spins, 1 to 10.  Two spectators (11 spins, about
# 6.6 s per verify) would make one round longer than a run's budget allows.
CERTIFY_SPECTATORS = (0, 0, 0, 0, 1, 1, 1)


def certify_items(rng, workdir: Path):
    items = []
    for k, spectators in enumerate(CERTIFY_SPECTATORS):
        a, b = mixed_axis_pair(rng)
        terms = [(rng.uniform(-1, 1), ((0, a), (1, b)))]
        for s in range(2, 2 + spectators):
            terms.append((rng.uniform(-1, 1), ((s, random_axis(rng)),)))
        n = 2 + spectators
        src = workdir / f"certify-{k}.txt"
        plan = workdir / f"certify-{k}.plan"
        src.write_text(spin_text(n, terms))
        expected = np.linalg.eigvalsh(dense_spin_matrix(n, terms))

        def run(src=src, plan=plan):
            compiled = cli(["compile", src, "--precision", PRECISION,
                            "--output", plan])
            if compiled[0] != 0:
                return outcome([compiled])
            return outcome([compiled, cli(["verify", plan])])

        def check(result, expected=expected):
            code, report, _ = result["reports"][-1]
            budget, measured = stage(report)
            result["error_ratio"] = measured / budget
            problems = []
            if code != 0 or fields(report, "result") != ["pass"]:
                problems.append(f"verify exit {code}, result {fields(report, 'result')}")
            if not measured <= budget:
                problems.append(f"measured {measured} above tolerance {budget}")
            source, compiled = spectrum(report, "source"), spectrum(report, "compiled")
            want = expected[:source.size]
            if np.abs(source - want).max() > 1e-9:
                problems.append("source spectrum differs from the reference")
            if np.abs(compiled - want).max() > budget:
                problems.append("compiled spectrum outside tolerance of the reference")
            return problems

        # One mediator coupling compiles to 7 extra spins.
        items.append(Item(f"certify-{k}-{n + 7}spin", "certify", run, check))
    return items


# ---------------------------------------------------------------------------
# compile: large random sources, compiled and read back
# ---------------------------------------------------------------------------


def mixed_terms(rng, num_spins, count, offset=0):
    """``count`` distinct mixed-axis couplings with |J| <= 1."""
    seen = {}
    while len(seen) < count:
        i, j = sorted(int(s) for s in rng.choice(num_spins, 2, replace=False))
        a, b = mixed_axis_pair(rng)
        seen.setdefault(((i + offset, a), (j + offset, b)), rng.uniform(-1, 1))
    return [(c, f) for f, c in seen.items()]


def field_terms(rng, sites, axis=None):
    return [(rng.uniform(-1, 1), ((s, axis or random_axis(rng)),)) for s in sites]


def zz_lattice(rng, edges, sites):
    """ZZ couplings on ``edges`` with a transverse X field on every site."""
    terms = [(rng.choice([-1, 1]) * rng.uniform(0.2, 1), ((i, "Z"), (j, "Z")))
             for i, j in edges]
    return terms + field_terms(rng, range(sites), "X")


def same_axis_terms(rng, pairs):
    out = []
    for i, j in pairs:
        axis = random_axis(rng)
        out.append((rng.uniform(-1, 1), ((i, axis), (j, axis))))
    return out


def compile_sources(rng):
    """(name, spins, terms, mixed couplings, same-axis couplings).

    Mixed-axis-only sources come first; ``wall_s`` covers them.  Sources
    with 4 or more same-axis couplings hit the seed's compile defect at
    precision 0.5 ("gadget output does not match its target couplings").
    They stay in the workload and count as failed items.
    """
    sources = []
    for k, (spins, count) in enumerate(((64, 200), (64, 200), (40, 100), (40, 100))):
        terms = mixed_terms(rng, spins, count)
        terms += field_terms(rng, [s for s in range(spins) if rng.random() < 0.25])
        sources.append((f"mixed-{k}-{count}", spins, terms, count, 0))
    sources.append(("same-3", 6, same_axis_terms(rng, [(0, 1), (2, 3), (4, 5)])
                    + field_terms(rng, range(6), "X"), 0, 3))
    sources.append(("same-2-mixed-4", 12, same_axis_terms(rng, [(0, 1), (2, 3)])
                    + mixed_terms(rng, 8, 4, offset=4), 4, 2))
    sources.append(("same-1-mixed-8", 18, same_axis_terms(rng, [(0, 1)])
                    + mixed_terms(rng, 16, 8, offset=2), 8, 1))
    ring4 = [(i, (i + 1) % 4) for i in range(4)]
    grid3 = [(3 * y + x, 3 * y + x + 1) for y in range(3) for x in range(2)] \
        + [(3 * y + x, 3 * y + x + 3) for y in range(2) for x in range(3)]
    ring8 = [(i, (i + 1) % 8) for i in range(8)]
    sources.append(("zz-ring-4", 4, zz_lattice(rng, ring4, 4), 0, 4))
    sources.append(("zz-grid-3x3", 9, zz_lattice(rng, grid3, 9), 0, 12))
    sources.append(("zz-ring-8", 8, zz_lattice(rng, ring8, 8), 0, 8))
    return sources


def compile_items(rng, workdir: Path):
    items = []
    for name, spins, terms, mixed, same in compile_sources(rng):
        src = workdir / f"compile-{name}.txt"
        plan = workdir / f"compile-{name}.plan"
        src.write_text(spin_text(spins, terms))

        def run(src=src, plan=plan):
            compiled = cli(["compile", src, "--precision", PRECISION,
                            "--output", plan])
            if compiled[0] != 0:
                return outcome([compiled])
            text = plan.read_text(encoding="utf-8")
            result = outcome([compiled], plan=hamlower.gadgets.plan_from_text(text),
                             text=text)
            result["body"] += "\n" + text
            return result

        def check(result, mixed=mixed, same=same):
            plan, text = result["plan"], result["text"]
            problems = []
            if len(plan.heisenberg) != 8 * mixed + 16 * same:
                problems.append(f"{len(plan.heisenberg)} Heisenberg couplings, "
                                f"expected {8 * mixed + 16 * same}")
            magnitudes = np.abs([j for _, _, j in plan.heisenberg])
            if magnitudes.size and np.ptp(magnitudes) > 1e-9 * magnitudes.max():
                problems.append("Heisenberg couplings do not share one magnitude")
            if plan.compiled.max_locality() > 2:
                problems.append("compiled Hamiltonian has a term above weight 2")
            if hamlower.gadgets.plan_to_text(plan) != text:
                problems.append("plan text does not survive a read/write round trip")
            return problems

        items.append(Item(f"compile-{name}", "compile", run, check,
                          units=mixed + same, in_wall=same == 0))
    return items


# ---------------------------------------------------------------------------
# scf: dense mean-field instances and Ising embeddings
# ---------------------------------------------------------------------------

# Iterations to convergence vary about 60% between dense instances, so the
# workload runs many instances with few restarts each: the batch time then
# varies little between seeds.
SCF_DENSE = ((6, 3),) * 12 + ((7, 3),) * 12 + ((8, 4),) * 12
SCF_DENSE_RESTARTS = 2
# Grid length -> restarts.  An L=3 embedding never converges and costs about
# 1 s per restart, so its restarts are capped to keep a round short.
SCF_ISING = ((2, 8), (2, 8), (3, 2))


def dense_instance(rng, modes):
    """Real random one- and two-body tensors with the required symmetries."""
    h = rng.normal(size=(modes, modes))
    w = rng.normal(size=(modes,) * 4)
    return (h + h.T) / 2, (w + w.transpose(3, 2, 1, 0)) / 2


def second_quantized_text(h, w):
    m = h.shape[0]
    lines = [f"modes {m}"]
    lines += [f"1 {i} {j} {float(h[i, j])!r}" for i, j in np.ndindex(m, m)]
    lines += [f"2 {i} {j} {k} {l} {float(w[i, j, k, l])!r}"
              for i, j, k, l in np.ndindex(m, m, m, m)]
    return "\n".join(lines) + "\n"


def grid_bonds(length):
    """Nearest-neighbour bonds of the L x L x 2 grid, site = z*L*L + y*L + x."""
    def site(x, y, z):
        return z * length * length + y * length + x
    bonds = []
    for z, y, x in product((0, 1), range(length), range(length)):
        if x + 1 < length:
            bonds.append((site(x, y, z), site(x + 1, y, z)))
        if y + 1 < length:
            bonds.append((site(x, y, z), site(x, y + 1, z)))
        if z == 0:
            bonds.append((site(x, y, z), site(x, y, 1)))
    return bonds


def ising_energies(sites, couplings):
    """Classical energy of every configuration; bit 1 of site s is spin -1."""
    index = np.arange(2 ** sites)
    spins = [1 - 2 * ((index >> (sites - 1 - s)) & 1) for s in range(sites)]
    energy = np.zeros(2 ** sites)
    for (i, j), value in couplings.items():
        energy += value * spins[i] * spins[j]
    return energy


def scf_items(rng, workdir: Path):
    items = []
    for k, (modes, particles) in enumerate(SCF_DENSE):
        h, w = dense_instance(rng, modes)
        path = workdir / f"scf-dense-{k}.txt"
        path.write_text(second_quantized_text(h, w))
        exact = hamlower.meanfield.exact_ground_energy(
            hamlower.meanfield.SecondQuantizedHamiltonian(h, w), particles)

        def run(path=path, particles=particles, k=k):
            return outcome([cli(["scf", path, "--particles", particles,
                                 "--restarts", SCF_DENSE_RESTARTS, "--seed", k])])

        def check(result, exact=exact):
            code, report, _ = result["reports"][0]
            energy = float(fields(report, "energy")[0])
            result["energy_excess"] = (energy - exact) / max(1.0, abs(exact))
            problems = [] if code in (0, 1) else [f"scf exit {code}"]
            if energy < exact - 1e-9:
                problems.append(f"scf energy {energy} below exact {exact}")
            return problems

        items.append(Item(f"scf-dense-{k}-{modes}m{particles}p", "dense", run, check))
    for k, (length, restarts) in enumerate(SCF_ISING):
        bonds = grid_bonds(length)
        couplings = {b: int(v) for b, v in zip(bonds, rng.integers(-1, 2, len(bonds)))}
        sites = 2 * length * length
        path = workdir / f"scf-ising-{k}.txt"
        path.write_text(f"ising {length}\n" + "".join(
            f"{i} {j} {v}\n" for (i, j), v in couplings.items() if v))
        oracle = float(ising_energies(sites, couplings).min())

        def run(path=path, restarts=restarts, k=k):
            return outcome([cli(["ising", path, "--scf", "--restarts", restarts,
                                 "--seed", k])])

        def check(result, oracle=oracle, couplings=couplings):
            code, report, _ = result["reports"][0]
            spins = [int(s) for s in fields(report, "decoded-spins")]
            decoded = float(sum(v * spins[i] * spins[j]
                                for (i, j), v in couplings.items()))
            scf_energy = float(fields(report, "scf-energy")[0])
            result["match"] = decoded == oracle
            problems = [] if code in (0, 1) else [f"ising exit {code}"]
            if float(fields(report, "oracle-energy")[0]) != oracle:
                problems.append("oracle energy differs from the reference")
            if float(fields(report, "decoded-energy")[0]) != decoded:
                problems.append("decoded energy differs from its spins")
            if decoded < oracle or scf_energy < oracle - 1e-9:
                problems.append("an energy lies below the oracle minimum")
            return problems

        items.append(Item(f"scf-ising-{k}-L{length}", "ising", run, check))
    return items


# ---------------------------------------------------------------------------
# exact: Hubbard exchange checks and exact two-body references
# ---------------------------------------------------------------------------

# (sites, ring, Zeeman fields)
EXACT_HUBBARD = ((6, True, True), (4, True, False), (4, False, True),
                 (5, False, False), (5, True, True))
EXACT_TWO_BODY = ((10, 5), (10, 5))


def hubbard_text(rng, sites, ring, zeeman):
    t = float(rng.uniform(0.5, 1.5))
    u = 100.0 * t
    edges = [(i, i + 1) for i in range(sites - 1)] + ([(sites - 1, 0)] if ring else [])
    exchange = 4 * t * t / u
    rows = [(s, *(0.1 * exchange * rng.uniform(-1, 1, 3)).tolist()) for s in range(sites)] \
        if zeeman else []
    lines = ["hubbard", f"sites {sites}", f"t {t!r}", f"U {u!r}", f"edges {len(edges)}"]
    lines += [f"{i} {j}" for i, j in edges]
    lines.append(f"fields {len(rows)}")
    lines += [f"{s} {bx!r} {by!r} {bz!r}" for s, bx, by, bz in rows]
    return "\n".join(lines) + "\n"


def exact_items(rng, workdir: Path):
    items = []
    for k, (sites, ring, zeeman) in enumerate(EXACT_HUBBARD):
        path = workdir / f"exact-hubbard-{k}.txt"
        path.write_text(hubbard_text(rng, sites, ring, zeeman))

        def run(path=path):
            return outcome([cli(["hubbard-check", path])])

        def check(result):
            code, report, _ = result["reports"][0]
            budget, measured = stage(report)
            result["error_ratio"] = measured / budget
            problems = []
            if code != 0 or fields(report, "result") != ["pass"]:
                problems.append(f"hubbard-check exit {code}")
            if not measured <= budget:
                problems.append(f"measured {measured} above tolerance {budget}")
            return problems

        shape = "ring" if ring else "chain"
        label = f"exact-hubbard-{k}-{sites}{shape}" + ("-zeeman" if zeeman else "")
        items.append(Item(label, "hubbard", run, check))
    for k, (modes, particles) in enumerate(EXACT_TWO_BODY):
        h, w = dense_instance(rng, modes)
        path = workdir / f"exact-two-body-{k}.txt"
        path.write_text(second_quantized_text(h, w))
        reference = hamlower.meanfield.scf_solve(
            hamlower.meanfield.SecondQuantizedHamiltonian(h, w), particles,
            restarts=8, seed=k).energy

        def run(path=path, particles=particles):
            ham = hamlower.meanfield.second_quantized_from_text(
                path.read_text(encoding="utf-8"))
            energy = hamlower.meanfield.exact_ground_energy(ham, particles)
            return {"reports": [], "error": None, "energy": energy,
                    "body": f"exact-energy {energy!r}"}

        def check(result, reference=reference):
            if result["energy"] > reference + 1e-9:
                return [f"exact energy {result['energy']} above SCF {reference}"]
            return []

        items.append(Item(f"exact-two-body-{k}-{modes}m{particles}p", "two-body",
                          run, check))
    return items


WORKLOADS = {
    "certify": certify_items,
    "compile": compile_items,
    "scf": scf_items,
    "exact": exact_items,
}
