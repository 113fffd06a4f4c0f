"""Spans recorded around the names one hamlower module imports from another.

The wrappers live here, not in the program: a traced round installs them,
an untraced round runs the unmodified functions.  Each span records its
name, start, end, parent span, item id and optional call facts; spans stay
in memory until the run writes them out.  Hot helpers such as
``multiply_factor_tuples`` are deliberately not wrapped.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict


def _realize_spin_bytes(args, kwargs, result):
    h = args[0]
    n = kwargs.get("num_spins", args[1] if len(args) > 1 else None)
    n = h.num_spins if n is None else int(n)
    return {"bytes": 16 * 4 ** n}


def _scf_facts(args, kwargs, result):
    return {"restarts": result.restarts_tried,
            "converged": result.restarts_converged}


def _gadget_count(args, kwargs, result):
    return {"gadgets": len(result.gadgets)}


def _text_bytes(args, kwargs, result):
    return {"bytes": len(result.encode("utf-8"))}


# (module, attribute path, span name, facts hook).  A name containing ``{kind}``
# is completed with the current item's kind, which splits scf_solve into
# its dense and Ising-embedding callers.
WRAPPED = (
    ("hamlower.cli", "main", "cli", None),
    ("hamlower.gadgets", "eig_hermitian", "operators.eig_hermitian.gadgets", None),
    ("hamlower.sw", "eig_hermitian", "operators.eig_hermitian.sw", None),
    ("hamlower.hubbard", "eig_hermitian", "operators.eig_hermitian.hubbard", None),
    ("hamlower.meanfield", "eig_hermitian", "operators.eig_hermitian.meanfield", None),
    ("hamlower.gadgets", "realize_spin", "operators.realize_spin", _realize_spin_bytes),
    ("hamlower.hubbard", "realize_spin", "operators.realize_spin", _realize_spin_bytes),
    ("hamlower.meanfield", "realize_fermion", "operators.realize_fermion", None),
    ("hamlower.hubbard", "realize_fermion", "operators.realize_fermion", None),
    ("hamlower.operators", "FermionOperator.normal_order", "operators.normal_order", None),
    ("hamlower.cli", "spin_from_text", "operators.spin_from_text", None),
    ("hamlower.gadgets", "spin_from_text", "operators.spin_from_text", None),
    ("hamlower.cli", "compile", "gadgets.compile", _gadget_count),
    ("hamlower.cli", "plan_to_text", "gadgets.plan_to_text", _text_bytes),
    ("hamlower.cli", "plan_from_text", "gadgets.plan_from_text", None),
    ("hamlower.gadgets", "plan_from_text", "gadgets.plan_from_text", None),
    ("hamlower.cli", "verify_plan", "gadgets.verify_plan", None),
    ("hamlower.sw", "effective_hamiltonian", "sw.effective_hamiltonian", None),
    ("hamlower.cli", "verify_exchange", "hubbard.verify_exchange", None),
    ("hamlower.cli", "hubbard_from_text", "hubbard.hubbard_from_text", None),
    ("hamlower.cli", "scf_solve", "meanfield.scf_solve.{kind}", _scf_facts),
    ("hamlower.cli", "ising_oracle", "meanfield.ising_oracle", None),
    ("hamlower.cli", "embed_ising", "meanfield.embed_ising", None),
    ("hamlower.cli", "second_quantized_from_text",
     "meanfield.second_quantized_from_text", None),
    ("hamlower.meanfield", "second_quantized_from_text",
     "meanfield.second_quantized_from_text", None),
    ("hamlower.meanfield", "exact_ground_energy", "meanfield.exact_ground_energy", None),
)


SPAN_NAMES = {name.format(kind=kind) for _, _, name, _ in WRAPPED
              for kind in ("dense", "ising")}


class Tracer:
    """In-memory span recorder; ``item`` and ``kind`` tag new spans.

    A span whose call raised carries the fact ``failed: 1``.
    """

    def __init__(self):
        self.spans = []     # [name, start, end, parent, item, facts]
        self._stack = []
        self._saved = []
        self.item = None
        self.kind = None

    def call(self, name, fn, args=(), kwargs=None, facts=None):
        kwargs = kwargs or {}
        span = [name.format(kind=self.kind), 0.0, 0.0,
                self._stack[-1] if self._stack else -1, self.item, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            span[5] = {"failed": 1}
            raise
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()
        if facts is not None:
            span[5] = facts(args, kwargs, result)
        return result

    def install(self):
        for module, path, name, facts in WRAPPED:
            owner = importlib.import_module(module)
            *parents, attr = path.split(".")
            for part in parents:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrapper(name, original, facts))

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _wrapper(self, name, original, facts):
        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            return self.call(name, original, args, kwargs, facts)
        return wrapper


def self_times(spans):
    """Per-span exclusive time: duration minus the durations of its children."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    return [end - start - child[i] for i, (_, start, end, _, _, _) in enumerate(spans)]


def aggregate(spans):
    """Totals per span name: calls, inclusive s, exclusive s, summed facts.

    Also counts meanfield eigensolves whose parent is an scf_solve span, the
    per-iteration calls (one more per solve for restart 0's starting guess).
    """
    own = self_times(spans)
    out = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
    scf_eigh = 0
    for i, (name, start, end, parent, _, facts) in enumerate(spans):
        row = out[name]
        row["calls"] += 1
        row["s"] += end - start
        row["self_s"] += own[i]
        for key, value in (facts or {}).items():
            row[key] = row.get(key, 0) + value
        if (name == "operators.eig_hermitian.meanfield" and parent >= 0
                and spans[parent][0].startswith("meanfield.scf_solve.")):
            scf_eigh += 1
    return dict(out), scf_eigh
