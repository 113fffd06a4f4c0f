"""End-to-end acceptance gate.

Each numbered check runs one complete workflow with fixed seeds, prints a
single pass/fail line, and records a deterministic report body.  The final
check re-runs all eight workflows and requires byte-identical bodies, so
any hidden nondeterminism fails loudly.  Run with ``-s`` to see the lines.
"""

import time

import numpy as np
import pytest

from hamlower.gadgets import (
    compile,
    entangler_realization,
    frozen_cross_residuals,
    verify_plan,
)
from hamlower.history import HistorySpec, build_history_hamiltonian
from hamlower.hubbard import (
    HubbardModel,
    heisenberg_from_hubbard,
    singlet_triplet_splitting,
)
from hamlower.meanfield import (
    SecondQuantizedHamiltonian,
    classical_energy,
    classical_state,
    embed_ising,
    exact_ground_energy,
    hartree_fock_energy,
    index_to_spins,
    ising_oracle,
    random_instance,
    scf_solve,
)
from hamlower.operators import PauliTerm, SpinHamiltonian, realize_spin
from hamlower.sw import effective_hamiltonian

MIXED_COUPLING = SpinHamiltonian(2, [PauliTerm(0.5, ((0, "X"), (1, "Y")))])


def fmt(value) -> str:
    return repr(float(value))


def haar_unitary(dim, rng):
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q @ np.diag(d / np.abs(d))


def gapped_instance(rng, dim=8, low_dim=3, gap=1.0):
    u = haar_unitary(dim, rng)
    high = gap + rng.uniform(0.0, 1.0, size=dim - low_dim)
    e = np.concatenate([np.zeros(low_dim), np.sort(high)])
    h0 = (u * e) @ u.conj().T
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    v = (z + z.conj().T) / 2
    v /= np.linalg.norm(v, 2)
    return h0, v


def criterion_1():
    """Effective-model deviation drops eightfold-ish when epsilon halves."""
    body = []
    ok = True
    for seed in range(20):
        rng = np.random.default_rng(seed)
        h0, v = gapped_instance(rng)
        devs = []
        for eps in (0.1, 0.05, 0.025):
            result = effective_hamiltonian(h0, v, eps, threshold=0.5)
            exact = np.linalg.eigvalsh(h0 + eps * v)[:3]
            model = np.linalg.eigvalsh(result.h_eff)
            devs.append(float(np.abs(model - exact).max()))
        r12, r23 = devs[0] / devs[1], devs[1] / devs[2]
        ok = ok and 6.0 <= r12 <= 10.0 and 6.0 <= r23 <= 10.0
        body.append(f"sw {seed} " + " ".join(fmt(d) for d in devs))
    return ok, body


def criterion_2():
    """Hubbard dimer splitting against the derived exchange model."""
    model = HubbardModel(2, 1.0, 100.0, ((0, 1),))
    exact = singlet_triplet_splitting(model)
    predicted = 4.0 * model.t ** 2 / model.u
    tolerance = 5.0 * model.t ** 3 / model.u ** 2
    heisenberg_from_hubbard(model)   # regime-guarded derivation must exist
    ok = abs(exact - predicted) <= tolerance
    body = [f"splitting exact {fmt(exact)} predicted {fmt(predicted)} "
            f"tolerance {fmt(tolerance)}"]
    return ok, body


def criterion_3():
    """One scheduled mediator reproduces its coupling spectrally."""
    term = PauliTerm(1.0, ((0, "X"), (1, "Y")))
    check = entangler_realization(term, 1e-2)
    values = np.linalg.eigvalsh(realize_spin(check.hamiltonian))
    gadget_low = values[:4] + check.offset
    model = np.linalg.eigvalsh(realize_spin(check.model))
    measured = float(np.abs(gadget_low - model).max())
    ok = measured <= 10.0 * check.budget
    body = [f"entangler lambda {fmt(check.gadget.lam)} "
            f"delta {fmt(check.gadget.delta)} measured {fmt(measured)} "
            f"budget {fmt(check.budget)}"]
    return ok, body


def criterion_4():
    # Precision 0.5 keeps the top-layer penalty near 1e12, where float64
    # still resolves the source couplings; deeper budgets overflow the
    # geometric scale ladder long before the structure changes, and the
    # layer/coupling counts checked here are precision-independent.
    plan = compile(MIXED_COUPLING, 0.5)
    ver = verify_plan(plan)
    ok = (len(plan.heisenberg) == 8 and plan.num_spins <= 13 and ver.passed)
    body = [
        f"couplings {len(plan.heisenberg)}",
        f"spins {plan.num_spins}",
        f"budget {fmt(plan.total_error_budget)}",
        f"measured {fmt(ver.measured)} tolerance {fmt(ver.tolerance)}",
    ]
    return ok, body


def criterion_5():
    """Freezers must be exactly dark along their frozen axis."""
    same_axis = SpinHamiltonian(2, [PauliTerm(0.8, ((0, "Z"), (1, "Z")))])
    body = []
    ok = True
    for label, plan in (("mixed", compile(MIXED_COUPLING, 0.5)),
                        ("same-axis", compile(same_axis, 0.5))):
        residuals = frozen_cross_residuals(plan)
        worst = max(r for _, _, r in residuals)
        ok = ok and worst <= 1e-12 and len(residuals) > 0
        body.append(f"frozen {label} gadgets {len(residuals)} worst {fmt(worst)}")
    return ok, body


def criterion_6():
    hadamard = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
    cnot = np.array([[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0],
                     [0.0, 0.0, 0.0, 1.0], [0.0, 0.0, 1.0, 0.0]])
    spec = HistorySpec(2, ((hadamard, (0,)), (cnot, (0, 1)),
                           (hadamard, (1,)), (cnot, (1, 0))))
    result = build_history_hamiltonian(spec)
    ok = result.certified and result.ground_overlap >= 1.0 - 1e-10
    body = [f"history steps {spec.num_steps} overlap {fmt(result.ground_overlap)} "
            f"degeneracy {result.ground_degeneracy}"]
    return ok, body


def criterion_7():
    instance = random_instance(2, 0)
    embedding = embed_ising(instance)
    oracle = ising_oracle(instance)
    worst = 0.0
    best = None
    for index in range(2 ** instance.num_sites):
        spins = index_to_spins(index, instance.num_sites)
        energy = hartree_fock_energy(embedding, classical_state(instance, spins))
        worst = max(worst, abs(energy - classical_energy(instance, spins)))
        if best is None or energy < best[0]:
            best = (energy, index)
    ok = (worst == 0.0 and best[0] == oracle.energy
          and best[1] == oracle.index)
    body = [f"embedding worst-deviation {fmt(worst)}",
            f"minimum determinant {fmt(best[0])} index {best[1]}",
            f"oracle {fmt(oracle.energy)} index {oracle.index}"]
    return ok, body


def criterion_8():
    body = []
    ok = True
    for seed in range(20):
        rng = np.random.default_rng(1000 + seed)
        h = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        w = rng.normal(size=(6,) * 4) + 1j * rng.normal(size=(6,) * 4)
        h = (h + h.conj().T) / 2
        w = (w + w.conj().transpose(3, 2, 1, 0)) / 2
        ham = SecondQuantizedHamiltonian(h, w)
        result = scf_solve(ham, 3, restarts=8, seed=seed)
        exact = exact_ground_energy(ham, 3)
        ok = ok and result.energy >= exact - 1e-9
        body.append(f"scf {seed} {fmt(result.energy)} exact {fmt(exact)}")
    return ok, body


CRITERIA = {
    1: (criterion_1, 5.0),
    2: (criterion_2, 1.0),
    3: (criterion_3, 1.0),
    4: (criterion_4, 60.0),
    5: (criterion_5, None),
    6: (criterion_6, 1.0),
    7: (criterion_7, 10.0),
    8: (criterion_8, 30.0),
}

_RUNS = {}


def record(index):
    if index not in _RUNS:
        workflow, _ = CRITERIA[index]
        start = time.perf_counter()
        ok, body = workflow()
        _RUNS[index] = (ok, time.perf_counter() - start, body)
    return _RUNS[index]


class TestAcceptance:
    @pytest.mark.parametrize("index", sorted(CRITERIA))
    def test_criterion(self, index):
        ok, seconds, _ = record(index)
        print(f"criterion {index}: {'pass' if ok else 'FAIL'} ({seconds:.2f}s)")
        assert ok, f"criterion {index} failed"
        budget = CRITERIA[index][1]
        if budget is not None:
            assert seconds < budget, (
                f"criterion {index} took {seconds:.2f}s, budget {budget}s")

    def test_criterion_9_determinism(self):
        ok = True
        for index in sorted(CRITERIA):
            _, _, first_body = record(index)
            workflow, _ = CRITERIA[index]
            rerun_ok, rerun_body = workflow()
            ok = ok and rerun_ok and rerun_body == first_body
        print(f"criterion 9: {'pass' if ok else 'FAIL'}")
        assert ok, "a repeated workflow produced a different report body"
