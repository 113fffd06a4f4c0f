"""Hamiltonian lowering toolkit.

Compiles 2-local spin Hamiltonians through mediator-gadget layers down to
uniform Heisenberg couplings and checks every step numerically: dense exact
diagonalization of the compiled plan, a Schrieffer-Wolff
effective-Hamiltonian engine that derives Heisenberg exchange from Hubbard
models, a Slater-determinant mean-field solver, and a classical Ising
embedding with an exhaustive oracle.

The subpackages are importable directly; this module re-exports the error
taxonomy and the headline entry points.
"""

from .errors import (
    DegeneracyError,
    HamlowerError,
    ParseError,
    RegimeError,
    ResourceLimitError,
    ScheduleError,
    ValidationError,
)
from .gadgets import compile, entangler_realization, verify_plan
from .hubbard import HubbardModel, verify_exchange
from .meanfield import (
    IsingInstance,
    SecondQuantizedHamiltonian,
    embed_ising,
    ising_oracle,
    scf_solve,
)
from .operators import PauliTerm, SpinHamiltonian, low_spectrum, realize_spin
from .sw import effective_hamiltonian

__version__ = "0.1.0"

__all__ = [
    "DegeneracyError",
    "HamlowerError",
    "HubbardModel",
    "IsingInstance",
    "ParseError",
    "PauliTerm",
    "RegimeError",
    "ResourceLimitError",
    "ScheduleError",
    "SecondQuantizedHamiltonian",
    "SpinHamiltonian",
    "ValidationError",
    "compile",
    "effective_hamiltonian",
    "embed_ising",
    "entangler_realization",
    "ising_oracle",
    "low_spectrum",
    "realize_spin",
    "scf_solve",
    "verify_exchange",
    "verify_plan",
    "__version__",
]
