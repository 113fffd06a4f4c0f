"""General Pauli-string product, kept as a reference for the test suite.

The gadget model multiplies single-site factors directly; this multiplier
handles any two factor tuples and is what that model is checked against.
"""

from hamlower.operators import pauli_product


def multiply_factor_tuples(left, right):
    """Product of two Pauli factor tuples, each ``((site, axis), ...)``.

    Returns ``(phase, factors)`` with factors site-sorted and identity sites
    dropped.  Inputs must individually be site-sorted and duplicate free.
    """
    phase = 1.0 + 0.0j
    merged = {}
    for site, axis in left:
        merged[site] = axis
    for site, axis in right:
        if site in merged:
            p, ax = pauli_product(merged[site], axis)
            phase *= p
            if ax == "I":
                del merged[site]
            else:
                merged[site] = ax
        else:
            merged[site] = axis
    return phase, tuple(sorted(merged.items()))
