"""Independent correctness oracle, run after the timed loop.

Optimal values the program reports are recomputed with scipy's HiGHS solver
on a robust counterpart built here from the raw vertex data (one row
``<a, x> >= b`` per uncertainty vertex), sharing no code with the program.
Where an input is a pure translation, the distances the program reports
(d_nat, d_H and the sampled transformation sup) must equal the translation
norm.  Every mismatch is one failed operation.
"""

import numpy as np
from scipy.optimize import linprog

# Relative tolerance on optimal values: HiGHS's default feasibility and
# optimality tolerances are 1e-7.
VALUE_RTOL = 1e-6
# Distances the program computes by projection (Wolfe's algorithm) against a
# translation norm known exactly.
DISTANCE_TOL = 1e-8
# verify_transform_distance's own equality tolerance.
TRANSFORM_TOL = 1e-6


class Oracle:
    """Reference values, each computed once per distinct input."""

    def __init__(self):
        self._values = {}

    def value(self, key, problem):
        """min <c, x> s.t. <a, x> >= b for every vertex row (a, b)."""
        if key not in self._values:
            rows = np.vstack([V for _, V in problem["sets"]])
            n = problem["cost"].shape[0]
            res = linprog(
                problem["cost"],
                A_ub=-rows[:, :n],
                b_ub=-rows[:, n],
                bounds=[(None, None)] * n,
                method="highs",
            )
            if res.status != 0:
                raise RuntimeError(f"oracle LP for {key} failed: {res.message}")
            self._values[key] = float(res.fun)
        return self._values[key]


def _value_error(name, got, want):
    if abs(got - want) <= VALUE_RTOL * max(1.0, abs(want)):
        return None
    return f"{name} = {got!r}, oracle {want!r}"


def _distance_error(name, got, want, tol):
    if abs(got - want) <= tol:
        return None
    return f"{name} = {got!r}, translation norm {want!r}"


def _value_stream(oracle, inputs, index, values):
    item = inputs["items"][index]
    errors = [
        _value_error("nu_u", values["nu_u"], oracle.value("reference", inputs["reference"])),
        _value_error("nu_v", values["nu_v"], oracle.value(index, item["problem"])),
    ]
    if item["kind"] == "translate":
        errors.append(_distance_error("d_nat", values["d_nat"], item["magnitude"], DISTANCE_TOL))
    return errors


def _constants_sweep(oracle, inputs, index, values):
    return [_value_error("nu_u", values["nu_u"], oracle.value(index, inputs["items"][index]))]


def _epsargmin_pairs(oracle, inputs, index, values):
    item = inputs["items"][index]
    return [
        _value_error("nu_u", values["nu_u"], oracle.value(("u", index), item["u"])),
        _value_error("nu_v", values["nu_v"], oracle.value(("v", index), item["v"])),
        _distance_error("d_nat", values["d_nat"], item["magnitude"], DISTANCE_TOL),
    ]


def _transform_identity(oracle, inputs, index, values):
    shift = inputs["items"][index]["shift"]
    return [
        _distance_error("d_H", values["bound"], shift, DISTANCE_TOL),
        _distance_error("sampled sup", values["measured"], shift, TRANSFORM_TOL),
    ]


_CHECKS = {
    "value-stream": _value_stream,
    "constants-sweep": _constants_sweep,
    "epsargmin-pairs": _epsargmin_pairs,
    "transform-identity": _transform_identity,
}


def failures(workload, inputs, results, oracle=None):
    """{position: reason} for every failed operation in `results`.

    results holds (pool index, values, error) per operation attempted; an
    operation fails if it raised, reported passed=False, or disagrees with
    the oracle.
    """
    oracle = oracle or Oracle()
    check = _CHECKS[workload]
    failed = {}
    for position, (index, values, error) in enumerate(results):
        if error is not None:
            failed[position] = error
        elif not values["passed"]:
            failed[position] = "program reported a violated bound"
        else:
            reasons = [e for e in check(oracle, inputs, index, values) if e]
            if reasons:
                failed[position] = "; ".join(reasons)
    return failed
