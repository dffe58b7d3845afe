"""The operations the benchmark times, written against the program's API.

Importing this module imports the program, so the worker times it as part of
set-up.  Operations call the program through module attributes
(``setdist.check_eps_argmin_lipschitz``), so that the traced run's wrappers
see the calls.  Each operation returns a flat dict of the certificate values
it produced; ``passed`` is False when the program reports a violated bound.
"""

from robust_stability import geometry, lp, model, setdist, stability, transform

LAYERS = (lp, geometry, model, stability, setdist, transform)
TRACED_CLASSES = (stability.ValueLipschitzChecker,)

# Fixed index-point data of the transformation check.  Five samples per
# index region (the plan of the acceptance test) instead of the default 50:
# an operation then takes tens of milliseconds rather than hundreds, and a
# run holds enough of them for a steady median and tail.
TRANSFORM_B = -1.0
TRANSFORM_RHO = 0.5
TRANSFORM_PLAN = transform.SamplePlan(counts=(5, 5, 5, 5))


def robust_problem(problem):
    sets = {label: geometry.Polytope(V) for label, V in problem["sets"]}
    return model.RobustProblem(constraint_sets=sets, cost=problem["cost"])


def report_values(report):
    values = {
        "passed": report.passed,
        "bound": report.bound,
        "measured": report.measured,
        "slack": report.slack,
    }
    for key, value in report.context.items():
        if isinstance(value, (bool, int, float)):
            values[key] = value
    return values


def checker_values(checker):
    return {
        "passed": True,
        "nu_u": checker.nu_u,
        "rho": checker.rho,
        **checker.constants.to_dict(),
    }


class ValueStream:
    """ValueLipschitzChecker built once; one op checks one perturbation."""

    def __init__(self, inputs):
        self.reference = robust_problem(inputs["reference"])
        self.items = [robust_problem(item["problem"]) for item in inputs["items"]]
        self.checker = None

    def prepare(self):
        self.checker = stability.ValueLipschitzChecker(self.reference)
        return checker_values(self.checker)

    def op(self, i):
        return report_values(self.checker.check(self.items[i]))


class ConstantsSweep:
    """One op computes all stability constants of a fresh problem."""

    def __init__(self, inputs):
        self.items = [robust_problem(item) for item in inputs["items"]]

    def prepare(self):
        return {}

    def op(self, i):
        return checker_values(stability.ValueLipschitzChecker(self.items[i]))


class EpsArgminPairs:
    """One op certifies the eps-argmin Lipschitz bound for one (U, V, eps)."""

    def __init__(self, inputs):
        self.items = [
            (robust_problem(item["u"]), robust_problem(item["v"]), item["eps"])
            for item in inputs["items"]
        ]

    def prepare(self):
        return {}

    def op(self, i):
        rp_u, rp_v, eps = self.items[i]
        return report_values(setdist.check_eps_argmin_lipschitz(rp_u, rp_v, eps=eps))


class TransformIdentity:
    """One op verifies the transformation distance identity for (U, V)."""

    def __init__(self, inputs):
        self.items = [
            (geometry.Polytope(item["u"]), geometry.Polytope(item["v"]))
            for item in inputs["items"]
        ]

    def prepare(self):
        return {}

    def op(self, i):
        U, V = self.items[i]
        return report_values(
            transform.verify_transform_distance(
                U, V, b=TRANSFORM_B, rho=TRANSFORM_RHO, plan=TRANSFORM_PLAN
            )
        )


WORKLOADS = {
    "value-stream": ValueStream,
    "constants-sweep": ConstantsSweep,
    "epsargmin-pairs": EpsArgminPairs,
    "transform-identity": TransformIdentity,
}
