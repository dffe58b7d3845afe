"""CLI, file formats, and experiment suites.

Subcommands: solve, slater, constants, perturb, transform-check,
epsopt-check, converge.  Every subcommand prints a JSON report to stdout and
optionally writes it to --out (perturb: JSON or CSV); a flag that a
subcommand does not read is a usage error.  Exit codes: 0 pass, 2 bound
violation, 1 input/usage error.  Reports contain a config echo and the seed
but no timestamps, so identical inputs give byte-identical output.
"""

import argparse
import csv
import json
import sys

import numpy as np
from dataclasses import dataclass

from . import lp as lpmod
from .errors import (
    HypothesisViolatedError,
    RobustStabilityError,
    SchemaError,
    ShapeMismatchError,
)
from .geometry import Polytope, enumerate_hrep_vertices, project_onto_polytope
from .model import (
    LsioProblem,
    RobustProblem,
    constraintwise_distance,
    robust_counterpart,
)
from .report import _jsonable
from .setdist import check_eps_argmin_lipschitz
from .stability import ValueLipschitzChecker
from .transform import SamplePlan, verify_transform_distance_multi

PERTURBATION_KINDS = ("translate", "scale", "vertexJitter", "shrinkToPoint")


@dataclass(frozen=True)
class ExperimentConfig:
    seed: int = 0
    trials: int = 10
    perturbation_kind: str = "translate"
    magnitude_schedule: tuple = (1e-1, 1e-2, 1e-3)
    epsilon: float = None  # None = half the distance to the solvable boundary

    def __post_init__(self):
        if self.trials <= 0:
            raise ValueError("trials must be positive")
        if self.perturbation_kind not in PERTURBATION_KINDS:
            raise ValueError(f"unknown perturbation kind {self.perturbation_kind!r}")
        if not self.magnitude_schedule:
            raise ValueError("magnitude schedule must not be empty")
        if any(m <= 0 for m in self.magnitude_schedule):
            raise ValueError("magnitudes must be positive")


@dataclass(frozen=True)
class ConvergenceRecord:
    step: int
    d_nat: float
    nu: float
    x_star: np.ndarray
    dist_to_fopt: float


# ---------------------------------------------------------------------------
# problem files


def _read_json(path):
    """The JSON value in the file at path; SchemaError if it does not parse,
    including a value nested deeper than the decoder's recursion limit."""
    with open(path) as fh:
        try:
            return json.load(fh)
        except (json.JSONDecodeError, RecursionError) as exc:
            raise SchemaError(f"{path}: invalid JSON ({exc})") from exc


def load_problem(source, what="problem") -> RobustProblem:
    """Load a RobustProblem of the JSON schema from a file path or an inline
    dict; `what` names the source in the error for anything else."""
    if isinstance(source, str):
        source = _read_json(source)
    elif not isinstance(source, dict):
        raise SchemaError(f"{what} must be a path or an inline object")
    return problem_from_dict(source)


def problem_from_dict(data: dict) -> RobustProblem:
    if not isinstance(data, dict):
        raise SchemaError("problem must be a JSON object")
    n = data.get("n")
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise SchemaError('field "n" must be a positive integer')
    has_cost = "cost" in data
    has_set = "costSet" in data
    if has_cost == has_set:
        raise SchemaError('exactly one of "cost" / "costSet" is required')
    cost = cost_set = None
    if has_cost:
        cost = _vector(data["cost"], n, '"cost"')
    else:
        cs = data["costSet"]
        if not isinstance(cs, dict) or "vertices" not in cs:
            raise SchemaError('"costSet" must be an object with "vertices"')
        cost_set = Polytope(
            np.array([_vector(v, n, '"costSet" vertex') for v in cs["vertices"]])
        )
    if "constraints" not in data or not isinstance(data["constraints"], list):
        raise SchemaError('field "constraints" must be a list')
    sets = {}
    for i, c in enumerate(data["constraints"]):
        if not isinstance(c, dict) or "name" not in c:
            raise SchemaError(f'constraint #{i} must be an object with "name"')
        name = c["name"]
        if not isinstance(name, str):
            raise SchemaError(f'constraint #{i}: "name" must be a string')
        if "vertices" not in c or not isinstance(c["vertices"], list) or not c["vertices"]:
            raise SchemaError(
                f'constraint {name!r}: field "vertices" must be a non-empty list'
            )
        verts = np.array(
            [_vector(v, n + 1, f'constraint {name!r} vertex') for v in c["vertices"]]
        )
        if name in sets:
            raise SchemaError(f"duplicate constraint name {name!r}")
        sets[name] = Polytope(verts)
    if not sets:
        raise SchemaError("at least one constraint is required")
    return RobustProblem(constraint_sets=sets, cost=cost, cost_set=cost_set)


def _vector(v, n, what):
    if not isinstance(v, list) or len(v) != n:
        raise SchemaError(f"{what} must be a list of {n} numbers")
    if not all(map(_is_number, v)):
        raise SchemaError(f"{what} has a non-numeric entry")
    return np.array([float(x) for x in v])


def problem_to_dict(rp: RobustProblem) -> dict:
    out = {"n": rp.dim}
    if rp.cost is not None:
        out["cost"] = [float(x) for x in rp.cost]
    else:
        out["costSet"] = {
            "vertices": [[float(x) for x in v] for v in rp.cost_set.vertices]
        }
    out["constraints"] = [
        {
            "name": name,
            "vertices": [[float(x) for x in v] for v in U.vertices],
        }
        for name, U in rp.constraint_sets.items()
    ]
    return out


def report_json(report: dict) -> str:
    """Canonical serialization: sorted keys, fixed separators, newline."""
    return json.dumps(_jsonable(report), sort_keys=True, separators=(",", ":")) + "\n"


def save_report(report: dict, path: str, fmt: str = "json"):
    if fmt == "json":
        with open(path, "w") as fh:
            fh.write(report_json(report))
    elif fmt == "csv":
        with open(path, "w", newline="") as fh:
            _write_csv(report, fh)
    else:
        raise ValueError(f"unknown format {fmt!r}")


_CSV_COLUMNS = ("trial", "kind", "magnitude", "d_nat", "bound", "measured", "slack", "passed")


def _write_csv(report: dict, fh):
    writer = csv.writer(fh)
    writer.writerow(_CSV_COLUMNS)
    for rec in report.get("trials", []):
        writer.writerow([rec.get(c, "") for c in _CSV_COLUMNS])


# ---------------------------------------------------------------------------
# perturbations


def _perturb_polytope(U: Polytope, kind: str, magnitude: float, rng) -> Polytope:
    V = U.vertices
    if kind == "translate":
        d = rng.standard_normal(U.dim)
        d /= max(np.linalg.norm(d), 1e-12)
        return Polytope(V + magnitude * d)
    if kind == "scale":
        center = V.mean(axis=0)
        radius = max(float(np.max(np.linalg.norm(V - center, axis=1))), 1e-12)
        factor = 1.0 + (magnitude / radius) * rng.uniform(-1.0, 1.0)
        return Polytope(center + factor * (V - center))
    if kind == "vertexJitter":
        noise = rng.standard_normal(V.shape)
        norms = np.linalg.norm(noise, axis=1)
        noise = noise / np.maximum(norms, 1e-12)[:, None]
        return Polytope(V + magnitude * noise * rng.uniform(0, 1, size=(V.shape[0], 1)))
    if kind == "shrinkToPoint":
        center = V.mean(axis=0)
        radius = max(float(np.max(np.linalg.norm(V - center, axis=1))), 1e-12)
        t = min(magnitude / radius, 1.0)
        return Polytope(center + (1.0 - t) * (V - center))
    raise ValueError(f"unknown perturbation kind {kind!r}")


def perturbed_problem(rp: RobustProblem, kind: str, magnitude: float, rng) -> RobustProblem:
    sets = {
        alpha: _perturb_polytope(U, kind, magnitude, rng)
        for alpha, U in rp.constraint_sets.items()
    }
    return RobustProblem(constraint_sets=sets, cost=rp.cost.copy())


def _trial_rng(seed: int, index: int):
    """Counter-mode per-trial stream: independent of trial execution order."""
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(index,)))


# ---------------------------------------------------------------------------
# suites


def run_perturbation_suite(rp: RobustProblem, config: ExperimentConfig):
    """Randomized value-Lipschitz certification.

    Pre-flight: the reference problem must satisfy the theorem hypotheses and
    every scheduled trial must stay strictly inside the admissible epsilon;
    otherwise the whole run is rejected before any trial executes.
    """
    checker = ValueLipschitzChecker(rp, eps=config.epsilon)
    trials = []
    for i in range(config.trials):
        rng = _trial_rng(config.seed, i)
        magnitude = config.magnitude_schedule[i % len(config.magnitude_schedule)]
        rpV = perturbed_problem(rp, config.perturbation_kind, magnitude, rng)
        d_nat = constraintwise_distance(rp, rpV)
        if not d_nat < checker.constants.epsilon:
            raise HypothesisViolatedError(
                f"trial {i}: d_nat = {d_nat} reaches the admissible "
                f"epsilon = {checker.constants.epsilon} (pre-flight rejection)"
            )
        trials.append((i, magnitude, rpV, d_nat))

    reports = []
    min_slack = np.inf
    max_slope = 0.0
    for i, magnitude, rpV, d_nat in trials:
        rep = checker.check(rpV)
        reports.append((i, magnitude, rep))
        min_slack = min(min_slack, rep.slack)
        if d_nat > 1e-15:
            max_slope = max(max_slope, rep.measured / d_nat)
    summary = {
        "minSlack": float(min_slack),
        "maxSlope": float(max_slope),
        "L": checker.constants.lipschitz,
        "epsilon": checker.constants.epsilon,
        "passed": all(rep.passed for _, _, rep in reports),
        "trials": len(reports),
    }
    return reports, summary


def optimal_face_rows(pi: LsioProblem, nu: float):
    """H-rep of the optimal face: feasible rows plus <c, x> <= nu, stacked."""
    return np.vstack([pi.rows, np.append(-pi.cost, -float(nu))])


def run_convergence_suite(rp: RobustProblem, config: ExperimentConfig):
    """Closedness/USC experiment: V_j -> U with shrinking magnitudes.

    Each step solves the perturbed counterpart and projects its optimal point
    onto the optimal face of the reference problem, the hull of the face's
    vertices: the checker has verified that the face is bounded.
    """
    checker = ValueLipschitzChecker(rp, eps=config.epsilon)
    rows = optimal_face_rows(checker.counterpart, checker.nu_u)
    face = Polytope(np.array(enumerate_hrep_vertices(rows)))
    records = []
    for j in range(1, config.trials + 1):
        rng = _trial_rng(config.seed, 0)  # same stream: same direction each step
        magnitude = config.magnitude_schedule[0] * (2.0 ** -(j - 1))
        rpV = perturbed_problem(rp, config.perturbation_kind, magnitude, rng)
        d_nat = constraintwise_distance(rp, rpV)
        res = lpmod.solve(robust_counterpart(rpV).to_lp())
        if res.status != lpmod.OPTIMAL:
            raise HypothesisViolatedError(f"step {j}: perturbed status {res.status}")
        _, dist = project_onto_polytope(res.solution, face)
        records.append(
            ConvergenceRecord(
                step=j,
                d_nat=d_nat,
                nu=res.value,
                x_star=res.solution,
                dist_to_fopt=dist,
            )
        )
    return records


def couple_project(cost, scenarios, labels=None) -> RobustProblem:
    """Constraint-wise projection of a coupled scenario list.

    scenarios: matrices of shape |I| x (n+1); U_alpha is the convex hull of
    the alpha-th rows across scenarios.  The projected robust value equals
    the coupled (worst-scenario) value for scenario lists.
    """
    mats = [np.asarray(s, dtype=float) for s in scenarios]
    if not mats:
        raise ShapeMismatchError("need at least one scenario")
    shape = mats[0].shape
    if len(shape) != 2:
        raise ShapeMismatchError("scenarios must be 2-D matrices")
    for s in mats:
        if s.shape != shape:
            raise ShapeMismatchError(f"scenario shapes differ: {s.shape} vs {shape}")
    m = shape[0]
    if labels is None:
        labels = [f"row{i}" for i in range(m)]
    sets = {
        labels[i]: Polytope(np.array([s[i] for s in mats])) for i in range(m)
    }
    return RobustProblem(constraint_sets=sets, cost=np.asarray(cost, dtype=float))


# ---------------------------------------------------------------------------
# CLI


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


class _UsageError(Exception):
    pass


def _load_config_file(path) -> dict:
    data = _read_json(path)
    if not isinstance(data, dict):
        raise SchemaError(f"{path}: config must be a JSON object")
    return data


def _is_number(v) -> bool:
    """A JSON number with a finite float value (not a boolean or a huge int)."""
    return isinstance(v, (int, float)) and not isinstance(v, bool) and abs(v) <= sys.float_info.max


def _field(data: dict, key: str, kind: str):
    """data[key] if it is `kind` ("a number", "an integer" or "a list of
    numbers"), as a float, int or tuple of floats; SchemaError otherwise.
    Ranges are checked by the object the value is handed to."""
    value = data[key]
    if kind == "a number" and _is_number(value):
        return float(value)
    if kind == "an integer" and isinstance(value, int) and not isinstance(value, bool):
        return value
    if kind == "a list of numbers" and isinstance(value, list) and all(map(_is_number, value)):
        return tuple(float(v) for v in value)
    raise SchemaError(f'"{key}" must be {kind}')


def _experiment_config(data: dict, args) -> ExperimentConfig:
    kwargs = {}
    for key, name, kind in (
        ("seed", "seed", "an integer"),
        ("trials", "trials", "an integer"),
        ("magnitudes", "magnitude_schedule", "a list of numbers"),
        ("epsilon", "epsilon", "a number"),
    ):
        if key in data:
            kwargs[name] = _field(data, key, kind)
    if "perturbation" in data:
        kwargs["perturbation_kind"] = data["perturbation"]
    flags = (("seed", args.seed), ("trials", args.trials), ("epsilon", args.eps))
    for name, value in flags:
        if value is not None:
            kwargs[name] = value
    try:
        return ExperimentConfig(**kwargs)
    except ValueError as exc:
        raise SchemaError(str(exc)) from exc


def _cmd_solve(args):
    rp = load_problem(args.problem)
    if rp.cost_set is not None:
        from .model import epigraph_reform

        rp = epigraph_reform(rp)
    res = lpmod.solve(robust_counterpart(rp).to_lp())
    report = {
        "command": "solve",
        "status": res.status,
        "value": res.value,
        "solution": None if res.solution is None else list(res.solution),
    }
    return report, 0


def _cmd_slater(args):
    rp = load_problem(args.problem)
    cert = lpmod.slater_constant(robust_counterpart(rp).rows)
    if cert is None:
        report = {"command": "slater", "slater": False}
    else:
        report = {
            "command": "slater",
            "slater": True,
            "rho": cert.rho,
            "point": list(cert.point),
            "capped": cert.capped,
        }
    return report, 0


def _cmd_constants(args):
    rp = load_problem(args.problem)
    checker = ValueLipschitzChecker(rp, eps=args.eps)
    report = {
        "command": "constants",
        "nu": checker.nu_u,
        "rho": checker.rho,
        "constants": checker.constants.to_dict(),
    }
    return report, 0


def _cmd_perturb(args):
    data = _load_config_file(args.config)
    if "problem" not in data:
        raise SchemaError('perturb config needs a "problem" field')
    rp = load_problem(data["problem"])
    config = _experiment_config(data, args)
    reports, summary = run_perturbation_suite(rp, config)
    trials = [
        {
            "trial": i,
            "kind": config.perturbation_kind,
            "magnitude": magnitude,
            "d_nat": rep.context["d_nat"],
            "bound": rep.bound,
            "measured": rep.measured,
            "slack": rep.slack,
            "passed": rep.passed,
        }
        for i, magnitude, rep in reports
    ]
    report = {
        "command": "perturb",
        "config": {
            "seed": config.seed,
            "trials": config.trials,
            "perturbation": config.perturbation_kind,
            "magnitudes": list(config.magnitude_schedule),
        },
        "summary": summary,
        "trials": trials,
    }
    return report, 0 if summary["passed"] else 2


def _cmd_transform_check(args):
    data = _load_config_file(args.config)
    for key in ("problemU", "problemV"):
        if key not in data:
            raise SchemaError(f'transform-check config needs "{key}"')
    rpU = load_problem(data["problemU"], "problemU")
    rpV = load_problem(data["problemV"], "problemV")
    seed = _field(data, "seed", "an integer") if "seed" in data else 0
    if args.seed is not None:
        seed = args.seed
    rho = _field(data, "rho", "a number") if "rho" in data else None
    if rho is None:
        cert = lpmod.slater_constant(robust_counterpart(rpU).rows)
        if cert is None:
            raise HypothesisViolatedError("no Slater point; supply rho explicitly")
        rho = cert.rho
    rep = verify_transform_distance_multi(rpU, rpV, rho, SamplePlan(seed=seed))
    report = {"command": "transform-check", **rep.to_dict()}
    return report, 0 if rep.passed else 2


def _cmd_epsopt_check(args):
    data = _load_config_file(args.config)
    for key in ("problemU", "problemV", "eps"):
        if key not in data:
            raise SchemaError(f'epsopt-check config needs "{key}"')
    rpU = load_problem(data["problemU"], "problemU")
    rpV = load_problem(data["problemV"], "problemV")
    eps = args.eps if args.eps is not None else _field(data, "eps", "a number")
    kwargs = {k: _field(data, k, "a number") for k in ("eta", "r", "r0") if k in data}
    rep = check_eps_argmin_lipschitz(rpU, rpV, eps=eps, **kwargs)
    report = {"command": "epsopt-check", **rep.to_dict()}
    return report, 0 if rep.passed else 2


def _cmd_converge(args):
    data = _load_config_file(args.config)
    if "problem" not in data:
        raise SchemaError('converge config needs a "problem" field')
    rp = load_problem(data["problem"])
    config = _experiment_config(data, args)
    records = run_convergence_suite(rp, config)
    first, last = records[0].dist_to_fopt, records[-1].dist_to_fopt
    converged = last <= 1e-7 or last <= 1e-3 * max(first, 1e-300)
    report = {
        "command": "converge",
        "config": {"seed": config.seed, "trials": config.trials},
        "records": [
            {
                "step": r.step,
                "d_nat": r.d_nat,
                "nu": r.nu,
                "xStar": list(r.x_star),
                "distToFoptU": r.dist_to_fopt,
            }
            for r in records
        ],
        "converged": converged,
    }
    return report, 0 if converged else 2


_FLAGS = {"seed": {"type": int}, "trials": {"type": int}, "eps": {"type": float},
          "format": {"choices": ("json", "csv"), "default": "json"}}
# per subcommand: its handler, its positional argument and the flags it
# reads; every one takes --out, and a flag it would ignore is a usage error
_SUBCOMMANDS = {
    "solve": (_cmd_solve, "problem", ()),
    "slater": (_cmd_slater, "problem", ()),
    "constants": (_cmd_constants, "problem", ("eps",)),
    "perturb": (_cmd_perturb, "config", ("seed", "trials", "eps", "format")),
    "transform-check": (_cmd_transform_check, "config", ("seed",)),
    "epsopt-check": (_cmd_epsopt_check, "config", ("eps",)),
    "converge": (_cmd_converge, "config", ("seed", "trials", "eps")),
}


def _build_parser():
    p = _Parser(prog="robust-stability", add_help=True)
    sub = p.add_subparsers(dest="command")
    for name, (_, positional, flags) in _SUBCOMMANDS.items():
        sp = sub.add_parser(name)
        sp.add_argument(positional)
        sp.add_argument("--out")
        for flag in flags:
            sp.add_argument(f"--{flag}", **_FLAGS[flag])
    return p


def cli(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            raise _UsageError("a subcommand is required")
        report, code = _SUBCOMMANDS[args.command][0](args)
        if args.out:
            save_report(report, args.out, fmt=getattr(args, "format", "json"))
    except _UsageError as exc:
        sys.stdout.write(report_json({"error": "usage", "message": str(exc)}))
        return 1
    except (SchemaError, OSError, RobustStabilityError, ValueError) as exc:
        sys.stdout.write(
            report_json({"error": type(exc).__name__, "message": str(exc)})
        )
        return 1
    sys.stdout.write(report_json(report))
    return code


def main():
    sys.exit(cli())


if __name__ == "__main__":
    main()
