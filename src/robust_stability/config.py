"""Centralized numeric tolerances.

Every module reads its defaults from here so that tests have a single knob.
The environment variable ROBUST_STABILITY_TOL overrides the record: either a
single number or a JSON object with any of the field names.
"""

import json
import os
from dataclasses import dataclass

ENV_VAR = "ROBUST_STABILITY_TOL"


@dataclass(frozen=True)
class Tolerances:
    feasibility: float = 1e-9


def default_tolerances() -> Tolerances:
    """Tolerance record honoring the ROBUST_STABILITY_TOL override."""
    raw = os.environ.get(ENV_VAR)
    if raw is None:
        return Tolerances()
    try:
        data = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{ENV_VAR} is not valid JSON: {raw!r}") from exc
    if isinstance(data, (int, float)) and not isinstance(data, bool):
        return Tolerances(feasibility=float(data))
    if isinstance(data, dict):
        unknown = set(data) - {"feasibility"}
        if unknown:
            raise ValueError(f"{ENV_VAR} has unknown fields: {sorted(unknown)}")
        return Tolerances(**{k: float(v) for k, v in data.items()})
    raise ValueError(f"{ENV_VAR} must be a number or an object, got: {raw!r}")
