"""Machine-readable outcome of a single stability check."""

import numpy as np
from dataclasses import dataclass, field

_REPORT_TOL = 1e-7


@dataclass(frozen=True)
class CertificateReport:
    """bound vs measured for one theorem instance; pass iff slack >= -_REPORT_TOL."""

    bound: float
    measured: float
    slack: float
    passed: bool
    context: dict = field(default_factory=dict)

    @classmethod
    def from_values(cls, bound, measured, context=None):
        slack = float(bound) - float(measured)
        return cls(
            bound=float(bound),
            measured=float(measured),
            slack=slack,
            passed=slack >= -_REPORT_TOL,
            context=dict(context or {}),
        )

    def to_dict(self) -> dict:
        return {
            "bound": self.bound,
            "measured": self.measured,
            "slack": self.slack,
            "passed": self.passed,
            "context": _jsonable(self.context),
        }


def _jsonable(obj):
    """Recursively convert numpy scalars/arrays for json.dumps."""
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, float) and (obj != obj or obj in (float("inf"), float("-inf"))):
        return repr(obj)
    return obj
