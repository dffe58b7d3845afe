"""Stability certificates for robust linear programs with polytopal uncertainty.

Submodules:
  geometry  - polytope primitives (projection, Hausdorff, inradius)
  lp        - dense deterministic simplex solver and LP-derived checks
  model     - robust / LSIO problem data model and system metrics
  stability - explicit Lipschitz constants and value-stability checks
  transform - RO-LSIO transformation identity checks
  setdist   - eps-optimal sets and truncated set metrics
  harness   - CLI, file formats, experiment suites
"""

from .geometry import Polytope
from .model import LsioProblem, RobustProblem
from .report import CertificateReport

__all__ = [
    "CertificateReport",
    "LsioProblem",
    "Polytope",
    "RobustProblem",
]

__version__ = "0.1.0"
