"""Exact determinantal equations for etale double covers of Z/2-Godeaux surfaces.

The package derives, from first principles, the symmetric 6x6 matrix families
whose determinants are the bicanonical octics of such covers, solves the rank
condition that the canonical-ring structure imposes, generates the resulting
surface equations, and machine-verifies every polynomial identity the
construction rests on.
"""

from .alpha import AlphaCase, SymPolyMatrix, build_ansatz, make_table
from .pipeline import PipelineResult, run_pipeline, write_artifacts
from .verify import CheckReport, all_checks

__version__ = "0.1.0"

__all__ = [
    "AlphaCase",
    "SymPolyMatrix",
    "build_ansatz",
    "make_table",
    "PipelineResult",
    "run_pipeline",
    "write_artifacts",
    "CheckReport",
    "all_checks",
    "__version__",
]
