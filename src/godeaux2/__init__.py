"""Exact determinantal equations for etale double covers of Z/2-Godeaux surfaces.

The package derives, from first principles, the symmetric 6x6 matrix families
whose determinants are the bicanonical octics of such covers, solves the rank
condition that the canonical-ring structure imposes, generates the resulting
surface equations, and machine-verifies every polynomial identity the
construction rests on.
"""

from .alpha import AlphaCase, SymPolyMatrix, build_ansatz, make_table
from .pipeline import PipelineResult, run_pipeline, write_artifacts

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


def __getattr__(name):
    """`CheckReport` and `all_checks` are read from `verify`, which is
    imported on first use: importing the package, or running a derivation,
    does not load the verification suite."""
    if name in ("CheckReport", "all_checks"):
        from . import verify

        return getattr(verify, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
