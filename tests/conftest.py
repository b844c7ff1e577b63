"""Shared fixtures: the pipeline runs several suites depend on, the
(alpha_1, c=1) rank-condition system, flattened afresh over its own table (a
cached pipeline run keeps only its counts), and the benchmark tracer."""

import importlib.util
from pathlib import Path

import pytest

from godeaux2.alpha import AlphaCase, build_ansatz
from godeaux2.pipeline import run_pipeline
from godeaux2.rc import build_l_ansatz, compute_cofactors, extract_system, rc_residuals


@pytest.fixture(scope="session")
def run11():
    return run_pipeline(1, 1)


@pytest.fixture(scope="session")
def run20():
    return run_pipeline(2, 0)


@pytest.fixture(scope="session")
def run30():
    return run_pipeline(3, 0)


@pytest.fixture(scope="session")
def rc11():
    case = AlphaCase(1, 1)
    M, params = build_ansatz(case)
    table = M.table
    l = build_l_ansatz(table, case)
    betas = compute_cofactors(M)
    res = rc_residuals(betas, l)
    system = extract_system(res, case)
    return case, table, M, l, betas, res, system


@pytest.fixture(scope="session")
def tracing():
    """The module perfbench/tracing.py, loaded once from its path."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def tracer(tracing):
    """A fresh Tracer for each test, not yet installed."""
    return tracing.Tracer()
