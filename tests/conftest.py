"""Shared session fixtures: the pipeline runs several suites depend on, and
the (alpha_1, c=1) rank-condition system, flattened afresh over its own
table (a cached pipeline run keeps only its counts)."""

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
