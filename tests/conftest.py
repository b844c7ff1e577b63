"""Shared session fixtures: the pipeline runs several suites depend on."""

import pytest

from godeaux2.pipeline import run_pipeline


@pytest.fixture(scope="session")
def run11():
    return run_pipeline(1, 1)


@pytest.fixture(scope="session")
def run20():
    return run_pipeline(2, 0)


@pytest.fixture(scope="session")
def run30():
    return run_pipeline(3, 0)
