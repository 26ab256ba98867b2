"""Fixtures shared by every test module."""

import pytest

from spnperf import monitor


@pytest.fixture(autouse=True)
def no_chain_held_by_solve_model(monkeypatch):
    # solve_model keeps the last chain it solved for the life of the
    # process; each test starts without one, so that what a test counts
    # (explores, solver derivations) does not depend on the tests before it
    monkeypatch.setattr(monitor, "_last_solved", [None])
