"""Shared fixtures for the live-workflow tests."""

import pytest

from repro.core.serialize import problem_to_dict


@pytest.fixture
def registration(example_problem):
    """A registration payload for the paper's example at budget 57."""
    return {"problem": problem_to_dict(example_problem), "budget": 57.0}
