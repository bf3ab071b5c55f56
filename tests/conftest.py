"""Shared test set-up."""

import pytest

from k3lines import cli


@pytest.fixture(autouse=True)
def fresh_analyses():
    """Each test starts with an empty `cli.shared_analysis` table, so no
    test reads a line lattice that an earlier one analysed."""
    cli._ANALYSES.clear()
    yield
