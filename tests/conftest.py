"""Shared test set-up."""

import pytest

from k3lines import fano


@pytest.fixture(autouse=True)
def fresh_analyses():
    """Each test starts with an empty `fano.shared_analysis` table, so no
    test reads a line lattice that an earlier one analysed."""
    fano._ANALYSES.clear()
    yield
