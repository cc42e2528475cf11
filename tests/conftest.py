"""Fixtures shared by the test modules."""

import pytest

import qlattice.linalg as linalg


@pytest.fixture()
def rank_verdicts(monkeypatch):
    """Every answer of the mod-p rank certificate, in call order."""
    seen = []
    real = linalg._full_rank_mod_p

    def spy(rows, ncols):
        seen.append(real(rows, ncols))
        return seen[-1]

    monkeypatch.setattr(linalg, "_full_rank_mod_p", spy)
    return seen
