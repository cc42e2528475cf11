"""Fixtures shared by the test modules."""

import pytest

import qlattice.linalg as linalg
import qlattice.subspaces as subspaces


@pytest.fixture()
def rank_verdicts(monkeypatch):
    """Every rank the mod-p certificate returned, in call order, from the
    elimination core and from ``meet`` alike."""
    seen = []
    real = linalg._rank_mod_p

    def spy(rows, ncols):
        seen.append(real(rows, ncols))
        return seen[-1]

    monkeypatch.setattr(linalg, "_rank_mod_p", spy)
    monkeypatch.setattr(subspaces, "_rank_mod_p", spy)
    return seen


@pytest.fixture()
def empty_memo():
    """The op memos, the caches of ``meet``, ``join`` and
    ``meet_via_demorgan``, emptied before and after the test, so no
    earlier result answers and none written under the test's patches
    outlives it."""
    memos = (subspaces.meet, subspaces.join, subspaces.meet_via_demorgan)
    for op in memos:
        op.cache_clear()
    yield
    for op in memos:
        op.cache_clear()


@pytest.fixture()
def kernel_columns(monkeypatch, empty_memo):
    """The column count of each kernel ``subspaces`` takes, in call order,
    with the op memo emptied, so no earlier result answers."""
    seen = []
    real = subspaces._kernel_int

    def spy(rows, ncols):
        seen.append(ncols)
        return real(rows, ncols)

    monkeypatch.setattr(subspaces, "_kernel_int", spy)
    return seen


@pytest.fixture()
def reductions(monkeypatch, empty_memo):
    """The rows of each call to ``_reduce_int_rows``, from ``linalg`` and
    ``subspaces`` alike, in call order, with the op memo emptied."""
    seen = []
    real = linalg._reduce_int_rows

    def spy(rows, ncols):
        rows = [list(r) for r in rows]
        seen.append(rows)
        return real(rows, ncols)

    monkeypatch.setattr(linalg, "_reduce_int_rows", spy)
    monkeypatch.setattr(subspaces, "_reduce_int_rows", spy)
    return seen


@pytest.fixture()
def merged_blocks(monkeypatch, empty_memo):
    """The row counts of the two blocks of each merge ``subspaces`` asks
    for, in call order, with the op memo emptied."""
    seen = []
    real = subspaces._merge_int_rows

    def spy(a, b, ncols):
        seen.append((len(a), len(b)))
        return real(a, b, ncols)

    monkeypatch.setattr(subspaces, "_merge_int_rows", spy)
    return seen
