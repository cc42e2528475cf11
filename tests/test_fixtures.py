"""Fixture text round trips and error reporting."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qlattice.fixtures import (
    FixtureError,
    format_assignment_fixture,
    format_subspace_fixture,
    parse_assignment_fixture,
    parse_subspace_fixture,
)
from qlattice.subspaces import Subspace, random_subspace
from qlattice.terms import Assignment


def test_subspace_round_trip():
    s = Subspace.from_spanning(3, [[1, 0, 2], [0, 1, -1]])
    assert parse_subspace_fixture(format_subspace_fixture(s)) == s


def test_subspace_fixture_canonicalizes():
    # the two spanning sets describe one plane
    a = parse_subspace_fixture("3\n1 0 2\n0 1 -1\n")
    b = parse_subspace_fixture("3\n1 1 1\n2 1 3\n")
    assert a == b


def test_subspace_zero_and_comments():
    s = parse_subspace_fixture("# the trivial space\n4\n")
    assert s == Subspace.zero(4)
    assert format_subspace_fixture(s) == "4\n"


def test_subspace_scalar_syntax():
    s = parse_subspace_fixture("2\n1/2 3+2*i\n")
    assert s.dim == 1
    assert s.ambient == 2


def test_assignment_parse_example():
    text = """
    # two planes in C^4
    4
    p = {
    1 0 0 0
    0 1 0 0
    }
    q = { }
    """
    a = parse_assignment_fixture(text)
    assert a.ambient == 4
    assert a["p"].dim == 2
    assert a["q"].is_zero()


def test_assignment_inline_empty_braces():
    a = parse_assignment_fixture("2\nq = {}\n")
    assert a["q"].is_zero()


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 4))
def test_assignment_round_trip(seed, ambient):
    bindings = {
        name: random_subspace(ambient, dim % (ambient + 1), seed + dim)
        for dim, name in enumerate(("p", "q", "zz"))
    }
    a = Assignment(ambient, bindings)
    back = parse_assignment_fixture(format_assignment_fixture(a))
    assert back.ambient == a.ambient
    assert back.bindings == a.bindings


def test_format_sorts_variables():
    a = Assignment(2, {"z": Subspace.zero(2), "b": Subspace.full(2)})
    text = format_assignment_fixture(a)
    assert text.index("b = {") < text.index("z = {")


@pytest.mark.parametrize(
    "text, lineno",
    [
        ("", 1),                          # empty
        ("x\n1 0\n", 1),                  # ambient not a number
        ("0\n", 1),                       # ambient below one
        ("100000000\n", 1),               # ambient above MAX_AMBIENT
        ("2\n1 0 0\n", 2),                # row too wide
        ("2\n1 bogus\n", 2),              # bad scalar
        ("2\np = {\n1 0\n", 2),           # unterminated block
        ("2\n1 0\n", 2),                  # bare row where a block should open
        ("2\np = {\n1 0\n}\np = {}\n", 5),  # duplicate binding
        # digits are ASCII only: Arabic-Indic 2 as the ambient, 3 1 as a row
        pytest.param("\u0662\np = {\n\u0663 \u0661\n}\n", 1, id="unicode-ambient"),
        pytest.param("2\np = {\n\u0663 \u0661\n}\n", 3, id="unicode-row"),
        pytest.param("9" * 5000 + "\n", 1, id="long-ambient"),
    ],
)
def test_assignment_errors_carry_line_numbers(text, lineno):
    with pytest.raises(FixtureError) as err:
        parse_assignment_fixture(text)
    assert err.value.lineno == lineno
    assert f"line {lineno}:" in str(err.value)


def test_subspace_errors():
    with pytest.raises(FixtureError):
        parse_subspace_fixture("3\n1 0\n")
    with pytest.raises(FixtureError):
        parse_subspace_fixture("not-a-number\n")
