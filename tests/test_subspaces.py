"""Lattice of subspaces: canonical form, lattice laws, orthocomplement."""

import copy
import gc
import pickle
import weakref
from contextlib import contextmanager
from fractions import Fraction
from math import lcm
from random import Random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gaussian import GaussianRational, gaussian_rows, rank
import qlattice.subspaces as sub
from qlattice.linalg import _reduce_int_rows, _strip_content
from qlattice.subspaces import (
    AmbientMismatch,
    Subspace,
    complement,
    embed,
    join,
    leq,
    meet,
    meet_via_demorgan,
    random_subspace,
)


I = GaussianRational(0, 1)


def span(ambient, *rows):
    return Subspace.from_spanning(ambient, rows)


def _memo_sizes():
    return meet.cache_info().currsize, join.cache_info().currsize


def _fixed(p, q):
    """The operands in the order meet and join compute them in."""
    return (p, q) if p._rows <= q._rows else (q, p)


@contextmanager
def _eliminations():
    """The elimination-core calls of meet's and join's bodies, in call
    order; every body that a shortcut does not settle makes one."""
    calls = []
    with pytest.MonkeyPatch.context() as mp:
        for name in ("_rank_mod_p", "_merge_int_rows", "_kernel_int", "_reversed_null_rows"):
            def spy(*args, _real=getattr(sub, name), _name=name):
                calls.append(_name)
                return _real(*args)
            mp.setattr(sub, name, spy)
        yield calls


def _is_join(j, p, q):
    """j is the span of p and q, by the reference rank."""
    P, Q, J = (gaussian_rows(s.basis) for s in (p, q, j))
    return rank(J) == rank(P + Q) == rank(J + P + Q)


def _is_meet(m, p, q):
    """m lies in p and in q and has the dimension of their intersection,
    by the reference rank."""
    P, Q, M = (gaussian_rows(s.basis) for s in (p, q, m))
    return (rank(M + P) == len(P) and rank(M + Q) == len(Q)
            and len(M) == len(P) + len(Q) - rank(P + Q))


def _inner(u, v):
    """<u, v>, conjugate-linear in u."""
    return sum((x.conjugate() * y for x, y in zip(u, v)), GaussianRational(0))


@st.composite
def subspaces(draw, ambient=None, max_ambient=4):
    n = ambient if ambient is not None else draw(st.integers(1, max_ambient))
    d = draw(st.integers(0, n))
    seed = draw(st.integers(0, 10**6))
    return random_subspace(n, d, seed)


@st.composite
def subspace_pairs(draw, max_ambient=4):
    n = draw(st.integers(1, max_ambient))
    return draw(subspaces(ambient=n)), draw(subspaces(ambient=n))


@st.composite
def subspace_triples(draw, max_ambient=4):
    n = draw(st.integers(1, max_ambient))
    return tuple(draw(subspaces(ambient=n)) for _ in range(3))


@st.composite
def trivial_operand_pairs(draw, max_ambient=4):
    """(p, q) in one ambient, each random, 0, 1, or the other operand."""
    n = draw(st.integers(1, max_ambient))
    p = draw(subspaces(ambient=n))
    kinds = {"random": draw(subspaces(ambient=n)), "zero": Subspace.zero(n),
             "full": Subspace.full(n), "same": p}
    q = kinds[draw(st.sampled_from(sorted(kinds)))]
    return draw(st.sampled_from([(p, q), (q, p)]))


@st.composite
def leq_pairs(draw, max_ambient=6):
    """(p, q) in one ambient, either way round: generic, around a shared
    line, nested, equal, with a zero operand, or coordinate subspaces,
    where some canonical rows of one may lie in the other and some not."""
    n = draw(st.integers(1, max_ambient))
    kind = draw(st.sampled_from(["generic", "shared", "nested", "equal", "zero", "coordinate"]))
    p = draw(subspaces(ambient=n))

    def coordinate():
        axes = draw(st.sets(st.integers(0, n - 1)))
        return Subspace.from_spanning(n, [[int(j == c) for j in range(n)] for c in axes])

    if kind == "generic":
        q = draw(subspaces(ambient=n))
    elif kind == "shared":
        line = random_subspace(n, 1, draw(st.integers(0, 10**6)))
        p, q = join(line, p), join(line, draw(subspaces(ambient=n)))
    elif kind == "nested":
        q = join(p, draw(subspaces(ambient=n)))
    elif kind == "equal":
        q = p
    elif kind == "zero":
        q = Subspace.zero(n)
    else:
        p, q = coordinate(), coordinate()
    return draw(st.sampled_from([(p, q), (q, p)]))


@st.composite
def nontrivial_pairs(draw, max_ambient=5):
    """(p, q) in one ambient, either way round, neither 0, C^n nor the
    other operand: generic, nested, of equal dimension, or around a
    shared line."""
    kind = draw(st.sampled_from(["generic", "nested", "equal-dimension", "shared-line"]))
    n = draw(st.integers(3 if kind == "nested" else 2, max_ambient))
    seeds = iter(draw(st.lists(st.integers(0, 10**6), min_size=3, max_size=3)))
    if kind == "nested":  # generic rows, so dim q = dim p + e < n
        p = random_subspace(n, draw(st.integers(1, n - 2)), next(seeds))
        q = join(p, random_subspace(n, draw(st.integers(1, n - 1 - p.dim)), next(seeds)))
    elif kind == "shared-line":
        line = random_subspace(n, 1, next(seeds))
        p = join(line, random_subspace(n, draw(st.integers(0, n - 2)), next(seeds)))
        q = join(line, random_subspace(n, draw(st.integers(0, n - 2)), next(seeds)))
    else:
        p = random_subspace(n, draw(st.integers(1, n - 1)), next(seeds))
        d = p.dim if kind == "equal-dimension" else draw(st.integers(1, n - 1))
        q = random_subspace(n, d, next(seeds))
    assume(p is not q and 0 < p.dim < n and 0 < q.dim < n)
    return draw(st.sampled_from([(p, q), (q, p)]))


@st.composite
def built_subspaces(draw, max_ambient=4):
    """One subspace from each constructor that stores rows."""
    n = draw(st.integers(1, max_ambient))
    p, q = draw(subspaces(ambient=n)), draw(subspaces(ambient=n))
    pad = draw(subspaces(max_ambient=3))
    rationals = st.fractions(min_value=-4, max_value=4, max_denominator=3)
    entry = st.builds(GaussianRational, rationals, rationals)
    row = st.lists(entry, min_size=n, max_size=n)
    spanning = draw(st.lists(row, min_size=1, max_size=n + 1))
    return (
        Subspace.from_spanning(n, spanning),
        join(p, q),
        meet(p, q),
        complement(p),
        embed(p, pad),
        Subspace.full(n),
        Subspace.zero(n),
        p,  # random_subspace
    )


class TestConstruction:
    def test_spanning_canonicalises(self):
        s = span(2, [1, 1], [2, 2])
        assert s.dim == 1
        assert s.basis == gaussian_rows([[1, 1]])

    def test_equality_is_set_equality(self):
        assert span(2, [1, 1], [1, -1]) == Subspace.full(2)
        assert span(3, [0, 2, 0]) == span(3, [0, 5, 0])

    def test_zero_and_full(self):
        z = Subspace.zero(3)
        assert z.dim == 0 and z.is_zero() and z.basis == ()
        f = Subspace.full(3)
        assert f.dim == f.ambient == 3
        assert f.basis == gaussian_rows([[1, 0, 0], [0, 1, 0], [0, 0, 1]])

    @pytest.mark.parametrize("ambient", [1, 2, 5, 9])
    def test_zero_and_full_are_the_interned_objects(self, ambient):
        z, f = Subspace.zero(ambient), Subspace.full(ambient)
        identity = [[int(i == j) for j in range(ambient)] for i in range(ambient)]
        assert z is Subspace._make(ambient, ()) is Subspace.from_spanning(ambient, [])
        assert f is Subspace.from_spanning(ambient, identity)
        refs = weakref.ref(z), weakref.ref(f)
        del z, f
        gc.collect()
        assert refs[0]() is Subspace.zero(ambient) is Subspace._make(ambient, ())
        assert refs[1]() is Subspace.full(ambient)
        for s in (Subspace.zero(ambient), Subspace.full(ambient)):
            assert copy.copy(s) is s and copy.deepcopy(s) is s
            assert pickle.loads(pickle.dumps(s)) is s

    @pytest.mark.parametrize("ambient", [0, -1])
    def test_zero_and_full_need_a_positive_ambient(self, ambient):
        with pytest.raises(AmbientMismatch):
            Subspace.zero(ambient)
        with pytest.raises(AmbientMismatch):
            Subspace.full(ambient)

    def test_ambient_mismatch(self):
        with pytest.raises(AmbientMismatch):
            Subspace.from_spanning(3, [[1, 0]])
        with pytest.raises(AmbientMismatch):
            join(Subspace.zero(2), Subspace.zero(3))

    @pytest.mark.parametrize("rows", [
        pytest.param([[1, 2], [3]], id="short-row"),
        pytest.param([[1, 2], [3, 4, 5]], id="long-row"),
        pytest.param([[]], id="empty-row"),
        pytest.param([[1, 2, 0]], id="zero-padded-row"),
    ])
    def test_row_of_wrong_length(self, rows):
        with pytest.raises(AmbientMismatch, match="coordinates, ambient is 2"):
            Subspace.from_spanning(2, rows)

    @pytest.mark.parametrize("ambient", [0, -1])
    def test_ambient_must_be_positive(self, ambient):
        with pytest.raises(AmbientMismatch):
            Subspace.from_spanning(ambient, [])

    def test_empty_spanning_set_is_zero(self):
        assert Subspace.from_spanning(3, []) is Subspace.zero(3)
        assert Subspace.from_spanning(3, [[0, (0, 0), Fraction(0)]]) is Subspace.zero(3)

    def test_ints_fractions_and_pairs_give_one_object(self):
        # Real scalars as ints, as Fractions, as pairs of either, and as the
        # pairs basis returns: the same vectors give the same object.
        forms = [
            [[1, 2, 0], [0, -3, 5]],
            [[Fraction(1), Fraction(2), Fraction(0)], [Fraction(0), Fraction(-3), Fraction(5)]],
            [[(1, 0), (2, 0), (0, 0)], [(0, 0), (-3, 0), (5, 0)]],
            [[(Fraction(1), 0), (2, Fraction(0)), 0], [0, (Fraction(-3), 0), 5]],
        ]
        built = [Subspace.from_spanning(3, rows) for rows in forms]
        assert all(s is built[0] for s in built)
        assert Subspace.from_spanning(3, built[0].basis) is built[0]
        # and with an imaginary part, scaled by 1/2 as Fractions
        p = Subspace.from_spanning(3, [[1, (0, 1), (2, -1)]])
        half = Fraction(1, 2)
        assert Subspace.from_spanning(3, [[half, (0, half), (1, -half)]]) is p
        assert Subspace.line(3, [(0, 1), -1, (1, 2)]) is p

    @given(subspaces())
    def test_basis_is_canonical_rref(self, s):
        again = Subspace.from_spanning(s.ambient, s.basis)
        assert again.dim == s.dim and again.basis == s.basis


class TestInterning:
    @given(subspaces(), st.integers(-3, 3), st.integers(-3, 3))
    def test_other_spanning_set_gives_same_object(self, s, scale, weight):
        # scale the basis by a nonzero Gaussian integer, add a multiple of
        # the first row to the others, and append the sum of all rows
        c = GaussianRational(scale, 1)
        rows = [[c * x for x in row] for row in gaussian_rows(s.basis)]
        if rows:
            rows[1:] = [[x + weight * y for x, y in zip(r, rows[0])] for r in rows[1:]]
        rows.append([sum(col, GaussianRational(0)) for col in zip(*rows)] or [0] * s.ambient)
        assert Subspace.from_spanning(s.ambient, rows) is s

    def test_copy_deepcopy_and_pickle_keep_identity(self):
        p = span(3, [1, I, 0], [0, 0, 2])
        assert copy.copy(p) is p
        assert copy.deepcopy(p) is p
        assert copy.deepcopy([p, {"p": p}])[1]["p"] is p
        assert pickle.loads(pickle.dumps(p)) is p

    def test_table_keeps_no_dropped_subspace_alive(self, empty_memo):
        p = span(4, [1, 2, 3, 4], [0, 1, I, 7])
        complement(p)  # the complement cache links p and ~p in a cycle
        ref = weakref.ref(p)
        del p
        gc.collect()
        assert ref() is None

    def test_sweeps_keep_the_table_near_the_live_count(self):
        def live():
            return sum(r() is not None for r in sub._interned.values())

        for k in range(10_000):
            # the line of (1, k, 1), canonical as it stands
            Subspace._make(3, [[1, 0, k, 0, 1, 0]])
            if k % 1_000 == 999:
                assert len(sub._interned) <= 2 * live() + sub._SWEEP_FLOOR
        gc.collect()
        assert len(sub._interned) <= 2 * live() + sub._SWEEP_FLOOR

    def test_dropped_subspace_is_rebuilt_live(self):
        rows = ((1, 0, 0, 0, 0, 0, 7, 5, 0, 3), (0, 0, 1, 0, 0, 0, 2, 0, 0, 11))
        key = (5, rows)
        p = span(5, [1, 0, 0, 7 + 5 * I, 3 * I], [0, 1, 0, 2, 11 * I])
        assert p._rows == rows and sub._interned[key]() is p
        del p
        gc.collect()
        assert sub._interned[key]() is None  # the dead entry is still there
        q = span(5, [1, 0, 0, 7 + 5 * I, 3 * I], [0, 1, 0, 2, 11 * I])
        assert isinstance(q, Subspace) and q._rows == rows
        assert sub._interned[key]() is q
        assert Subspace._make(5, rows) is q


class TestAmbientCheck:
    """Every lattice operation refuses operands from different ambients."""

    @pytest.mark.parametrize("op", [meet, join])
    @pytest.mark.parametrize("small", [Subspace.zero(2), Subspace.full(2)], ids=["zero", "full"])
    def test_shortcut_operands(self, op, small):
        big = span(3, [1, 1, 0])
        with pytest.raises(AmbientMismatch):
            op(small, big)
        with pytest.raises(AmbientMismatch):
            op(big, small)

    @pytest.mark.parametrize("op", [meet, join, meet_via_demorgan, leq])
    def test_plain_miss(self, op, empty_memo):
        with pytest.raises(AmbientMismatch):
            op(span(2, [1, 1]), span(3, [1, 0, 1], [0, 1, 0]))
        assert _memo_sizes() == (0, 0)

    @pytest.mark.parametrize("op", [meet, join])
    def test_memo_holding_an_entry_for_one_operand(self, op, empty_memo):
        p, q = span(2, [1, -1]), span(2, [1, 1])
        assert _fixed(p, q) == (p, q)
        op(p, q)
        assert op.cache_info().currsize == 1
        other = span(3, [1, 0, 1])
        for args in ((p, other), (other, p), (other, q)):
            with pytest.raises(AmbientMismatch):
                op(*args)

    @pytest.mark.parametrize("op", [meet, join])
    @pytest.mark.parametrize("other", [Subspace.zero(3), Subspace.full(3)], ids=["zero", "full"])
    @pytest.mark.parametrize("small", [Subspace.zero(2), Subspace.full(2)], ids=["zero", "full"])
    def test_trivial_on_both_sides(self, op, other, small):
        with pytest.raises(AmbientMismatch):
            op(small, other)
        with pytest.raises(AmbientMismatch):
            op(other, small)

    @pytest.mark.parametrize("op", [meet, join])
    @pytest.mark.parametrize(
        "other", [Subspace.zero(3), Subspace.full(3), span(3, [1, 0, 1])],
        ids=["zero", "full", "line"])
    def test_memo_entry_for_the_mixed_pair(self, op, other, empty_memo):
        # an exception is never cached, so a mixed pair never gets an
        # entry: each repeat runs the ambient test again and raises
        p = span(2, [1, 1])
        q = span(2, [1, -1])
        assert _fixed(q, p) == (q, p)
        op(q, p)
        before = op.cache_info()
        for _ in range(3):
            with pytest.raises(AmbientMismatch):
                op(p, other)
            with pytest.raises(AmbientMismatch):
                op(other, p)
        after = op.cache_info()
        assert after.currsize == before.currsize == 1
        assert after.hits == before.hits

    def test_leq(self):
        with pytest.raises(AmbientMismatch):
            leq(Subspace.zero(2), Subspace.full(3))


class TestCanonicalRows:
    @given(built_subspaces())
    @settings(max_examples=150, deadline=None)
    def test_stored_rows_are_already_reduced(self, built):
        # Subspace.basis reads each pivot off the stored rows, so reducing
        # them again must change nothing.
        for s in built:
            red, _ = _reduce_int_rows(s._rows, s.ambient)
            assert tuple(map(tuple, red)) == s._rows


class TestJoinMeet:
    def test_join_example(self):
        p = span(4, [1, 0, 0, 0], [0, 1, 0, 0])
        r = span(4, [1, 0, 0, 0], [0, 1, 1, 0])
        assert join(p, r) == span(4, [1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0])

    def test_meet_of_planes_is_line(self):
        p = span(3, [1, 0, 0], [0, 1, 0])
        q = span(3, [0, 1, 0], [0, 0, 1])
        assert meet(p, q) == span(3, [0, 1, 0])

    def test_meet_of_distinct_lines_is_zero(self):
        p = span(2, [1, 1])
        q = span(2, [1, -1])
        assert meet(p, q).is_zero()

    @given(subspace_pairs())
    @settings(max_examples=80)
    def test_dimension_formula(self, pq):
        p, q = pq
        assert meet(p, q).dim + join(p, q).dim == p.dim + q.dim

    @given(subspace_pairs())
    @settings(max_examples=80)
    def test_meet_routes_agree(self, pq):
        p, q = pq
        assert meet(p, q) == meet_via_demorgan(p, q)

    @given(subspace_pairs())
    def test_leq_meet_consistency(self, pq):
        p, q = pq
        assert leq(p, q) == (meet(p, q) == p)
        assert leq(meet(p, q), p) and leq(p, join(p, q))

    @given(leq_pairs())
    @settings(max_examples=200, deadline=None)
    def test_leq_is_meet_returning_the_operand(self, pq):
        p, q = pq
        assert leq(p, q) == (meet(p, q) is p)
        assert leq(q, p) == (meet(q, p) is q)

    @given(subspace_triples())
    @settings(max_examples=60)
    def test_lattice_axioms(self, pqr):
        p, q, r = pqr
        assert meet(p, q) == meet(q, p) and join(p, q) == join(q, p)
        assert meet(meet(p, q), r) == meet(p, meet(q, r))
        assert join(join(p, q), r) == join(p, join(q, r))
        assert join(p, meet(p, q)) == p and meet(p, join(p, q)) == p

    def test_distributivity_fails_with_three_lines(self):
        p = span(2, [1, 1])
        q = span(2, [1, 0])
        r = span(2, [0, 1])
        lhs = join(p, meet(q, r))
        rhs = meet(join(p, q), join(p, r))
        assert lhs == p and rhs == Subspace.full(2)
        assert lhs != rhs


class TestLargeAmbient:
    """At n = 32, generic half-dimensional operands meet in 0 and join to
    C^n, and the rank certificate settles both without Bareiss: the meet
    by the dimension formula, without a kernel."""

    @pytest.fixture()
    def verdicts(self, empty_memo, rank_verdicts):
        return rank_verdicts

    def test_generic_meet_and_join_are_certified(self, verdicts, monkeypatch):
        p = random_subspace(32, 16, seed=1)
        q = random_subspace(32, 16, seed=2)
        complement(p), complement(q)  # half-dimensional: no certificate
        assert verdicts == []
        kernels = []
        monkeypatch.setattr(sub, "_kernel_int", lambda *args: kernels.append(args))
        assert meet(p, q).is_zero()
        assert kernels == []
        assert join(p, q).dim == 32
        assert verdicts == [32, 32]

    def test_full_dimensional_sample_is_certified(self, verdicts):
        assert random_subspace(32, 32, seed=3).dim == 32
        assert verdicts == [32]


class TestSmallerSideAtLargeAmbient:
    """At n = 32, meet and complement eliminate on the side with fewer
    rows."""

    def test_meet_eliminates_in_the_smaller_operand(self, kernel_columns):
        # dims 16 and 18 meet in a plane: the 14 null rows of q pair with
        # the 16 rows of p, and the one kernel has 16 columns, not 32
        p = random_subspace(32, 16, seed=1)
        q = random_subspace(32, 18, seed=2)
        m = meet(p, q)
        assert kernel_columns == [16]
        assert m.dim == 2 and leq(m, p) and leq(m, q) and join(p, q).dim == 32

    def test_complement_reduces_the_fewer_null_rows(self, kernel_columns):
        # dim 24: the 8 null rows of the conjugate rows are reduced forward
        # with no kernel; back from dim 8, the kernel route must agree
        p = random_subspace(32, 24, seed=3)
        p._complement = None
        c = complement(p)
        assert c.dim == 8 and kernel_columns == []
        c._complement = None
        assert complement(c) is p and kernel_columns == [32]

    def test_join_reduces_only_the_smaller_operand(self, reductions):
        # dims 12 and 8 span 20 dimensions: the 8 rows of q are reduced
        # against p's 12, and only those 8 go through Bareiss
        p = random_subspace(32, 12, seed=1)
        q = random_subspace(32, 8, seed=2)
        reductions.clear()
        j = join(p, q)
        assert [len(rows) for rows in reductions] == [8]
        assert j.dim == 20 and leq(p, j) and leq(q, j)


def _bits(rows):
    return max((abs(x).bit_length() for r in rows for x in r), default=0)


class TestJoinGrowth:
    """What ``join`` hands to Bareiss is bounded by its operands' sizes:
    each row of q reduced against p's rows (dim p >= dim q) has at most
    bits(L) + bits(max|p|) + bits(max|q|) + ceil(log2(dim p)) + 3 bits,
    with L the lcm of p's leads."""

    @pytest.mark.parametrize("n", [12, 16])
    def test_rows_handed_to_bareiss_are_bounded(self, reductions, n):
        line = random_subspace(n, 1, seed=n)
        cases = []
        for dp, dq in ((n // 4, n // 4), (n // 2, n // 4), (n // 2, n // 2 - 1), (n - 2, 1)):
            for seed in range(3):
                cases.append((random_subspace(n, dp, seed=seed),
                              random_subspace(n, dq, seed=seed + 100)))
                cases.append((join(line, random_subspace(n, dp - 1, seed=seed + 200)),
                              join(line, random_subspace(n, dq - 1, seed=seed + 300))))
        for p, q in cases:
            if p.dim < q.dim:
                p, q = q, p
            join.cache_clear()
            reductions.clear()
            join(p, q)
            scale = lcm(*(next(x for x in r if x) for r in p._rows))
            bound = (scale.bit_length() + _bits(p._rows) + _bits(q._rows)
                     + (p.dim - 1).bit_length() + 3)
            assert len(reductions) == (0 if leq(q, p) else 1)
            assert all(_bits(rows) <= bound for rows in reductions)


class TestMeetTakesNoComplement:
    @given(subspace_pairs(max_ambient=6))
    @settings(max_examples=100, deadline=None)
    def test_meet_never_calls_complement(self, pq):
        p, q = pq

        def refuse(s):
            raise AssertionError("meet took a complement")

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sub, "complement", refuse)
            meet.cache_clear()  # no earlier result answers
            m = meet(p, q)
        assert m is meet_via_demorgan(p, q)


class TestComplement:
    def test_coordinate_example(self):
        assert complement(span(2, [1, 0])) == span(2, [0, 1])

    def test_complex_line(self):
        # <(1, i), (1, -i)> = 1 + conj(i)(-i) = 0, checked by hand
        assert complement(span(2, [1, I])) == span(2, [1, -I])

    @given(subspaces())
    def test_involution_returns_same_object(self, s):
        assert complement(complement(s)) is s

    @given(subspaces())
    @settings(max_examples=80)
    def test_complement_dimension_and_orthogonality(self, s):
        c = complement(s)
        assert s.dim + c.dim == s.ambient
        for u in gaussian_rows(s.basis):
            for v in c.basis:
                assert _inner(u, v).is_zero()

    @given(subspaces())
    def test_meet_with_complement_is_zero(self, s):
        assert meet(s, complement(s)).is_zero()
        assert join(s, complement(s)).dim == s.ambient

    @given(subspace_pairs())
    @settings(max_examples=60)
    def test_de_morgan(self, pq):
        p, q = pq
        assert complement(meet(p, q)) == join(complement(p), complement(q))
        assert complement(join(p, q)) == meet(complement(p), complement(q))

    @given(subspace_pairs())
    @settings(max_examples=60)
    def test_orthomodular_law(self, pq):
        p, q = pq
        # p ^ (~p v (p ^ q)) = p ^ q
        assert meet(p, join(complement(p), meet(p, q))) == meet(p, q)

    @given(subspace_triples())
    @settings(max_examples=60)
    def test_modular_law(self, pqr):
        p, q, r = pqr
        lhs = join(meet(p, r), meet(q, r))
        rhs = meet(join(meet(p, r), q), r)
        assert lhs == rhs


class TestOpMemo:
    """``meet`` and ``join`` are ``lru_cache`` functions; ``cache_info()``
    counts the memo's hits, misses and entries, and ``__wrapped__`` is the
    uncached body."""

    @given(subspace_pairs())
    @settings(max_examples=80)
    def test_memoised_results_match_fresh_ones(self, pq):
        p, q = pq
        m, j = meet(p, q), join(p, q)
        assert meet(p, q) is m and join(p, q) is j
        # a fresh body run: in the other order the body passes the call on
        lo, hi = _fixed(p, q)
        assert meet.__wrapped__(lo, hi) is m and join.__wrapped__(lo, hi) is j
        meet.cache_clear()
        join.cache_clear()
        assert meet(p, q) == m and join(p, q) == j

    def test_equal_operands_built_separately_hit(self, empty_memo):
        p, q = span(3, [1, 1, 0], [0, 0, 1]), span(3, [1, 0, 0], [0, 1, 1])
        assert _fixed(p, q) == (q, p)
        # the other order: a miss passed on to a miss in the fixed order,
        # two entries and one body run each (a kernel on the pairing route
        # for the meet, the full-rank certificate for the join)
        with _eliminations() as calls:
            m, j = meet(p, q), join(p, q)
        assert calls == ["_kernel_int", "_rank_mod_p"]
        p2, q2 = span(3, [2, 2, 0], [0, 0, 3]), span(3, [1, 1, 1], [0, 1, 1])
        assert p2 is p and q2 is q
        with _eliminations() as calls:
            assert meet(p2, q2) is m and join(p2, q2) is j
        assert calls == []
        for op in (meet, join):
            assert op.cache_info()[:2] == (1, 2)  # hits, misses
        assert _memo_sizes() == (2, 2)

    def test_memo_is_bounded(self, empty_memo):
        memos = (meet, join, meet_via_demorgan)
        assert [op.cache_info().currsize for op in memos] == [0, 0, 0]  # emptied
        limit = join.cache_info().maxsize
        assert limit == sub._MEMO_LIMIT // 2
        assert all(op.cache_info().maxsize == limit for op in memos)
        lines = [span(3, [1, k, 0]) for k in range(40)]
        largest = dict.fromkeys(memos, 0)
        for p in lines:
            for q in lines:
                if p is not q:
                    for op in memos:
                        op(p, q)
                        largest[op] = max(largest[op], op.cache_info().currsize)
        assert 40 * 39 > limit
        for op in memos:
            assert largest[op] <= limit
            assert 0 < op.cache_info().currsize < 40 * 39

    def test_a_repeated_meet_counts_one_miss_then_one_hit(self, empty_memo):
        q, p = span(3, [1, 1, 0], [0, 0, 1]), span(3, [1, 0, 0], [0, 1, 1])
        assert _fixed(p, q) == (p, q)
        m = meet(p, q)
        assert meet.cache_info()[:3] == (0, 1, sub._MEMO_LIMIT // 2)
        assert meet(p, q) is m
        assert meet.cache_info() == (1, 1, sub._MEMO_LIMIT // 2, 1)

    @given(trivial_operand_pairs())
    @settings(max_examples=150)
    def test_trivial_operands_give_the_full_answer(self, pq):
        p, q = pq
        meet.cache_clear()
        join.cache_clear()
        assert meet(p, q) is meet_via_demorgan(p, q)
        red, _ = _reduce_int_rows(p._rows + q._rows, p.ambient)
        assert join(p, q) is Subspace._make(p.ambient, red)

    def test_trivial_call_returns_an_operand_and_hits_when_repeated(self, empty_memo):
        for n in range(1, 5):
            zero, full = Subspace.zero(n), Subspace.full(n)
            for d in range(n + 1):
                p = random_subspace(n, d, seed=d)
                for q in (zero, full, p):
                    for args in ((p, q), (q, p)):
                        small = zero if zero in args else p
                        big = full if full in args else p
                        for op, want in ((meet, small), (join, big)):
                            op.cache_clear()
                            assert op(*args) is want  # the operand itself
                            assert op(*args) is want
                            assert op.cache_info()[:2] == (1, 1)  # hits, misses

    def test_demorgan_route_adds_no_meet_entry(self, empty_memo):
        p, q = span(3, [1, 1, 0], [0, 0, 1]), span(3, [1, 0, 0], [0, 1, 1])
        m = meet_via_demorgan(p, q)
        assert meet.cache_info()[:2] == (0, 0) and _memo_sizes()[0] == 0
        # the join of the complements comes in the other order: two misses
        assert _fixed(complement(p), complement(q)) == (complement(q), complement(p))
        assert join.cache_info()[1:] == (2, sub._MEMO_LIMIT // 2, 2)
        assert meet_via_demorgan.cache_info()[:2] == (0, 1)
        assert meet_via_demorgan(p, q) is m
        assert meet_via_demorgan.cache_info()[:2] == (1, 1)
        assert join.cache_info().misses == 2 and meet.cache_info().currsize == 0


class TestOnePairOnce:
    """A nontrivial pair is computed only in the order ``p._rows <
    q._rows``; the other order is passed on to the memoised function, so
    each unordered pair runs the body's elimination once."""

    @given(nontrivial_pairs())
    @settings(max_examples=150, deadline=None)
    def test_each_unordered_pair_is_computed_once(self, pq):
        p, q = pq
        for op, is_result in ((meet, _is_meet), (join, _is_join)):
            with _eliminations() as calls:
                fresh = op.__wrapped__(*_fixed(p, q))
            once = len(calls)
            op.cache_clear()
            with _eliminations() as calls:
                first = op(p, q)
                assert len(calls) == once
                assert op(q, p) is first is fresh
            assert len(calls) == once > 0
            info = op.cache_info()
            assert (info.hits, info.misses, info.currsize) == (1, 2, 2)
            assert is_result(op(p, q), p, q) and is_result(op(q, p), q, p)


class TestEmbed:
    def test_pads_with_block(self):
        p = span(2, [1, 1])
        big = embed(p, Subspace.full(1))
        assert big.ambient == 3
        assert big == span(3, [1, 1, 0], [0, 0, 1])

    def test_zero_pad(self):
        p = span(2, [1, I])
        big = embed(p, Subspace.zero(2))
        assert big.ambient == 4 and big.dim == 1
        assert big == span(4, [1, I, 0, 0])

    def test_transported_distributivity_failure(self):
        # the three-line counterexample keeps working after p (+) C^k
        for extra in (1, 2):
            pad = Subspace.full(extra)
            p = embed(span(2, [1, 1]), pad)
            q = embed(span(2, [1, 0]), pad)
            r = embed(span(2, [0, 1]), pad)
            assert join(p, meet(q, r)) != meet(join(p, q), join(p, r))


class TestRandomSubspace:
    def test_deterministic(self):
        a = random_subspace(4, 2, seed=11)
        b = random_subspace(4, 2, seed=11)
        assert a == b and a is b

    def test_requested_dimension(self):
        for dim in range(5):
            assert random_subspace(4, dim, seed=dim).dim == dim

    def test_full_and_zero_dims(self):
        assert random_subspace(3, 0, seed=1).is_zero()
        assert random_subspace(3, 3, seed=1).dim == 3

    def test_dim_out_of_range(self):
        with pytest.raises(AmbientMismatch):
            random_subspace(3, 4, seed=1)

    def test_negative_coefficient_bound_is_refused(self):
        with pytest.raises(ValueError, match="negative"):
            random_subspace(3, 1, seed=1, coeff_bound=-1)

    @pytest.mark.parametrize("dim", [0, 1, 3])
    @pytest.mark.parametrize("bound", [0, -5])
    def test_bound_below_one_is_refused_before_any_draw(self, dim, bound):
        rng = Random(1)
        state = rng.getstate()
        with pytest.raises(ValueError, match="negative"):
            sub._random_from(rng, 3, dim, bound)
        assert rng.getstate() == state
        with pytest.raises(ValueError, match="at least 1"):
            random_subspace(3, dim, seed=1, coeff_bound=bound)

    @pytest.mark.parametrize("seed", [0, 1, 7, 2024, "random:0:3"])
    def test_below_draws_as_randrange(self, seed):
        ours, twin = Random(seed), Random(seed)
        for n in range(1, 71):
            for _ in range(5):
                assert sub._below(ours, n) == twin.randrange(n)
        assert ours.getstate() == twin.getstate()

    @pytest.mark.parametrize("seed", [0, 5, "laws:0:4"])
    def test_random_from_keeps_the_randint_stream(self, seed):
        # 40000 draws 17 bits per entry
        ours, twin = Random(seed), Random(seed)
        for ambient in range(1, 9):
            for dim in range(ambient + 1):
                for bound in (1, 2, 3, 7, 40000):
                    got = sub._random_from(ours, ambient, dim, bound)
                    assert got is _randint_random_from(twin, ambient, dim, bound)
        assert ours.getstate() == twin.getstate()

    def test_full_rank_draw_is_the_held_full_space(self, monkeypatch):
        # At dim == ambient the rank certificate settles a full-rank draw
        # with no reduction, and the draws after it are the ones they were.
        calls = []
        reduce = sub._reduce_int_rows

        def spy(rows, ncols):
            calls.append(ncols)
            return reduce(rows, ncols)

        monkeypatch.setattr(sub, "_reduce_int_rows", spy)
        ours, twin = Random(3), Random(3)
        got = sub._random_from(ours, 4, 4, 3)
        assert got is Subspace.full(4) and calls == []
        assert _randint_random_from(twin, 4, 4, 3) is got
        assert sub._random_from(ours, 4, 2, 3) is _randint_random_from(twin, 4, 2, 3)
        assert ours.getstate() == twin.getstate()


def _randint_random_from(rng, ambient, dim, coeff_bound):
    """``_random_from`` as it drew each coefficient through ``rng.randint``."""
    if dim == 0:
        return Subspace.zero(ambient)
    for _ in range(sub._MAX_SAMPLE_TRIES):
        rows = []
        for _ in range(dim):
            row = [rng.randint(-coeff_bound, coeff_bound) for _ in range(2 * ambient)]
            _strip_content(row)
            rows.append(row)
        red, _ = _reduce_int_rows(rows, ambient)
        if len(red) == dim:
            return Subspace._make(ambient, red)
    raise RuntimeError("no sample")
