"""Exact scalar layer and elimination core: arithmetic laws, scalar text,
canonical forms, kernels."""

from fractions import Fraction
from math import lcm
from random import Random

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from gaussian import GaussianRational, gaussian_rows
import qlattice.linalg as linalg
from qlattice.fixtures import _format_basis
from qlattice.linalg import (
    ScalarFormatError,
    _combine_int,
    _conj_int_rows,
    _kernel_int,
    _merge_int_rows,
    _null_rows,
    _pair_int,
    _reduce_int_rows,
    format_scalar,
    parse_scalar,
)
import qlattice.subspaces as sub
from qlattice.subspaces import (
    Subspace,
    complement,
    join,
    leq,
    meet,
    meet_via_demorgan,
    random_subspace,
)

ZERO = GaussianRational(0)
ONE = GaussianRational(1)
I = GaussianRational(0, 1)

rationals = st.fractions(
    min_value=-4, max_value=4, max_denominator=3
)
scalars = st.builds(GaussianRational, rationals, rationals)


@st.composite
def matrices(draw, max_rows=4, max_cols=4, entry=scalars):
    """A nonempty list of equally long rows of scalars."""
    r = draw(st.integers(1, max_rows))
    c = draw(st.integers(1, max_cols))
    return [[draw(entry) for _ in range(c)] for _ in range(r)]


def span(m) -> Subspace:
    return Subspace.from_spanning(len(m[0]), m)


def float_rank(m) -> int:
    a = np.array([[complex(e.re) + 1j * complex(e.im) for e in row] for row in m])
    return int(np.linalg.matrix_rank(a))


def eye(n: int) -> list[list[int]]:
    return [[int(i == j) for j in range(n)] for i in range(n)]


class TestScalars:
    """The reference arithmetic of ``tests/gaussian.py``."""

    def test_basic_arithmetic(self):
        i = I
        assert i * i == GaussianRational(-1)
        assert (1 + i) * (1 - i) == GaussianRational(2)
        assert GaussianRational(Fraction(1, 2), 1) + GaussianRational(
            Fraction(1, 2), -1
        ) == ONE
        assert GaussianRational(3, 4) / GaussianRational(3, 4) == ONE

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            ONE / ZERO

    def test_lowest_terms(self):
        z = GaussianRational(Fraction(2, 4), Fraction(-3, -6))
        assert z.re.denominator == 2 and z.re.numerator == 1
        assert z.im.denominator == 2 and z.im.numerator == 1

    @given(scalars, scalars, scalars)
    def test_ring_laws(self, a, b, c):
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c

    @given(scalars)
    def test_field_inverse(self, a):
        if not a.is_zero():
            assert a / a == ONE
            assert a * (ONE / a) == ONE

    @given(scalars, scalars)
    def test_conjugate_is_ring_hom(self, a, b):
        assert (a + b).conjugate() == a.conjugate() + b.conjugate()
        assert (a * b).conjugate() == a.conjugate() * b.conjugate()
        assert a.conjugate().conjugate() == a

    @given(scalars)
    def test_norm2(self, a):
        assert a * a.conjugate() == GaussianRational(a.norm2())
        assert (a.norm2() > 0) == (not a.is_zero())


class TestScalarText:
    @pytest.mark.parametrize(
        "text,value",
        [
            ("0", ZERO),
            ("3", GaussianRational(3)),
            ("-1/2", GaussianRational(Fraction(-1, 2))),
            ("i", I),
            ("-i", -I),
            ("2*i", GaussianRational(0, 2)),
            ("-2/3*i", GaussianRational(0, Fraction(-2, 3))),
            ("1+2*i", GaussianRational(1, 2)),
            ("1-i", GaussianRational(1, -1)),
            ("1/2-3/4*i", GaussianRational(Fraction(1, 2), Fraction(-3, 4))),
        ],
    )
    def test_parse(self, text, value):
        assert parse_scalar(text) == value

    @pytest.mark.parametrize(
        "bad",
        ["", "x", "1.5", "1+", "i*i", "1//2", "1/0", "+",
         "+i", "+2*i", "+3", "1+-i", "1--2*i",
         "\u0663", "1/\u0662", "\uff11+2*i", "1+\u0663*i", "\u0661\u0660*i"],
    )
    def test_parse_rejects(self, bad):
        with pytest.raises(ScalarFormatError):
            parse_scalar(bad)

    @given(scalars)
    def test_round_trip(self, z):
        assert parse_scalar(format_scalar(z)) == z

    @pytest.mark.parametrize("digits", [599, 600, 601, 4299, 4300, 4301, 5000, 12345])
    def test_long_numbers_round_trip(self, digits):
        # Beyond the interpreter's int/str conversion limit (4300 digits by
        # default), in every component and sign.
        big = 10**digits - 1 - 10 ** (digits // 3)
        for z in [(big, 0), (-big, 0), (0, Fraction(1, big)),
                  (Fraction(-big, big + 2), Fraction(big, 7))]:
            assert parse_scalar(format_scalar(z)) == z
        text = ("9876543210" * (digits // 10 + 1))[:digits]
        value = 0
        for ch in text:
            value = 10 * value + "0123456789".index(ch)
        assert parse_scalar(text) == (value, 0)
        assert format_scalar((0, -value)) == f"-{text}*i"
        assert format_scalar((10**digits, 0)) == "1" + "0" * digits
        assert parse_scalar("-" + "0" * digits + "12") == (-12, 0)

    def test_matrix_round_trip_text(self):
        text = "1 0 1/2-3/4*i\n0 1 -2*i"
        rows = [[parse_scalar(tok) for tok in line.split()] for line in text.splitlines()]
        assert _format_basis(Subspace.from_spanning(3, rows)) == text


class TestRref:
    """The canonical reduced echelon form, read off ``Subspace.basis``."""

    def test_frozen_example_complex(self):
        # by hand: r2 <- r2 - 2 r1 kills the second row
        s = span([[0, 1, I], [0, 2, GaussianRational(0, 2)]])
        assert s.dim == 1
        assert s.basis == gaussian_rows([[0, 1, I]])

    def test_frozen_example_dependent_rows(self):
        s = span([[1, 1], [1, 1]])
        assert s.dim == 1
        assert s.basis == gaussian_rows([[1, 1]])

    def test_identity_fixed(self):
        s = span(eye(4))
        assert s.dim == 4 and s.basis == gaussian_rows(eye(4))

    def test_zero_matrix(self):
        s = span([[0, 0, 0], [0, 0, 0]])
        assert s.dim == 0 and s.basis == () and s.ambient == 3

    def test_pivot_normalisation(self):
        # complex pivot must become 1 exactly
        s = span([[GaussianRational(1, 1), 2]])
        assert s.dim == 1
        assert s.basis == gaussian_rows([[1, GaussianRational(1, -1)]])

    @given(matrices())
    @settings(max_examples=150)
    def test_rank_matches_float_oracle(self, m):
        assert span(m).dim == float_rank(m)

    @given(matrices())
    def test_idempotent(self, m):
        s = span(m)
        s2 = Subspace.from_spanning(s.ambient, s.basis)
        assert s2.basis == s.basis and s2.dim == s.dim

    @given(matrices(), st.randoms(use_true_random=False))
    def test_row_permutation_invariant(self, m, rnd):
        rows = list(m)
        rnd.shuffle(rows)
        assert span(rows).basis == span(m).basis

    @given(matrices(), scalars)
    def test_row_scaling_invariant(self, m, z):
        if z.is_zero():
            return
        scaled = [[z * e for e in m[0]]] + m[1:]
        assert span(scaled).basis == span(m).basis

    @given(matrices())
    def test_echelon_shape(self, m):
        s = span(m)
        e = gaussian_rows(s.basis)
        assert len(e) == s.dim
        pivots = []
        for i, row in enumerate(e):
            assert len(row) == s.ambient
            lead = next(c for c in range(s.ambient) if not row[c].is_zero())
            assert row[lead] == ONE
            assert all(e[j][lead].is_zero() for j in range(len(e)) if j != i)
            pivots.append(lead)
        assert pivots == sorted(pivots)


class TestKernel:
    """Kernels, read off the orthogonal complement: the complement of the
    span of the rows of m is the kernel of their conjugates."""

    def test_frozen_example(self):
        k = complement(span([[1, 0, 1]])).basis
        assert k == gaussian_rows([[1, 0, -1], [0, 1, 0]])

    def test_full_rank_kernel_empty(self):
        c = complement(span(eye(3)))
        assert c.basis == () and c.ambient == 3

    def test_zero_matrix_kernel_full(self):
        zero = [[0, 0, 0], [0, 0, 0]]
        assert complement(span(zero)).basis == gaussian_rows(eye(3))

    @given(matrices())
    @settings(max_examples=150)
    def test_substitute_back(self, m):
        k = gaussian_rows(complement(span(m)).basis)
        for u in m:
            for v in k:
                # <u, v> = sum conj(u_j) v_j
                assert sum((x.conjugate() * y for x, y in zip(u, v)), ZERO) == ZERO

    @given(matrices())
    def test_rank_nullity(self, m):
        s = span(m)
        assert complement(s).dim == len(m[0]) - s.dim

    @given(matrices())
    def test_kernel_is_canonical(self, m):
        k = complement(span(m)).basis
        s = Subspace.from_spanning(len(m[0]), k)
        assert s.dim == len(k) and s.basis == k


# --- Fraction-level reference for the Z[i] elimination core ----------------
#
# Gaussian rationals as (re, im) pairs of Fractions, reduced by textbook
# Gauss-Jordan with pivot 1.  Shares no code with the integer core.


def _gmul(x, y):
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def _ginv(x):
    n2 = x[0] * x[0] + x[1] * x[1]
    return (x[0] / n2, -x[1] / n2)


def _ref_rref(rows, ncols):
    """Nonzero rows of the reduced echelon form (pivots 1) and pivot columns."""
    work = [
        [(Fraction(r[2 * c]), Fraction(r[2 * c + 1])) for c in range(ncols)]
        for r in rows
    ]
    pivots = []
    for c in range(ncols):
        k = len(pivots)
        pi = next((i for i in range(k, len(work)) if work[i][c] != (0, 0)), None)
        if pi is None:
            continue
        work[k], work[pi] = work[pi], work[k]
        inv = _ginv(work[k][c])
        work[k] = [_gmul(inv, e) for e in work[k]]
        for i in range(len(work)):
            t = work[i][c]
            if i != k and t != (0, 0):
                work[i] = [
                    (e[0] - m[0], e[1] - m[1])
                    for e, m in zip(work[i], (_gmul(t, q) for q in work[k]))
                ]
        pivots.append(c)
    return work[: len(pivots)], pivots


def _ref_canonical(frac_rows):
    """Each row scaled by the lcm of its denominators, flattened to ints."""
    out = []
    for row in frac_rows:
        d = lcm(*(x.denominator for e in row for x in e))
        out.append([int(x * d) for e in row for x in e])
    return out


def _ref_reduce(rows, ncols):
    red, pivots = _ref_rref(rows, ncols)
    return _ref_canonical(red), pivots


def _ref_kernel(rows, ncols):
    red, pivots = _ref_rref(rows, ncols)
    basis = []
    for f in (c for c in range(ncols) if c not in pivots):
        v = [0] * (2 * ncols)
        v[2 * f] = 1
        for row, pc in zip(red, pivots):
            v[2 * pc], v[2 * pc + 1] = -row[f][0], -row[f][1]
        basis.append(v)
    return _ref_reduce(basis, ncols)


def _times(row, za, zb):
    out = []
    for k in range(0, len(row), 2):
        a, b = row[k], row[k + 1]
        out += [za * a - zb * b, za * b + zb * a]
    return out


@st.composite
def gaussian_int_rows(draw, max_cols=8):
    """Rows of Gaussian integers, some zero, some dependent on earlier rows,
    some carrying a Gaussian factor (1+i) or (2+i); in some draws one
    column is zero in every row, so a pivot-less column can lie left of a
    later pivot."""
    ncols = draw(st.integers(1, max_cols))
    bound = draw(st.sampled_from([1, 3, 20]))
    entry = st.integers(-bound, bound)
    rows = []
    for _ in range(draw(st.integers(0, ncols + 2))):
        kind = draw(st.sampled_from(["random", "zero", "dependent"]))
        if kind == "zero":
            row = [0] * (2 * ncols)
        elif kind == "dependent" and rows:
            row = [0] * (2 * ncols)
            for base in draw(st.lists(st.sampled_from(rows), min_size=1, max_size=3)):
                za, zb = draw(st.integers(-2, 2)), draw(st.integers(-2, 2))
                row = [x + y for x, y in zip(row, _times(base, za, zb))]
        else:
            row = [draw(entry) for _ in range(2 * ncols)]
        factor = draw(st.sampled_from([(1, 0), (1, 1), (2, 1)]))
        rows.append(_times(row, *factor))
    if draw(st.sampled_from(["rows", "zero column"])) == "zero column":
        c = draw(st.integers(0, ncols - 1))
        for row in rows:
            row[2 * c] = row[2 * c + 1] = 0
    return rows, ncols


class TestIntCore:
    @given(gaussian_int_rows())
    @settings(max_examples=200, deadline=None)
    def test_reduce_matches_fraction_reference(self, case):
        rows, ncols = case
        assert _reduce_int_rows(rows, ncols) == _ref_reduce(rows, ncols)

    def test_pivot_less_column_left_of_a_later_pivot(self):
        # Column 1 has no pivot, so the step at column 2 rewrites the row
        # with the pivot at column 0 from column 1 on, and its entry at
        # column 2 must come out zero.
        rows = [[1, -1, 0, 0, -1, -1], [-1, 1, 0, 0, -1, 0]]
        assert _reduce_int_rows(rows, 3) == ([[1, 0, 0, 0, 0, 0], [0, 0, 0, 0, 1, 0]], [0, 2])

    @given(gaussian_int_rows())
    @settings(max_examples=100, deadline=None)
    def test_kernel_matches_fraction_reference(self, case):
        rows, ncols = case
        assert _kernel_int(rows, ncols) == _ref_kernel(rows, ncols)[0]

    @given(gaussian_int_rows())
    @settings(max_examples=100, deadline=None)
    def test_complement_rows_are_hermitian_orthogonal(self, case):
        rows, ncols = case
        complement = _kernel_int(_conj_int_rows(rows), ncols)
        for u in rows:
            for v in complement:
                # <u, v> = sum conj(u_j) v_j, real and imaginary parts
                re = sum(u[k] * v[k] + u[k + 1] * v[k + 1] for k in range(0, len(u), 2))
                im = sum(u[k] * v[k + 1] - u[k + 1] * v[k] for k in range(0, len(u), 2))
                assert (re, im) == (0, 0)


@st.composite
def tall_gaussian_int_rows(draw, max_cols=8):
    """At least `ncols` rows: independent ones mixed with Q(i)-combinations
    of them under Gaussian multipliers, so the rank may fall short of
    `ncols` while every row stays nonzero."""
    ncols = draw(st.integers(1, max_cols))
    bound = draw(st.sampled_from([1, 3, 20]))
    entry = st.integers(-bound, bound)
    rank = draw(st.integers(1, ncols))
    base = []
    for _ in range(rank):
        row = [draw(entry) for _ in range(2 * ncols)]
        row[2 * draw(st.integers(0, ncols - 1))] = draw(st.integers(1, 5))
        base.append(row)
    rows = list(base)
    for _ in range(draw(st.integers(max(0, ncols - rank), ncols + 2))):
        row = [0] * (2 * ncols)
        for b in draw(st.lists(st.sampled_from(base), min_size=1, max_size=3)):
            za, zb = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
            row = [x + y for x, y in zip(row, _times(b, za, zb))]
        rows.append(row)
    rows = draw(st.permutations(rows))
    return rows, ncols


def _ref_rank_mod_p(rows, ncols):
    """``_rank_mod_p`` as it eliminated one column per step, re-slicing
    every row, kept as the reference for the row-by-row echelon step."""
    p, s = linalg._P, linalg._I_MOD_P
    m = [[(r[k] + s * r[k + 1]) % p for k in range(0, 2 * ncols, 2)] for r in rows]
    rank = 0
    while m and m[0]:
        for i, r in enumerate(m):
            if r[0]:
                break
        else:
            m = [r[1:] for r in m]
            continue
        prow = m.pop(i)
        lead, tail = prow[0], prow[1:]
        m = [
            [(x * lead - t * y) % p for x, y in zip(r[1:], tail)] if (t := r[0]) else r[1:]
            for r in m
        ]
        rank += 1
    return rank


@st.composite
def mod_p_rows(draw, max_cols=6):
    """Gaussian-integer rows, up to three more than columns: random ones,
    zero ones, repeats, Gaussian multiples of earlier rows, and earlier
    rows moved by multiples of _P or of ``_I_MOD_P - i``, which are equal
    to them mod _P."""
    ncols = draw(st.integers(1, max_cols))
    width = 2 * ncols
    vanishing = (linalg._P, 0, linalg._I_MOD_P, -1)  # both are 0 mod _P
    rows = []
    for _ in range(draw(st.integers(0, ncols + 3))):
        kind = draw(st.sampled_from(["random", "zero", "repeat", "multiple", "mod p"]))
        if kind == "zero":
            row = [0] * width
        elif kind == "random" or not rows:
            bound = draw(st.sampled_from([1, 3, 10**12]))
            row = [draw(st.integers(-bound, bound)) for _ in range(width)]
        else:
            row = draw(st.sampled_from(rows))
            if kind == "multiple":
                row = _times(row, draw(st.integers(-3, 3)), draw(st.integers(-3, 3)))
            elif kind == "mod p":
                row = list(row)
                for j in draw(st.lists(st.integers(0, ncols - 1), min_size=1, max_size=3)):
                    k = 2 * draw(st.integers(0, 1))
                    za, zb = draw(st.integers(-2, 2)), draw(st.integers(-2, 2))
                    va, vb = vanishing[k], vanishing[k + 1]
                    row[2 * j] += za * va - zb * vb
                    row[2 * j + 1] += za * vb + zb * va
        rows.append(list(row))
    return rows, ncols


class TestRankCertificate:
    """The rank certificate inside ``_reduce_int_rows``: the map
    a + b*i -> a + b*s mod p is a ring map, so full rank mod p is full rank
    over Q(i), and anything short of it falls through to Bareiss."""

    def test_prime_and_square_root_of_minus_one(self):
        p, s = linalg._P, linalg._I_MOD_P
        assert p % 4 == 1
        assert all(p % d for d in range(2, int(p**0.5) + 1))
        assert s * s % p == p - 1
        assert p * p < 2**30

    def test_i_is_not_sent_to_one(self, rank_verdicts):
        # Row 2 is i times row 1: rank 1, although under i -> 1 the rows
        # (1, 1) and (1, -1) would have rank 2.
        rows = [[1, 0, 0, 1], [0, 1, -1, 0]]
        assert _reduce_int_rows(rows, 2) == _ref_reduce(rows, 2)
        assert rank_verdicts == [1]

    @pytest.mark.parametrize("entry", [[linalg._P, 0], [linalg._I_MOD_P, -1]])
    def test_nonzero_entry_that_vanishes_mod_p(self, rank_verdicts, entry):
        # Nonzero in Z[i] but zero mod p: the certificate declines, and
        # Bareiss still finds the full C^1.
        assert _reduce_int_rows([entry], 1) == _ref_reduce([entry], 1) == ([[1, 0]], [0])
        assert rank_verdicts == [0]

    def test_short_stacks_skip_the_certificate(self, rank_verdicts):
        rows = [[1, 0, 2, 0, 0, 1], [0, 0, 1, 1, 3, 0]]
        assert _reduce_int_rows(rows, 3) == _ref_reduce(rows, 3)
        assert rank_verdicts == []

    @given(tall_gaussian_int_rows())
    @settings(max_examples=200, deadline=None)
    def test_tall_stacks_match_fraction_reference(self, case):
        rows, ncols = case
        assert _reduce_int_rows(rows, ncols) == _ref_reduce(rows, ncols)

    @given(mod_p_rows())
    @settings(max_examples=300, deadline=None)
    def test_row_by_row_rank_matches_column_by_column(self, case):
        rows, ncols = case
        assert linalg._rank_mod_p(rows, ncols) == _ref_rank_mod_p(rows, ncols)

    def test_rows_equal_mod_p_have_rank_one(self):
        # span(1, 0) against span(1, _P), as the meet stacks them
        rows = [[1, 0, 0, 0], [1, 0, linalg._P, 0]]
        assert linalg._rank_mod_p(rows, 2) == _ref_rank_mod_p(rows, 2) == 1

    @pytest.mark.parametrize("ncols", range(1, 9))
    def test_certificate_fires_on_full_rank_stacks(self, rank_verdicts, ncols):
        rng = Random(ncols)
        rows = [
            [rng.randint(-3, 3) for _ in range(2 * ncols)] for _ in range(ncols + 2)
        ]
        assert len(_ref_reduce(rows, ncols)[1]) == ncols
        assert _reduce_int_rows(rows, ncols) == _ref_reduce(rows, ncols)
        assert rank_verdicts == [ncols]


class TestOneReductionKernel:
    def test_kernel_reduces_once(self, monkeypatch):
        calls = []
        real = linalg._reduce_int_rows

        def spy(rows, ncols):
            calls.append(ncols)
            return real(rows, ncols)

        monkeypatch.setattr(linalg, "_reduce_int_rows", spy)
        rows = [[1, 0, 2, 1, 0, 0, 3, 0], [0, 0, 1, 0, 1, -1, 0, 2]]
        assert _kernel_int(rows, 4) == _ref_kernel(rows, 4)[0]
        assert calls == [4]

    @given(gaussian_int_rows())
    @settings(max_examples=100, deadline=None)
    def test_double_complement_is_the_span(self, case):
        rows, ncols = case
        perp = _kernel_int(_conj_int_rows(rows), ncols)
        assert _kernel_int(_conj_int_rows(perp), ncols) == _ref_reduce(rows, ncols)[0]


def _bilinear(u, v):
    """sum u_j v_j over Z[i], with no conjugation, as (re, im)."""
    re = sum(u[k] * v[k] - u[k + 1] * v[k + 1] for k in range(0, len(u), 2))
    im = sum(u[k] * v[k + 1] + u[k + 1] * v[k] for k in range(0, len(u), 2))
    return re, im


def _reverse_columns(rows, ncols):
    return [[x for c in reversed(range(ncols)) for x in r[2 * c : 2 * c + 2]] for r in rows]


def _lead(row):
    """The column of a canonical row's pivot: its first nonzero entry."""
    return next(k for k, x in enumerate(row) if x) // 2


class TestNullRows:
    """``_null_rows`` reads off rows whose joint kernel is a canonical span."""

    @given(gaussian_int_rows())
    @settings(max_examples=150, deadline=None)
    def test_read_off(self, case):
        rows, ncols = case
        red, pivots = _reduce_int_rows(rows, ncols)
        null = _null_rows(red, ncols)
        assert len(null) == ncols - len(red)
        for r in red:
            for w in null:
                assert _bilinear(r, w) == (0, 0)
        # By descending free column, with the columns reversed, the rows
        # already are the canonical reduced form, each led by its free
        # column.
        free = [c for c in range(ncols) if c not in pivots]
        flipped = _reverse_columns(null[::-1], ncols)
        assert [_lead(w) for w in flipped] == [ncols - 1 - j for j in reversed(free)]
        assert _reduce_int_rows(flipped, ncols) == (
            flipped, [ncols - 1 - j for j in reversed(free)]
        )
        assert _kernel_int(null, ncols) == red

    def test_example(self):
        # span(2 e0 + e2 - i e3, e1 + 3 e3) in C^4: free column 2 meets a
        # row with lead 2, free column 3 rows with leads 2 and 1.
        red = [[2, 0, 0, 0, 1, 0, 0, -1], [0, 0, 1, 0, 0, 0, 3, 0]]
        null = _null_rows(red, 4)
        # With the columns reversed, free column j leads at 3 - j.
        assert [_lead(w) for w in _reverse_columns(null, 4)] == [3 - 2, 3 - 3]
        assert null == [[-1, 0, 0, 0, 2, 0, 0, 0], [0, 1, -6, 0, 0, 0, 2, 0]]


@st.composite
def canonical_block_pairs(draw, max_cols=8):
    """(kind, a, b, ncols): two canonical blocks of `ncols` columns that
    are generic, share a line, are nested (either way round), are equal,
    stack to full rank, or are column-reversed null-row blocks."""
    kind = draw(st.sampled_from(["generic", "shared", "nested", "equal", "full", "null"]))
    ncols = draw(st.integers(1, max_cols))
    bound = draw(st.sampled_from([1, 3, 20]))
    entry = st.integers(-bound, bound)

    def rows(k):
        return [[draw(entry) for _ in range(2 * ncols)] for _ in range(k)]

    def canonical(rs):
        return _reduce_int_rows(rs, ncols)[0]

    def combos(block, k):
        out = []
        for _ in range(k):
            row = [0] * (2 * ncols)
            for base in block:
                za, zb = draw(st.integers(-2, 2)), draw(st.integers(-2, 2))
                row = [x + y for x, y in zip(row, _times(base, za, zb))]
            out.append(row)
        return out

    a = canonical(rows(draw(st.integers(0, ncols))))
    if kind == "generic":
        b = canonical(rows(draw(st.integers(0, ncols))))
    elif kind == "shared":
        line = rows(1)[0]
        a = canonical([line] + rows(draw(st.integers(0, ncols - 1))))
        b = canonical([_times(line, 2, 1)] + rows(draw(st.integers(0, ncols - 1))))
    elif kind == "nested":
        b = canonical(combos(a, draw(st.integers(0, len(a)))))
        if draw(st.booleans()):
            a, b = b, a
    elif kind == "equal":
        b = draw(st.sampled_from([a, canonical(combos(a, len(a) + 1))]))
    elif kind == "full":
        _, pivots = _reduce_int_rows(a, ncols)
        units = [[int(k == 2 * c) for k in range(2 * ncols)]
                 for c in range(ncols) if c not in pivots]
        b = canonical(rows(draw(st.integers(0, 2))) + units)
    else:
        def flipped(block):
            return _reverse_columns(_null_rows(block, ncols)[::-1], ncols)
        a, b = flipped(a), flipped(canonical(rows(draw(st.integers(0, ncols)))))
    return kind, a, b, ncols


class TestMerge:
    """``_merge_int_rows`` gives the canonical form of two stacked
    canonical blocks without eliminating them from scratch."""

    @given(canonical_block_pairs())
    @settings(max_examples=300, deadline=None)
    def test_merge_is_the_reduction_of_the_stack(self, case):
        kind, a, b, ncols = case
        assert _reduce_int_rows(a, ncols)[0] == a and _reduce_int_rows(b, ncols)[0] == b
        expected, pivots = _reduce_int_rows(a + b, ncols)
        for x, y in ((a, b), (b, a)):
            rows = _merge_int_rows(x, y, ncols)
            assert [list(r) for r in rows] == expected
            assert [_lead(r) for r in rows] == pivots
        if kind == "full":
            assert pivots == list(range(ncols))

    def test_example(self):
        # A = span(e0 + 2 e2, 2 e1 + e2); B's row e0 + e1 + e2 reduces to
        # 2 (e0 + e1 + e2) - 2 (e0 + 2 e2) - (2 e1 + e2) = -3 e2 against
        # A, the new pivot 2, which A's rows are then cleared of.
        a = [[1, 0, 0, 0, 2, 0], [0, 0, 2, 0, 1, 0]]
        b = [[1, 0, 1, 0, 1, 0]]
        identity = [[1, 0, 0, 0, 0, 0], [0, 0, 1, 0, 0, 0], [0, 0, 0, 0, 1, 0]]
        merged = _merge_int_rows(a, b, 3)
        assert merged == identity and [_lead(r) for r in merged] == [0, 1, 2]

    def test_block_in_the_span_leaves_the_larger_rows(self, monkeypatch):
        calls = []
        monkeypatch.setattr(linalg, "_reduce_int_rows", lambda *args: calls.append(args))
        a = [[1, 0, 0, 0, 2, 0], [0, 0, 2, 0, 1, 0]]
        b = [[2, 0, 2, 0, 5, 0]]  # 2 A_0 + A_1, canonically scaled
        merged = _merge_int_rows(b, a, 3)
        assert merged == a and [_lead(r) for r in merged] == [0, 1] and calls == []


def _ref_meet(p, q):
    """The meet through the fraction-level reference alone: the kernel of
    both operands' kernel rows."""
    n = p.ambient
    constraints = _ref_kernel(p._rows, n)[0] + _ref_kernel(q._rows, n)[0]
    return _ref_kernel(constraints, n)[0]


@st.composite
def random_pairs(draw, max_ambient=8):
    n = draw(st.integers(1, max_ambient))
    return tuple(
        random_subspace(n, draw(st.integers(0, n)), draw(st.integers(0, 10**6)))
        for _ in range(2)
    )


@st.composite
def structured_pairs(draw, max_ambient=8):
    """(kind, p, q, floor), with `floor` a subspace known to lie in p ^ q:
    nested operands, operands that share a line, dimensions adding up to
    n, and dimensions below n around a shared line."""
    kind = draw(st.sampled_from(["nested", "shared-line", "complementary", "short"]))
    n = draw(st.integers(3 if kind == "short" else 2, max_ambient))
    seeds = iter(draw(st.lists(st.integers(0, 10**6), min_size=3, max_size=3)))
    if kind == "nested":
        p = random_subspace(n, draw(st.integers(1, n - 1)), next(seeds))
        q = join(p, random_subspace(n, draw(st.integers(0, n)), next(seeds)))
        return kind, p, q, p
    if kind == "complementary":
        d = draw(st.integers(1, n - 1))
        p, q = random_subspace(n, d, next(seeds)), random_subspace(n, n - d, next(seeds))
        return kind, p, q, Subspace.zero(n)
    line = random_subspace(n, 1, next(seeds))
    if kind == "short":  # 2 + da + db < n: the dimension formula allows 0
        da = draw(st.integers(0, (n - 3) // 2))
        db = draw(st.integers(0, n - 3 - da))
    else:
        da, db = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
    p = join(line, random_subspace(n, da, next(seeds)))
    q = join(line, random_subspace(n, db, next(seeds)))
    return kind, p, q, line


class TestNullRowMeet:
    """``meet`` stacks the operands' null rows, or settles 0 by the
    dimension formula; it must agree with the De Morgan route and with the
    fraction-level reference."""

    @given(random_pairs())
    @settings(max_examples=100, deadline=None)
    def test_random_pairs(self, pq):
        p, q = pq
        meet.cache_clear()
        m = meet(p, q)
        assert m is meet_via_demorgan(p, q)
        if p.dim and q.dim:
            assert [list(r) for r in m._rows] == _ref_meet(p, q)

    @given(structured_pairs())
    @settings(max_examples=150, deadline=None)
    def test_structured_pairs(self, case):
        kind, p, q, floor = case
        meet.cache_clear()
        m = meet(p, q)
        assert m is meet(q, p) is meet_via_demorgan(p, q)
        assert [list(r) for r in m._rows] == _ref_meet(p, q)
        assert leq(floor, m)
        if kind == "nested":
            assert m is p
        if kind == "short":
            assert p.dim + q.dim < p.ambient and not m.is_zero()

    def test_certificate_declines_on_lines_equal_mod_p(self, rank_verdicts):
        # span(1, 0) and span(1, _P) are independent over Q(i) but equal
        # mod _P: the certificate of the meet sees rank 1.  The meet then
        # pairs q's null row (-_P, 1) with p's row, and the certificate of
        # the kernel's reduction sees that 1x1 matrix (-_P) as 0; Bareiss
        # still finds it nonzero, so the meet is 0.
        p, q = Subspace.line(2, [1, 0]), Subspace.line(2, [1, linalg._P])
        meet.cache_clear()
        assert meet(p, q).is_zero()
        assert rank_verdicts == [1, 0]

    def test_generic_zero_meet_takes_no_kernel(self, rank_verdicts, monkeypatch):
        p, q = random_subspace(8, 3, seed=1), random_subspace(8, 5, seed=2)
        kernels = []
        monkeypatch.setattr(sub, "_kernel_int", lambda *args: kernels.append(args))
        meet.cache_clear()
        assert meet(p, q).is_zero()
        assert rank_verdicts == [8] and kernels == []


class TestPairAndCombine:
    @given(gaussian_int_rows())
    @settings(max_examples=100, deadline=None)
    def test_pairing_is_the_bilinear_form(self, case):
        rows, _ = case
        others = rows[::-1] + [_times(r, 2, -1) for r in rows[:2]]
        pairs = _pair_int(rows, others)
        assert [[tuple(m[k : k + 2]) for k in range(0, len(m), 2)] for m in pairs] == [
            [_bilinear(r, o) for o in others] for r in rows
        ]

    @given(gaussian_int_rows(), st.data())
    @settings(max_examples=100, deadline=None)
    def test_combination_sums_scaled_rows(self, case, data):
        rows, ncols = case
        coeffs = [
            [data.draw(st.integers(-5, 5)) for _ in range(2 * len(rows))]
            for _ in range(data.draw(st.integers(0, 3)))
        ]
        expected = []
        for c in coeffs:
            total = [0] * (2 * ncols)
            for k, r in enumerate(rows):
                total = [x + y for x, y in zip(total, _times(r, c[2 * k], c[2 * k + 1]))]
            expected.append(total)
        assert _combine_int(coeffs, rows, ncols) == expected


def _meet_route(p, q):
    """The route `meet` must take on a nontrivial pair: "zero" when the
    rank certificate settles 0, else "pairing" when 2 (dim p + dim q) <=
    3n, and "null rows" otherwise."""
    n, s = p.ambient, p.dim + q.dim
    if s <= n and linalg._rank_mod_p(p._rows + q._rows, n) == s:
        return "zero"
    return "pairing" if 2 * s <= 3 * n else "null rows"


def _meet_kernels(p, q):
    """The kernel column counts `meet` must use on a nontrivial pair: the
    smaller operand's rows on the pairing route, and none otherwise (the
    null-row route merges both null-row blocks and reads the kernel off
    the merged form)."""
    return [min(p.dim, q.dim)] if _meet_route(p, q) == "pairing" else []


def _meet_merges(p, q):
    """The block row counts of the merges `meet` must ask for on a
    nontrivial pair: both operands' null rows on the null-row route, and
    none otherwise."""
    if _meet_route(p, q) != "null rows":
        return []
    return [(p.ambient - p.dim, p.ambient - q.dim)]


def _fresh_complement(p):
    p._complement = None  # recompute rather than read the cache
    return complement(p)


@st.composite
def route_pairs(draw, max_ambient=6):
    """Nontrivial operand pairs at n <= `max_ambient`: generic ones, and
    ones around a shared line, which no certificate can settle whatever
    their dims."""
    n = draw(st.integers(2, max_ambient))
    dp, dq = draw(st.integers(1, n - 1)), draw(st.integers(1, n - 1))
    seeds = iter(draw(st.lists(st.integers(0, 10**6), min_size=3, max_size=3)))
    if draw(st.booleans()):
        return random_subspace(n, dp, next(seeds)), random_subspace(n, dq, next(seeds))
    line = random_subspace(n, 1, next(seeds))
    p = join(line, random_subspace(n, dp - 1, next(seeds)))
    q = join(line, random_subspace(n, dq - 1, next(seeds)))
    return p, q


class TestSmallerSide:
    """``complement`` and ``meet`` eliminate on whichever side has fewer
    rows.  Every route must give the fraction-level reference rows."""

    @pytest.mark.parametrize("n", range(1, 7))
    def test_complement_routes_at_every_dimension(self, kernel_columns, n):
        for d in range(n + 1):
            for seed in range(3):
                p = random_subspace(n, d, seed)
                kernel_columns.clear()
                c = _fresh_complement(p)
                assert [list(r) for r in c._rows] == _ref_kernel(_conj_int_rows(p._rows), n)[0]
                # 2d > n: a forward reduction of the n - d null rows
                assert kernel_columns == ([] if 2 * d > n else [n])

    @given(st.integers(1, 6), st.data())
    @settings(max_examples=100, deadline=None)
    def test_complement_routes_agree(self, n, data):
        p = random_subspace(n, data.draw(st.integers(0, n)), data.draw(st.integers(0, 10**6)))
        c = _fresh_complement(p)
        assert [list(r) for r in c._rows] == _ref_kernel(_conj_int_rows(p._rows), n)[0]
        # the other route back: dim c and dim p lie on opposite sides of n/2
        # unless both equal it
        assert _fresh_complement(c) is p

    @pytest.mark.parametrize("n", range(2, 7))
    def test_meet_routes_at_every_dimension_pair(self, kernel_columns, merged_blocks, n):
        # Generic pairs, and pairs around a shared line, whose meet no
        # certificate settles, so that s <= n takes a kernel too.
        line = random_subspace(n, 1, seed=n)
        for dp in range(1, n):
            for dq in range(1, n):
                generic = random_subspace(n, dp, seed=dp), random_subspace(n, dq, seed=n + dq)
                shared = (join(line, random_subspace(n, dp - 1, seed=dp)),
                          join(line, random_subspace(n, dq - 1, seed=n + dq)))
                for kind, (p, q) in (("generic", generic), ("shared", shared)):
                    if p is q:
                        continue
                    meet.cache_clear()
                    kernel_columns.clear()
                    merged_blocks.clear()
                    m = meet(p, q)
                    assert kernel_columns == _meet_kernels(p, q)
                    assert merged_blocks == _meet_merges(p, q)
                    assert kernel_columns or merged_blocks or kind == "generic"
                    assert [list(r) for r in m._rows] == _ref_meet(p, q)

    @given(route_pairs())
    @settings(
        max_examples=150, deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_meet_routes_agree(self, kernel_columns, merged_blocks, pq):
        p, q = pq
        meet.cache_clear()
        kernel_columns.clear()
        merged_blocks.clear()
        m = meet(p, q)
        assert kernel_columns == (_meet_kernels(p, q) if p is not q else [])
        assert merged_blocks == (_meet_merges(p, q) if p is not q else [])
        assert [list(r) for r in m._rows] == _ref_meet(p, q)
        assert m is meet(q, p) is meet_via_demorgan(p, q)

    def test_certificate_declines_below_n(self, kernel_columns):
        # dims 2 and 2 in C^5 around a shared line: s = 4 <= n, the stack
        # has rank 3, and the kernel runs in the smaller operand's 2 rows
        line = Subspace.line(5, [1, 2, 0, (0, 1), 3])
        p = join(line, Subspace.line(5, [0, 1, 1, 0, 0]))
        q = join(line, Subspace.line(5, [1, 0, 0, 0, (2, -1)]))
        m = meet(p, q)
        assert m is line and kernel_columns == [2]
        assert [list(r) for r in m._rows] == _ref_meet(p, q)

    @given(route_pairs(max_ambient=8))
    @settings(
        max_examples=150, deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_join_reduces_no_more_rows_than_the_smaller_operand(self, reductions, pq):
        p, q = pq
        join.cache_clear()
        reductions.clear()
        j = join(p, q)
        assert all(len(rows) <= min(p.dim, q.dim) for rows in reductions)
        assert [list(r) for r in j._rows] == _ref_reduce(p._rows + q._rows, p.ambient)[0]


class TestConjTranspose:
    @given(matrices())
    def test_rank_preserved(self, m):
        # row rank equals column rank
        adjoint = [[e.conjugate() for e in col] for col in zip(*m)]
        assert span(adjoint).dim == span(m).dim
