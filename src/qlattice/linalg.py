"""Exact linear algebra over the Gaussian rationals.

Scalars are complex numbers a + b*i with rational a, b.  At the edges,
where text is parsed and printed and where subspaces are built from or
turned back into coordinates, a scalar is its ``(re, im)`` pair of ints or
:class:`fractions.Fraction`; numbers of any length convert to and from
text exactly.  Row reduction and kernels are exact; no floating point is
used anywhere.

Internally, elimination runs on integer rows: each row is scaled by the
lcm of its denominators and entries become Gaussian integers stored as
interleaved ``(re, im)`` machine-int pairs.  The one rank certificate
sends rows to F_p, for a prime ``_P = 1 (mod 4)``, by the ring map that
sends i to a square root of -1; the rank of the images is a lower bound
on the rank, and a full one makes the identity the answer.  It is an
echelon step over F_p: it reduces the images row by row against the
pivot rows found so far, without inverses, and stops as soon as the rank
reaches the column count.  Every other input goes through
fraction-free Gauss-Jordan (Bareiss): each combine
``D_k * r - r[c_k] * p_k`` is divided exactly by the previous pivot
value, so every stored entry is a minor of the input and coefficient size
stays bounded by Hadamard's inequality.  Every row takes every step, so
all rows share one level, and a step rewrites a row only on the columns
where it can still change.  Null rows, whose kernel is a canonical span,
are read straight off its free columns, and a kernel reads them off one
reduction of its input with the columns reversed.  The span of two
canonical blocks is merged rather than eliminated afresh: the smaller
block's rows are reduced against the larger one, an exact membership
step with no division, only the rows it leaves go through Bareiss, and
the larger block's rows are then cleared of the new pivot columns with
one lcm scale each.  Two products of rows let a caller eliminate on the
side with fewer rows: the matrix of the bilinear pairing (no
conjugation) of two row lists, and the rows that a list of coefficient
rows combines.  Fractions reappear only when a canonical reduced row
echelon basis is materialised, with each pivot normalised to 1.

Canonical rows carry their own pivots, at each row's first nonzero
entry, so the null-row, kernel and merge helpers return the rows alone;
only ``_reduce_int_rows`` returns its pivot columns beside them.
"""

from __future__ import annotations

import re as _regex
from fractions import Fraction
from math import gcd
from operator import mul
from typing import Iterable, Sequence

_Int = int  # Gaussian-integer rows are flat lists [re0, im0, re1, im1, ...]
# A scalar at the edges: the (re, im) pair of a Gaussian rational, or a
# bare int or Fraction when it is real.
Pair = tuple[int | Fraction, int | Fraction]
Scalar = Pair | int | Fraction

# The prime of the rank certificate and a square root of -1 modulo it.
# _P = 32749 is the largest prime = 1 (mod 4) below 2**15, so a product of
# two residues, and each ``x * lead - t * y`` of the F_p step, stays below
# 2**30 in size: one CPython digit.  As _P = 5 (mod 8), 2 is a quadratic
# non-residue, so 2 ** ((_P - 1) / 2) = -1 and 2 ** ((_P - 1) / 4) has
# order 4.
_P = 32749
_I_MOD_P = pow(2, (_P - 1) // 4, _P)


class ScalarFormatError(ValueError):
    """Malformed scalar text."""


# --- scalar text -----------------------------------------------------------
#
# scalar   := rational [sign coef-i] | ['-'] coef-i
# coef-i   := [unsigned '*'] 'i'
# rational := ['-'] unsigned
# unsigned := digits ['/' digits]
# sign     := '+' | '-'
# digits   := one or more of the ASCII digits 0-9
#
# Spaces are ignored anywhere in the text, other whitespace at either end.
# This is the single parse point for scalars; the fixture reader delegates
# here.

_RAT = r"-?[0-9]+(?:/[0-9]+)?"
_PURE_RAT = _regex.compile(rf"^({_RAT})$")
_BARE_I = _regex.compile(r"^(-?)i$")
_COEF_I = _regex.compile(rf"^({_RAT})\*i$")
_FULL = _regex.compile(rf"^({_RAT})([+-])(?:([0-9]+(?:/[0-9]+)?)\*)?i$")

# Python may refuse int <-> str conversions of more than a settable number
# of digits, never fewer than 640, so longer numbers are converted in pieces
# split at a power of 10.
_DIGITS = 600
_DIGITS_BOUND = 10**_DIGITS


def _int_from_digits(digits: str) -> int:
    """The value of a string of ASCII decimal digits, of any length."""
    if len(digits) <= _DIGITS:
        return int(digits)
    k = len(digits) // 2
    return _int_from_digits(digits[:-k]) * 10**k + _int_from_digits(digits[-k:])


def _digits_of(n: int) -> str:
    """Decimal text of an int of any size."""
    if n < 0:
        return "-" + _digits_of(-n)
    if n < _DIGITS_BOUND:
        return str(n)
    # 10**k <= n since 3/20 < log10(2) / 2, so the high part is nonzero.
    k = n.bit_length() * 3 // 20
    high, low = divmod(n, 10**k)
    return _digits_of(high) + _digits_of(low).zfill(k)


def _parse_rational(text: str) -> Fraction:
    num, _, den = text.partition("/")
    value = _int_from_digits(num.lstrip("-"))
    if num[0] == "-":
        value = -value
    if not den:
        return Fraction(value)
    d = _int_from_digits(den)
    if d == 0:
        raise ScalarFormatError(f"zero denominator in {text!r}")
    return Fraction(value, d)


def parse_scalar(text: str) -> Pair:
    """Parse Gaussian-rational text such as ``3``, ``-1/2``, ``2*i``,
    ``1/2-3/4*i`` into its ``(re, im)`` pair.

    Accepted forms: a rational, a rational imaginary part (``2*i``, ``i``,
    ``-i``), or both joined by ``+`` or ``-``.

    Raises:
        ScalarFormatError: if `text` is not a scalar.
    """
    s = text.strip().replace(" ", "")
    if not s:
        raise ScalarFormatError("empty scalar")
    zero = Fraction(0)
    m = _PURE_RAT.match(s)
    if m:
        return _parse_rational(m[1]), zero
    m = _BARE_I.match(s)
    if m:
        return zero, Fraction(-1 if m[1] else 1)
    m = _COEF_I.match(s)
    if m:
        return zero, _parse_rational(m[1])
    m = _FULL.match(s)
    if m:
        re_part = _parse_rational(m[1])
        im_part = _parse_rational(m[3]) if m[3] else Fraction(1)
        return re_part, -im_part if m[2] == "-" else im_part
    raise ScalarFormatError(f"bad scalar {text!r}")


def _format_rational(x: int | Fraction) -> str:
    if x.denominator == 1:
        return _digits_of(x.numerator)
    return f"{_digits_of(x.numerator)}/{_digits_of(x.denominator)}"


def format_scalar(z: Pair) -> str:
    """Print an ``(re, im)`` pair in the grammar accepted by
    :func:`parse_scalar`."""
    re_part, im_part = z
    if not im_part:
        return _format_rational(re_part)
    if not re_part:
        return f"{_format_rational(im_part)}*i"
    sign = "+" if im_part > 0 else "-"
    return f"{_format_rational(re_part)}{sign}{_format_rational(abs(im_part))}*i"


# --- integer elimination core ----------------------------------------------


def _strip_content(row: list[_Int]) -> None:
    g = gcd(*row)
    if g > 1:
        row[:] = [x // g for x in row]


def _row_from_fracs(fracs: Iterable[Fraction]) -> list[_Int]:
    fr = list(fracs)
    scale = 1
    for f in fr:
        scale = scale * f.denominator // gcd(scale, f.denominator)
    row = [int(f * scale) for f in fr]
    _strip_content(row)
    return row


def _row_from_scalars(row: Iterable[Scalar]) -> list[_Int]:
    """The primitive Gaussian-integer row on the line of a row of scalars."""
    parts: list[int | Fraction] = []
    for z in row:
        re_part, im_part = (z, 0) if isinstance(z, (int, Fraction)) else z
        parts += (re_part, im_part)
    return _row_from_fracs(parts)


def _rank_mod_p(rows: Sequence[Sequence[_Int]], ncols: int) -> int:
    """Rank of the images of the rows mod _P: a lower bound on their rank.

    Each entry a + b*i is sent to (a + b*s) mod _P, with s a square root of
    -1 mod _P.  That is a ring map Z[i] -> F_p, so it maps every minor of
    the rows to the same minor of the images.  If the images have rank r,
    some r-square minor is nonzero mod _P, hence nonzero in Z[i], and the
    rows have rank at least r over the Gaussian rationals.
    """
    p, s = _P, _I_MOD_P
    # Reduce each image row against the pivot rows found so far, in the
    # order they were found: pivot row j is zero at the pivot columns of
    # rows 0..j-1, so a row reduced by all of them is zero at each pivot
    # column, and if anything of it is left its first nonzero column is a
    # new pivot.  A combine scales the row by the pivot entry, a unit mod
    # p, instead of inverting it.
    pivots: list[tuple[int, int, list[int]]] = []
    for r in rows:
        m = [(a + s * b) % p for a, b in zip(r[0:2 * ncols:2], r[1:2 * ncols:2])]
        for c, lead, prow in pivots:
            if t := m[c]:
                m = [(x * lead - t * y) % p for x, y in zip(m, prow)]
        for c, x in enumerate(m):
            if x:
                pivots.append((c, x, m))
                if len(pivots) == ncols:
                    return ncols
                break
    return len(pivots)


def _reduce_int_rows(
    rows: Iterable[Sequence[_Int]], ncols: int
) -> tuple[list[list[_Int]], list[int]]:
    """Reduce Gaussian-integer rows to a canonical echelon form.

    Returns the nonzero rows of the reduced echelon form together with their
    pivot columns.  Each returned row is primitive (content 1) and its pivot
    entry is a positive ordinary integer, which makes the form unique; the
    Fraction-level canonical basis is obtained by dividing each row by its
    pivot entry.  It is the one helper that returns pivots beside its rows:
    :func:`_merge_int_rows` orders its rows by them, and the benchmark's
    trace hook unpacks the pair.

    With at least `ncols` nonzero rows, rank `ncols` from :func:`_rank_mod_p`
    settles the answer as the identity rows, which is the canonical form of
    every full-rank input.  Otherwise the rows go through Bareiss below.
    """
    work = [list(r) for r in rows if any(r)]
    width = 2 * ncols
    if len(work) >= ncols and _rank_mod_p(work, ncols) == ncols:
        identity = []
        for c in range(0, width, 2):
            row = [0] * width
            row[c] = 1
            identity.append(row)
        return identity, list(range(ncols))
    # Fraction-free Gauss-Jordan (Bareiss).  With D the pivot value of the
    # previous step (1 before the first), step k turns every row r other
    # than the pivot row p_k into (D_k * r - r[c_k] * p_k) / D.  By
    # Sylvester's identity the division is exact even where r[c_k] = 0, so
    # every entry stays a minor of the input and all rows share the level
    # D.  A row is rewritten only on its live columns: p_k is zero left of
    # c_k, a row without a pivot is zero there too, and a row with an
    # earlier pivot is zero at the other pivot columns and holds D at its
    # own, which is written once at the end.  Such a row can change only
    # from the first pivot-less column on, every other row only right of
    # c_k, and every row becomes zero at c_k.
    da, db = 1, 0
    pivots: list[int] = []
    free = width  # the first pivot-less column's real part, once there is one
    npiv = 0
    for pc in range(ncols):
        re_i, im_i = 2 * pc, 2 * pc + 1
        for pi in range(npiv, len(work)):
            if work[pi][re_i] or work[pi][im_i]:
                break
        else:
            free = min(free, re_i)
            continue
        if pi != npiv:
            work[npiv], work[pi] = work[pi], work[npiv]
        prow = work[npiv]
        pa, pb = prow[re_i], prow[im_i]
        live = re_i + 2
        earlier = min(free, live)
        n2 = da * da + db * db
        for i, r in enumerate(work):
            if i == npiv:
                continue
            ta, tb = r[re_i], r[im_i]
            start = earlier if i < npiv else live
            if db:
                for k in range(start, width, 2):
                    ra, rb = r[k], r[k + 1]
                    qa, qb = prow[k], prow[k + 1]
                    xa = pa * ra - pb * rb - ta * qa + tb * qb
                    xb = pa * rb + pb * ra - ta * qb - tb * qa
                    r[k] = (xa * da + xb * db) // n2
                    r[k + 1] = (xb * da - xa * db) // n2
            elif da != 1:
                for k in range(start, width, 2):
                    ra, rb = r[k], r[k + 1]
                    qa, qb = prow[k], prow[k + 1]
                    r[k] = (pa * ra - pb * rb - ta * qa + tb * qb) // da
                    r[k + 1] = (pa * rb + pb * ra - ta * qb - tb * qa) // da
            else:  # D = 1: nothing to divide
                for k in range(start, width, 2):
                    ra, rb = r[k], r[k + 1]
                    qa, qb = prow[k], prow[k + 1]
                    r[k] = pa * ra - pb * rb - ta * qa + tb * qb
                    r[k + 1] = pa * rb + pb * ra - ta * qb - tb * qa
            r[re_i] = r[im_i] = 0
        da, db = pa, pb
        pivots.append(pc)
        npiv += 1
        if npiv == len(work):
            break  # every row holds a pivot, so no later column has one
    work = work[:npiv]
    # Normalise: set each pivot entry to D, multiply by the conjugate of D
    # so the pivot becomes |D|^2 > 0, then strip content so each row is
    # primitive.
    for prow, pc in zip(work, pivots):
        prow[2 * pc], prow[2 * pc + 1] = da, db
        if db or da < 0:
            for j in range(0, width, 2):
                ra, rb = prow[j], prow[j + 1]
                prow[j] = da * ra + db * rb
                prow[j + 1] = da * rb - db * ra
        _strip_content(prow)
    return work, pivots


def _null_rows(rows: Sequence[Sequence[_Int]], ncols: int) -> list[list[_Int]]:
    """Rows whose joint kernel is the span of the canonical rows R.

    Row i of R (see :func:`_reduce_int_rows`) has its lead l_i > 0 at
    pivot column c_i and is zero at the other pivot columns.  Free column j
    gets ``w_j = L * e_j - sum_i R_i[j] * (L / l_i) * e_{c_i}``, with L the
    lcm of the leads of the rows nonzero at j, content stripped, so that
    ``R w_j = 0`` with no conjugation.  Only rows with c_i < j are nonzero
    at j, so by descending j, with the columns reversed, the w_j already
    are a reduced echelon form.  Returns them by ascending j.
    """
    leads = [(r, next(k for k, x in enumerate(r) if x)) for r in rows]
    pivset = {k // 2 for _, k in leads}
    free = [j for j in range(ncols) if j not in pivset]
    out = []
    for j in free:
        re_j, im_j = 2 * j, 2 * j + 1
        hits = [(r, k) for r, k in leads if r[re_j] or r[im_j]]
        scale = 1
        for r, k in hits:
            scale = scale * r[k] // gcd(scale, r[k])
        w = [0] * (2 * ncols)
        w[re_j] = scale
        for r, k in hits:
            mult = scale // r[k]
            w[k], w[k + 1] = -r[re_j] * mult, -r[im_j] * mult
        _strip_content(w)
        out.append(w)
    return out


def _reversed_columns(rows: Iterable[Sequence[_Int]], ncols: int) -> list[list[_Int]]:
    out = []
    for r in rows:
        f = [0] * (2 * ncols)
        f[0::2], f[1::2] = r[-2::-2], r[::-2]
        out.append(f)
    return out


def _reversed_null_rows(rows: Sequence[Sequence[_Int]], ncols: int) -> list[list[_Int]]:
    """The null rows of canonical rows, as a canonical block in reversed
    columns.

    These are the rows of :func:`_null_rows` by descending free column,
    each with its columns reversed.  Reversal is an involution, so given
    a canonical block in reversed columns it returns the canonical basis
    of that block's right kernel in the original columns.
    """
    return _reversed_columns(reversed(_null_rows(rows, ncols)), ncols)


def _kernel_int(rows: Iterable[Sequence[_Int]], ncols: int) -> list[list[_Int]]:
    """The canonical integer rows of the right kernel.

    The input is reduced once, with its column order reversed, and
    :func:`_reversed_null_rows` reads the canonical kernel basis off that
    form.
    """
    red, _ = _reduce_int_rows(_reversed_columns(rows, ncols), ncols)
    return _reversed_null_rows(red, ncols)


def _leads(block: Iterable[Sequence[_Int]]) -> list[tuple[int, int, list[tuple]]]:
    """For each canonical row: the index of its lead's real part, the lead
    (a positive int) and the row's nonzero ``(k, re, im)`` entries."""
    out = []
    for r in block:
        nz = [(k, r[k], r[k + 1]) for k in range(0, len(r), 2) if r[k] or r[k + 1]]
        out.append((nz[0][0], nz[0][1], nz))
    return out


def _reduced_against(
    rows: Iterable[Sequence[_Int]], leads: list[tuple[int, int, list[tuple]]]
) -> Iterable[Sequence[_Int]]:
    """Each row r reduced against a canonical block, given by its
    :func:`_leads`, content stripped.

    Block row i has its lead l_i > 0 at pivot column c_i and is zero at
    the other pivots, so ``L * r - sum_i r[c_i] * (L / l_i) * A_i``, with
    L the lcm of the l_i where r is nonzero, is zero at every pivot: an
    exact step with no division.  It is zero exactly when r lies in the
    block's span.  Rows are yielded one at a time, and a row that no
    pivot touches is yielded as it is.
    """
    for r in rows:
        hits = [h for h in leads if r[h[0]] or r[h[0] + 1]]
        if not hits:
            yield r
            continue
        scale = 1
        for _, lead, _ in hits:
            scale = scale * lead // gcd(scale, lead)
        w = [scale * x for x in r]
        for k, lead, nz in hits:
            m = scale // lead
            ta, tb = r[k] * m, r[k + 1] * m
            for j, xa, xb in nz:
                w[j] -= ta * xa - tb * xb
                w[j + 1] -= ta * xb + tb * xa
        _strip_content(w)
        yield w


def _merge_int_rows(
    a: Sequence[Sequence[_Int]], b: Sequence[Sequence[_Int]], ncols: int
) -> list[Sequence[_Int]]:
    """The canonical rows of the span of two canonical blocks, as
    :func:`_reduce_int_rows` would give them for ``a + b``.

    With A the block with more rows: the rows of B are reduced against A
    (see :func:`_reduced_against`), and only the ones left nonzero are
    reduced to canonical rows R, whose pivots are not A's; A's rows are
    then reduced against R, which clears R's pivot columns with one lcm
    scale per row and keeps A's leads positive, and their content is
    stripped.  Ordered by pivot, A's rows and R are the canonical form.
    When B lies in A's span, A's rows are returned as they are.
    """
    if len(b) > len(a):
        a, b = b, a
    lead_a = _leads(a)
    rest = [r for r in _reduced_against(b, lead_a) if any(r)]
    if not rest:
        return list(a)
    new, new_pivots = _reduce_int_rows(rest, ncols)
    rows = list(_reduced_against(a, _leads(new))) + new
    pivots = [k // 2 for k, _, _ in lead_a] + new_pivots
    order = sorted(range(len(rows)), key=pivots.__getitem__)
    return [rows[i] for i in order]


def _pair_int(
    rows: Iterable[Sequence[_Int]], others: Sequence[Sequence[_Int]]
) -> list[list[_Int]]:
    """The matrix of ``sum_k r_k o_k`` over Z[i], with no conjugation: one
    row per r in `rows`, holding one Gaussian integer per o in `others`."""
    split = [(o[0::2], o[1::2]) for o in others]
    out = []
    for r in rows:
        ra, rb = r[0::2], r[1::2]
        row = []
        for oa, ob in split:
            row.append(sum(map(mul, ra, oa)) - sum(map(mul, rb, ob)))
            row.append(sum(map(mul, ra, ob)) + sum(map(mul, rb, oa)))
        out.append(row)
    return out


def _combine_int(
    coeffs: Iterable[Sequence[_Int]], rows: Sequence[Sequence[_Int]], ncols: int
) -> list[list[_Int]]:
    """Each coefficient row c, of one Gaussian integer per row of `rows`,
    gives the row ``sum_i c_i rows_i`` of `ncols` entries."""
    columns = [[x for r in rows for x in r[2 * j : 2 * j + 2]] for j in range(ncols)]
    return _pair_int(coeffs, columns)


def _conj_int_rows(rows: Iterable[Sequence[_Int]]) -> list[list[_Int]]:
    out = []
    for r in rows:
        c = list(r)
        for k in range(1, len(c), 2):
            c[k] = -c[k]
        out.append(c)
    return out


def _fracs_from_int_rows(
    rows: Sequence[Sequence[_Int]], ncols: int
) -> tuple[tuple[Pair, ...], ...]:
    """Divide each canonical row (see :func:`_reduce_int_rows`) by its
    pivot, which is the row's first nonzero entry and a positive integer,
    giving rows of ``(re, im)`` Fraction pairs."""
    out = []
    for r in rows:
        lead = next(x for x in r if x)
        out.append(
            tuple(
                (Fraction(r[2 * c], lead), Fraction(r[2 * c + 1], lead))
                for c in range(ncols)
            )
        )
    return tuple(out)
