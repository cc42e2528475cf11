"""The lattice of linear subspaces of complex n-space.

A :class:`Subspace` holds a canonical reduced-echelon basis, and every
subspace is interned: ``Subspace._make`` returns the one live object for
each ``(ambient, rows)`` through a module-level table of weak references.
Two subspaces are therefore equal as sets exactly when they are the same
object, so equality and hashing are identity, done in C.  The table keeps
no subspace alive: its keys hold only ints, a dead reference counts as a
miss, and the dead entries are swept out whenever the table has doubled
since the last sweep.  Copying returns the object itself, and unpickling
rebuilds through the table.  ``Subspace.zero(n)`` and ``Subspace.full(n)``
are ``functools.cache`` functions of the ambient: the interned object is
built on the first call for each ambient, kept alive by the cache, and
then returned by a lookup in C.

Lattice operations: ``meet`` is intersection, ``join`` is linear span,
``complement`` is the orthogonal complement under the Hermitian inner
product (conjugate-linear in the first argument).

``join`` never eliminates its operands from scratch.  A stack that the
rank certificate shows to be full returns the held ``Subspace.full(n)``;
otherwise the two canonical blocks are merged (``linalg._merge_int_rows``):
the rows of the smaller operand are reduced against the larger one's,
and only the rows left over go through Bareiss.  ``leq`` is that
membership step alone: p <= q exactly when every row of p reduces to
zero against q's rows.

Both elimination routes of ``meet`` and ``complement`` work on whichever
side has fewer rows; canonical forms are unique, so the route never shows
in a result.  With d = dim p, ``complement`` reduces the n - d null rows
of p's conjugate rows forward when 2d > n (the conjugate of a canonical
form is canonical, so they are read straight off it), and otherwise takes
the kernel of the d conjugate rows.  A ``meet`` that the rank certificate
does not settle has s = dim p + dim q, an expected result of dimension
s - n and 2n - s null-row constraints.  When 2s <= 3n, the result is
small next to the constraints: it pairs the larger operand's null rows
with the smaller operand's rows, takes the kernel of that matrix in
dim-small columns, and combines the smaller operand's rows by it; the
kernel and the rows are canonical, so the combinations already are the
canonical form once their content is stripped.  Otherwise each
operand's null rows, with the columns reversed, are a canonical block:
it merges the two blocks and reads the kernel off the merged form.
``meet`` takes no complement; ``meet_via_demorgan`` is an independent
route through complements kept for cross-checking, never called by the
evaluator.

Because the form is canonical, the result of ``meet`` or ``join`` depends
only on its operands, so each is a ``functools.lru_cache`` function of at
most ``_MEMO_LIMIT // 2`` entries, least recently used dropped first: the
op memo, served in C.  Only a miss runs the body, which tests the
ambients, settles a zero, full or identical operand at once and only then
eliminates.  Trivial results enter the memo too, so a repeated trivial
call is a hit in C.  An exception is never cached, so every cached pair
passed the ambient test.  ``meet.cache_info()`` and ``join.cache_info()``
count the memo's hits, misses and entries at no extra cost.

Commutativity is structural in the memo: each unordered pair is computed
once.  Distinct interned subspaces have distinct row tuples, so
``p._rows < q._rows`` orders any two of them.  A nontrivial miss with
``p._rows > q._rows`` returns the memoised function applied to ``(q, p)``,
called through a private alias (``_meet``, ``_join``), so a function
that replaces the public name is called only by the caller.  The
first call in the other order therefore counts two misses and writes two
entries for one elimination, and every later call in either order is a
hit.  Only the fixed order ever eliminates.

``meet_via_demorgan`` runs only ``join`` and ``complement``, so
certification stays independent of the memoised ``meet``.  It is an
``lru_cache`` function of its own, of ``_MEMO_LIMIT // 2`` entries, and
with meet's and join's the memos hold at most ``3 * _MEMO_LIMIT // 2``
entries.
"""

from __future__ import annotations

from functools import cache, lru_cache
from random import Random
from typing import Iterable, Sequence
from weakref import ref

from .linalg import (
    Pair,
    Scalar,
    _combine_int,
    _conj_int_rows,
    _fracs_from_int_rows,
    _kernel_int,
    _leads,
    _merge_int_rows,
    _null_rows,
    _pair_int,
    _rank_mod_p,
    _reduce_int_rows,
    _reduced_against,
    _reversed_null_rows,
    _row_from_scalars,
    _strip_content,
)

_MAX_SAMPLE_TRIES = 200
# Largest ambient accepted from fixtures and the command line.
MAX_AMBIENT = 64
# The meet, join and De Morgan memos hold at most half of this each.
_MEMO_LIMIT = 1024
# The intern table is swept of dead entries when it outgrows this size,
# and then again whenever it has doubled since the last sweep.
_SWEEP_FLOOR = 1024

# A weak reference to the one live Subspace for each (ambient, canonical
# rows).  The references take no callback: a dead one is overwritten on
# its next lookup or dropped by the next sweep, so a dropped subspace
# costs nothing when it dies.
_interned: dict[tuple[int, tuple], ref] = {}
_sweep_at = _SWEEP_FLOOR


class AmbientMismatch(ValueError):
    """Operands live in different ambient spaces, or coordinates overflow."""


class Subspace:
    """A linear subspace of complex `ambient`-space.

    Internally the canonical basis is kept as primitive Gaussian-integer
    rows (interleaved re/im), which keep further elimination cheap; the
    Fraction-level basis is materialised on first access.  Each
    value has one live object, so ``==`` and ``hash`` are identity, and
    the ``basis`` and complement caches are shared by every use of it.
    """

    __slots__ = ("ambient", "_rows", "_basis", "_complement", "__weakref__")

    def __init__(self) -> None:
        raise TypeError("use Subspace.zero/full/from_spanning")

    @classmethod
    def _make(cls, ambient: int, int_rows: Sequence[Sequence[int]]) -> "Subspace":
        """The interned subspace with these canonical rows.

        A dead weak reference in the table counts as a miss and is
        overwritten.  Once the table holds more than ``_sweep_at`` entries
        it is swept of dead ones, and the next sweep waits until it has
        doubled: it never holds more than twice the subspaces live at the
        last sweep, or ``_SWEEP_FLOOR`` entries if that is more.
        """
        global _sweep_at
        rows = tuple(map(tuple, int_rows))
        key = (ambient, rows)
        entry = _interned.get(key)
        if entry is not None:
            self = entry()
            if self is not None:
                return self
        self = object.__new__(cls)
        self.ambient = ambient
        self._rows = rows
        self._basis = None
        self._complement = None
        _interned[key] = ref(self)
        if len(_interned) > _sweep_at:
            for k in [k for k, r in _interned.items() if r() is None]:
                del _interned[k]
            _sweep_at = max(2 * len(_interned), _SWEEP_FLOOR)
        return self

    # Copies and unpickled values must stay the interned object.
    def __copy__(self) -> "Subspace":
        return self

    def __deepcopy__(self, memo: dict) -> "Subspace":
        return self

    def __reduce__(self) -> tuple:
        return (Subspace._make, (self.ambient, self._rows))

    @staticmethod
    @cache
    def zero(ambient: int) -> "Subspace":
        """The trivial subspace of complex `ambient`-space, built once per
        ambient."""
        if ambient < 1:
            raise AmbientMismatch("ambient dimension must be at least 1")
        return Subspace._make(ambient, ())

    @staticmethod
    @cache
    def full(ambient: int) -> "Subspace":
        """The whole space, built once per ambient."""
        if ambient < 1:
            raise AmbientMismatch("ambient dimension must be at least 1")
        rows = []
        for i in range(ambient):
            row = [0] * (2 * ambient)
            row[2 * i] = 1
            rows.append(row)
        return Subspace._make(ambient, rows)

    @classmethod
    def from_spanning(
        cls, ambient: int, rows: Iterable[Sequence[Scalar]]
    ) -> "Subspace":
        """Span of `rows`, which need not be independent.

        Each row holds `ambient` scalars: ``(re, im)`` pairs of ints or
        Fractions, or a bare int or Fraction for a real scalar.
        """
        if ambient < 1:
            raise AmbientMismatch("ambient dimension must be at least 1")
        int_rows = []
        for row in rows:
            if len(row) != ambient:
                raise AmbientMismatch(
                    f"spanning row has {len(row)} coordinates, ambient is {ambient}"
                )
            int_rows.append(_row_from_scalars(row))
        red, _ = _reduce_int_rows(int_rows, ambient)
        return cls._make(ambient, red)

    @classmethod
    def line(cls, ambient: int, coeffs: Sequence[Scalar]) -> "Subspace":
        """Span of one coordinate row: a line, or 0 for the zero row."""
        return cls.from_spanning(ambient, [coeffs])

    @property
    def dim(self) -> int:
        return len(self._rows)

    @property
    def basis(self) -> tuple[tuple[Pair, ...], ...]:
        """Canonical reduced-echelon basis: ``dim`` rows of ``ambient``
        ``(re, im)`` Fraction pairs, each row's pivot 1."""
        if self._basis is None:
            self._basis = _fracs_from_int_rows(self._rows, self.ambient)
        return self._basis

    def is_zero(self) -> bool:
        return not self._rows

    def __repr__(self) -> str:
        return f"Subspace(ambient={self.ambient}, dim={self.dim})"


def _mismatch(p: Subspace, q: Subspace) -> AmbientMismatch:
    return AmbientMismatch(
        f"subspaces live in different ambients: {p.ambient} and {q.ambient}"
    )


@lru_cache(maxsize=_MEMO_LIMIT // 2)
def join(p: Subspace, q: Subspace) -> Subspace:
    """Smallest subspace containing both: the span of the union.

    Full when the rank certificate shows the stacked rows have rank n;
    otherwise the canonical rows of both are merged, so only the rows of
    the smaller operand that the larger one does not span are reduced.
    A nontrivial pair is computed only with ``p._rows < q._rows``; the
    other order is passed on to ``_join(q, p)``.
    """
    if p.ambient != q.ambient:
        raise _mismatch(p, q)
    if p is q or not q._rows or len(p._rows) == p.ambient:
        return p
    if not p._rows or len(q._rows) == q.ambient:
        return q
    if p._rows > q._rows:
        return _join(q, p)
    n = p.ambient
    if len(p._rows) + len(q._rows) >= n and _rank_mod_p(p._rows + q._rows, n) == n:
        return Subspace.full(n)
    return Subspace._make(n, _merge_int_rows(p._rows, q._rows, n))


# The memoised join under a name of its own, for the other operand order:
# a replacement of the public name never sees that inner call.
_join = join


def complement(p: Subspace) -> Subspace:
    """Orthogonal complement; cached, and ``~~p`` returns `p` itself.

    It is the kernel of p's conjugate rows.  For dim p > n/2 there are
    fewer null rows of those rows than rows, so the null rows, read off
    the conjugate canonical form, are reduced instead.
    """
    c = p._complement
    if c is None:
        n = p.ambient
        conj = _conj_int_rows(p._rows)
        if 2 * len(conj) > n:
            rows, _ = _reduce_int_rows(_null_rows(conj, n), n)
        else:
            rows = _kernel_int(conj, n)
        c = Subspace._make(n, rows)
        p._complement = c
        c._complement = p
    return c


@lru_cache(maxsize=_MEMO_LIMIT // 2)
def meet(p: Subspace, q: Subspace) -> Subspace:
    """Intersection: 0 by the dimension formula when the operands' rows
    certify ``dim(p v q) = dim p + dim q``, else by elimination on the
    smaller side.

    With s = dim p + dim q and 2s <= 3n, a vector ``c S`` of the operand
    with fewer rows S (p on a tie) lies in the other one iff its null
    rows N give ``N S^T c = 0``: the kernel of the pairing matrix
    ``N S^T`` takes ``dim S`` columns, and the combinations of S it
    gives, content stripped, are the canonical rows.  Otherwise the
    result is the kernel of both operands' null rows, read off the merge
    of their column-reversed blocks.  No complement is taken.  As in
    :func:`join`, a nontrivial pair is computed only with
    ``p._rows < q._rows``; the other order is passed on to ``_meet(q, p)``.
    """
    if p.ambient != q.ambient:
        raise _mismatch(p, q)
    if p is q or not p._rows or len(q._rows) == q.ambient:
        return p
    if not q._rows or len(p._rows) == p.ambient:
        return q
    if p._rows > q._rows:
        return _meet(q, p)
    n = p.ambient
    stacked = p._rows + q._rows
    if len(stacked) <= n and _rank_mod_p(stacked, n) == len(stacked):
        return Subspace.zero(n)
    if 2 * len(stacked) <= 3 * n:
        small, big = p._rows, q._rows
        if len(small) > len(big):
            small, big = big, small
        coeffs = _kernel_int(_pair_int(_null_rows(big, n), small), len(small))
        rows = _combine_int(coeffs, small, n)
        for r in rows:
            _strip_content(r)
    else:
        merged = _merge_int_rows(
            _reversed_null_rows(p._rows, n), _reversed_null_rows(q._rows, n), n
        )
        rows = _reversed_null_rows(merged, n)
    return Subspace._make(n, rows)


# The memoised meet under a name of its own, as ``_join`` is for join.
_meet = meet


@lru_cache(maxsize=_MEMO_LIMIT // 2)
def meet_via_demorgan(p: Subspace, q: Subspace) -> Subspace:
    """Intersection through the De Morgan dual; independent of :func:`meet`.

    It never touches meet's cache (only ``join`` and ``complement``
    run), so a wrong memoised meet cannot leak into it, and
    ``meet`` takes no complement, so the two routes share only the
    elimination core (``_kernel_int``, ``_reduce_int_rows``, ``_null_rows``,
    ``_merge_int_rows``).
    Its complements pick their route by dimension as ``complement`` does,
    and it never pairs rows as ``meet`` does.  Its results have an
    ``lru_cache`` memo of their own, of ``_MEMO_LIMIT // 2`` entries; it
    keeps both operand orders apart.
    """
    if p.ambient != q.ambient:
        raise _mismatch(p, q)
    return complement(join(complement(p), complement(q)))


def leq(p: Subspace, q: Subspace) -> bool:
    """Containment ``p <= q``; equivalent to ``meet(p, q) is p``.

    Every row of p must reduce to zero against q's canonical rows.  A p
    of q's dimension or more is contained only if it is q, which
    interning makes the same object.
    """
    if p.ambient != q.ambient:
        raise _mismatch(p, q)
    if not p._rows or p is q:
        return True
    if len(p._rows) >= len(q._rows):
        return False
    return not any(map(any, _reduced_against(p._rows, _leads(q._rows))))


def embed(p: Subspace, pad: Subspace) -> Subspace:
    """The block-diagonal subspace ``p (+) pad`` of ambient
    ``p.ambient + pad.ambient``: `p` occupies the first ``p.ambient``
    coordinates and `pad` the remaining ones.
    """
    head = 2 * p.ambient
    tail = 2 * pad.ambient
    rows = [list(r) + [0] * tail for r in p._rows]
    rows += [[0] * head + list(r) for r in pad._rows]
    # Block-diagonal stacking of canonical rows is already canonical.
    return Subspace._make(p.ambient + pad.ambient, rows)


def _below(rng: Random, n: int) -> int:
    """Uniform in ``range(n)``, drawn as ``Random._randbelow`` draws it, so
    the value and the stream match ``rng.randrange(n)``, ``rng.choice`` of
    a length-`n` sequence and ``rng.randint(a, a + n - 1) - a``.  `n`
    must be positive; the loop never ends otherwise."""
    getrandbits = rng.getrandbits
    k = n.bit_length()
    r = getrandbits(k)
    while r >= n:
        r = getrandbits(k)
    return r


def _random_from(rng: Random, ambient: int, dim: int, coeff_bound: int) -> Subspace:
    if coeff_bound < 1:
        raise ValueError(
            f"coefficient bound {coeff_bound} is zero or negative; it must be at least 1")
    if dim == 0:
        return Subspace.zero(ambient)
    if not 0 <= dim <= ambient:
        raise AmbientMismatch(f"dimension {dim} not in 0..{ambient}")
    width = 2 * coeff_bound + 1
    # Each entry is drawn as _below(rng, width) draws it, inline.
    getrandbits = rng.getrandbits
    k = width.bit_length()
    for _ in range(_MAX_SAMPLE_TRIES):
        rows = []
        for _ in range(dim):
            row = []
            for _ in range(2 * ambient):
                r = getrandbits(k)
                while r >= width:
                    r = getrandbits(k)
                row.append(r - coeff_bound)
            rows.append(row)
        # A square draw of full rank mod p is the whole space, as in join.
        if dim == ambient and _rank_mod_p(rows, ambient) == ambient:
            return Subspace.full(ambient)
        red, _ = _reduce_int_rows(rows, ambient)
        if len(red) == dim:
            return Subspace._make(ambient, red)
    raise RuntimeError(
        f"could not sample a rank-{dim} subspace in {_MAX_SAMPLE_TRIES} tries"
    )


def random_subspace(
    ambient: int, dim: int, seed: int, coeff_bound: int = 3
) -> Subspace:
    """Deterministic random subspace of the given dimension.

    Spanning rows get Gaussian-integer entries with components drawn
    uniformly from ``[-coeff_bound, coeff_bound]``, resampled until the rank
    is exactly `dim`.  The same arguments always return the same subspace.
    A `coeff_bound` below 1 is refused with ``ValueError`` at every `dim`.
    """
    return _random_from(Random(seed), ambient, dim, coeff_bound)
