"""Gaussian-rational arithmetic for the tests, independent of qlattice.

:class:`GaussianRational` is an ``(re, im)`` pair of Fractions with the
field operations, written from the textbook formulas.  Being a pair, it is
a scalar wherever qlattice takes one, and it compares equal to the plain
``(re, im)`` pairs that ``Subspace.basis`` returns, so the tests can build
subspaces from it and check results against it without sharing code with
the elimination core.
"""

from __future__ import annotations

from fractions import Fraction


class GaussianRational(tuple):
    """Exact complex scalar ``re + im*i`` with rational components.

    Components are always in lowest terms with positive denominator
    because they are stored as :class:`Fraction`.
    """

    __slots__ = ()

    def __new__(cls, re: int | Fraction = 0, im: int | Fraction = 0) -> "GaussianRational":
        return tuple.__new__(cls, (Fraction(re), Fraction(im)))

    @property
    def re(self) -> Fraction:
        return self[0]

    @property
    def im(self) -> Fraction:
        return self[1]

    def conjugate(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im)

    def is_zero(self) -> bool:
        return not self.re and not self.im

    def norm2(self) -> Fraction:
        """Squared modulus ``re**2 + im**2`` (a rational)."""
        return self.re * self.re + self.im * self.im

    @staticmethod
    def _coerce(value: object) -> "GaussianRational | None":
        if isinstance(value, GaussianRational):
            return value
        if isinstance(value, (int, Fraction)):
            return GaussianRational(value)
        if isinstance(value, tuple) and len(value) == 2:
            return GaussianRational(*value)
        return None

    def __add__(self, other: object) -> "GaussianRational":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GaussianRational(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, other: object) -> "GaussianRational":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GaussianRational(self.re - o.re, self.im - o.im)

    def __rsub__(self, other: object) -> "GaussianRational":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other: object) -> "GaussianRational":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GaussianRational(
            self.re * o.re - self.im * o.im,
            self.re * o.im + self.im * o.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other: object) -> "GaussianRational":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        n2 = o.norm2()
        if not n2:
            raise ZeroDivisionError("division by zero Gaussian rational")
        return GaussianRational(
            (self.re * o.re + self.im * o.im) / n2,
            (self.im * o.re - self.re * o.im) / n2,
        )

    def __rtruediv__(self, other: object) -> "GaussianRational":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def __neg__(self) -> "GaussianRational":
        return GaussianRational(-self.re, -self.im)

    def __eq__(self, other: object) -> bool:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.re == o.re and self.im == o.im

    def __ne__(self, other: object) -> bool:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return not self == o

    __hash__ = tuple.__hash__

    def __bool__(self) -> bool:
        return not self.is_zero()

    def __repr__(self) -> str:
        return f"GaussianRational({self.re!r}, {self.im!r})"


def gaussian_rows(rows) -> tuple[tuple[GaussianRational, ...], ...]:
    """Rows of scalars (ints, Fractions or ``(re, im)`` pairs) as rows of
    :class:`GaussianRational`, the shape of ``Subspace.basis``."""
    return tuple(tuple(GaussianRational._coerce(e) for e in row) for row in rows)


def rank(rows) -> int:
    """Rank over Q(i) of rows of scalars, by textbook forward elimination
    over :class:`GaussianRational`."""
    work = [list(r) for r in gaussian_rows(rows)]
    done = 0
    for c in range(len(work[0]) if work else 0):
        pivot = next((i for i in range(done, len(work)) if work[i][c]), None)
        if pivot is None:
            continue
        work[done], work[pivot] = work[pivot], work[done]
        top = work[done]
        for i in range(done + 1, len(work)):
            f = work[i][c] / top[c]
            work[i] = [x - f * y for x, y in zip(work[i], top)]
        done += 1
    return done
