"""Plain-text fixtures for subspaces and assignments.

A subspace fixture is the ambient dimension on its own line followed by
spanning rows, one per line, scalars separated by spaces; rows are
canonicalised on load, so a fixture need not be in echelon form.  Digits
are ASCII only.  An assignment fixture starts with the ambient dimension
and then one block per variable::

    4
    p = {
    1 0 0 0
    0 1 0 0
    }
    q = { }

``{ }`` (or ``{}``) denotes the zero subspace.  Blank lines and ``#``
comments are ignored.  Formatting always writes the canonical basis, so
parse and format round-trip exactly.
"""

from __future__ import annotations

import re

from .linalg import ScalarFormatError, _int_from_digits, format_scalar, parse_scalar
from .subspaces import MAX_AMBIENT, Subspace
from .terms import IDENTIFIER, Assignment


class FixtureError(ValueError):
    """Malformed fixture text, with the offending line number."""

    def __init__(self, message: str, lineno: int) -> None:
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


def _significant_lines(text: str) -> list[tuple[int, str]]:
    out = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if line:
            out.append((lineno, line))
    return out


def _parse_row(line: str, lineno: int, ambient: int) -> list:
    try:
        row = [parse_scalar(tok) for tok in line.split()]
    except ScalarFormatError as exc:
        raise FixtureError(str(exc), lineno) from None
    if len(row) != ambient:
        raise FixtureError(
            f"row has {len(row)} entries, ambient is {ambient}", lineno
        )
    return row


def _parse_ambient(lines: list[tuple[int, str]]) -> int:
    if not lines:
        raise FixtureError("empty fixture", 1)
    lineno, head = lines[0]
    if not re.fullmatch(r"[0-9]+", head):
        raise FixtureError(f"expected ambient dimension, found {head!r}", lineno)
    ambient = _int_from_digits(head)
    if not 1 <= ambient <= MAX_AMBIENT:
        raise FixtureError(
            f"ambient dimension must be between 1 and {MAX_AMBIENT}", lineno
        )
    return ambient


def parse_subspace_fixture(text: str) -> Subspace:
    """Read a single subspace: ambient line, then spanning rows."""
    lines = _significant_lines(text)
    ambient = _parse_ambient(lines)
    rows = [_parse_row(line, lineno, ambient) for lineno, line in lines[1:]]
    return Subspace.from_spanning(ambient, rows)


def _format_basis(s: Subspace) -> str:
    """The canonical basis, one row per line, scalars separated by spaces."""
    return "\n".join(" ".join(map(format_scalar, row)) for row in s.basis)


def format_subspace_fixture(s: Subspace) -> str:
    """Write a subspace fixture with its canonical basis rows."""
    body = _format_basis(s)
    return f"{s.ambient}\n{body}\n" if body else f"{s.ambient}\n"


_BLOCK_OPEN = re.compile(rf"^({IDENTIFIER})\s*=\s*\{{\s*(\}}?)\s*$")


def parse_assignment_fixture(text: str) -> Assignment:
    """Read an assignment: ambient line, then ``name = { rows }`` blocks."""
    lines = _significant_lines(text)
    ambient = _parse_ambient(lines)
    bindings: dict[str, Subspace] = {}
    idx = 1
    while idx < len(lines):
        lineno, line = lines[idx]
        m = _BLOCK_OPEN.match(line)
        if m is None:
            raise FixtureError(f"expected 'name = {{', found {line!r}", lineno)
        name = m.group(1)
        if name in bindings:
            raise FixtureError(f"duplicate binding for {name!r}", lineno)
        idx += 1
        rows = []
        closed = bool(m.group(2))
        while not closed:
            if idx >= len(lines):
                raise FixtureError(f"unterminated block for {name!r}", lineno)
            rowno, row_line = lines[idx]
            idx += 1
            if row_line == "}":
                closed = True
            else:
                rows.append(_parse_row(row_line, rowno, ambient))
        bindings[name] = Subspace.from_spanning(ambient, rows)
    return Assignment(ambient, bindings)


def format_assignment_fixture(a: Assignment) -> str:
    """Write an assignment fixture, variables in sorted order."""
    parts = [str(a.ambient)]
    for name in sorted(a.bindings):
        s = a.bindings[name]
        if s.is_zero():
            parts.append(f"{name} = {{ }}")
        else:
            parts.append(f"{name} = {{")
            parts.append(_format_basis(s))
            parts.append("}")
    return "\n".join(parts) + "\n"
