"""Lattice terms: syntax, normal forms, and evaluation over subspaces.

Grammar (loosest to tightest): ``v`` join, ``^`` meet, ``~`` complement,
with constants ``0`` and ``1`` and variables as identifiers: ASCII
letters, digits and ``_``, starting with a letter.  Binary operators
associate to the left; ``v`` is a reserved word and cannot be a variable.
:data:`OPERATORS`, read by the parser and :func:`format_term`, is the one
table of binary operators.  :func:`scan` is one regular-expression scan
for terms and sentences into parallel lists of token kinds and texts: a
fixed token's kind is its own text, any other identifier is ``ID``, and
the end is ``EOF``.  A parser is a function of the scan, a token index
and the nesting depth open there, and returns its result with the index
after it; :func:`term_chain` is the one level-indexed parser of the term
table.  A token's position in the text is found by scanning again, only
for an error.  Nesting is capped at ``MAX_NESTING``; chains and runs of
``~`` are parsed by loops and may be any length.

A term node is one immutable ``(op, a, b)`` :class:`Term`, interned
through a module-level weak-value table: there is one live node per
``(op, a, b)``, so structurally equal terms are the same object, and
equality and hashing are identity, done in C.  The table keeps no term
alive.  A :class:`Program` lists the distinct subterms of some roots in
post-order, one slot each, in the same shape with children replaced by
slots.  Evaluation, free variables, substitution, normal forms and the
compiler's flattening loop over programs, linear in distinct subterms and
without recursion, so no term is too deep for them.  Evaluation runs each
slot once over a whole batch of rows: a batch has one ambient, and a row
is a plain tuple of its subspaces, one per variable name in a given
order.  Printing walks the slots with an explicit stack, linear in the
printed text.
"""

from __future__ import annotations

import re
from functools import partial
from itertools import islice
from operator import itemgetter
from typing import Iterable, Mapping, NamedTuple, Sequence
from weakref import WeakValueDictionary

from . import subspaces as _sub
from .subspaces import AmbientMismatch, Subspace


class ParseError(ValueError):
    """Syntax error with a position into the source text."""

    def __init__(self, message: str, pos: int) -> None:
        super().__init__(f"syntax error at position {pos}: {message}")
        self.pos = pos


class UnboundVariableError(LookupError):
    """A term variable has no binding in the assignment."""

    def __init__(self, name: str) -> None:
        super().__init__(f"unbound variable {name!r}")
        self.name = name


# --- abstract syntax --------------------------------------------------------


class Term:
    """A term node shaped as a :class:`Program` slot, with child terms for
    child slots; build one with ``Term(op, a, b)``, ``Var``, ``Not``,
    ``Meet`` or ``Join``.

    Terms are interned: ``Term(op, a, b)`` returns the one live node with
    those fields, so structurally equal terms are the same object and
    ``==`` and ``hash`` are identity.  There is no structural hash.
    """

    __slots__ = ("op", "a", "b", "__weakref__")

    def __new__(cls, op: str, a=None, b=None) -> "Term":
        # children are interned already, so the key hashes their identities
        key = (op, a, b)
        self = _interned.get(key)
        if self is None:
            self = object.__new__(cls)
            self.op, self.a, self.b = key
            _interned[key] = self
        return self

    # Copies and unpickled terms must stay the interned node.
    def __copy__(self) -> "Term":
        return self

    def __deepcopy__(self, memo: dict) -> "Term":
        return self

    def __reduce__(self) -> tuple:
        return (Term, (self.op, self.a, self.b))

    def __str__(self) -> str:
        return format_term(self)

    def __repr__(self) -> str:
        return f"<term {format_term(self)}>"


# The one live Term for each (op, a, b).  Unlike the subspace table, whose
# keys hold only ints, this one must drop each entry as soon as its node
# dies: the key holds the child terms, so a dead entry left for a later
# sweep would keep its whole subterm alive.
_interned: WeakValueDictionary[tuple, Term] = WeakValueDictionary()

TOP = Term("top")
BOT = Term("bot")

Var = partial(Term, "var")  # Var(name)
Not = partial(Term, "not")  # Not(child)
Meet = partial(Term, "meet")  # Meet(left, right)
Join = partial(Term, "join")  # Join(left, right)


class Equation(NamedTuple):
    """A pair of terms asserted equal under every relevant assignment;
    equal and hashed as the pair of its two interned sides."""

    lhs: Term
    rhs: Term

    @property
    def free_vars(self) -> tuple[str, ...]:
        """Free variables, sorted by name."""
        return tuple(sorted(free_vars(self.lhs) | free_vars(self.rhs)))

    def __str__(self) -> str:
        return f"{format_term(self.lhs)} = {format_term(self.rhs)}"

    def __repr__(self) -> str:
        return f"<equation {self}>"


class Assignment:
    """Finite map from variable names to subspaces of one ambient space.

    ``Assignment(ambient, bindings)`` checks every binding's ambient and
    keeps its own copy of `bindings`.  The checker's sweeps do not build
    one per sample: they evaluate plain tuples of subspaces (see
    :class:`Evaluator`) and build an assignment only for a result.
    """

    __slots__ = ("ambient", "bindings")

    def __init__(self, ambient: int, bindings: Mapping[str, Subspace]) -> None:
        if ambient < 1:
            raise AmbientMismatch("ambient dimension must be at least 1")
        for name, s in bindings.items():
            if s.ambient != ambient:
                raise AmbientMismatch(
                    f"binding {name!r} lives in ambient {s.ambient}, expected {ambient}"
                )
        self.ambient = ambient
        self.bindings = dict(bindings)

    def __getitem__(self, name: str) -> Subspace:
        try:
            return self.bindings[name]
        except KeyError:
            raise UnboundVariableError(name) from None

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}:dim{v.dim}" for k, v in sorted(self.bindings.items()))
        return f"Assignment(C^{self.ambient}; {inner})"


# --- scanning ---------------------------------------------------------------

# ASCII only, as in fixture block names and SMT-LIB symbols
IDENTIFIER = r"[A-Za-z][A-Za-z0-9_]*"
# A fixed token (a symbol or a reserved word), an identifier, or any other
# character that is not str.isspace()
_TOKEN = re.compile(
    rf"(<->|<=|->|[01^~()=&|!.,]|(?:v|forall|exists)(?![A-Za-z0-9_]))|({IDENTIFIER})|(\S)"
)

# Deepest nesting of parentheses, '!' and quantified names; parsers recurse per level.
MAX_NESTING = 100


class SyntaxAt(Exception):
    """``SyntaxAt(message, index)``: a syntax error at token `index`, which
    :func:`parse_with` reports as a :class:`ParseError` at its position."""


def scan(src: str) -> tuple[list[str], list[str]]:
    """The tokens of `src` as parallel lists of kinds and texts, ending in
    ``"EOF"`` with text ``""``: a fixed token's kind is its own text, and
    any other identifier's is ``"ID"``.  A character that starts no token
    is reported before any syntax error."""
    found = _TOKEN.findall(src)
    kinds = [fixed or name and "ID" for fixed, name, _ in found] + ["EOF"]
    if "" in kinds:
        m = next(m for m in _TOKEN.finditer(src) if m.lastindex == 3)
        raise ParseError(f"unexpected character {m.group()!r}", m.start())
    return kinds, [fixed or name for fixed, name, _ in found] + [""]


def parse_with(src: str, parse, end: str):
    """``parse(kinds, texts, 0, 0)`` over the scan of `src`, which must end
    where the parse does.  A :class:`SyntaxAt` leaves as a
    :class:`ParseError` at its token's position, which one more scan finds."""
    kinds, texts = scan(src)
    try:
        out, i = parse(kinds, texts, 0, 0)
        if kinds[i] != "EOF":
            raise expected(f"end of {end}", texts, i)
        return out
    except SyntaxAt as e:
        message, index = e.args
        m = next(islice(_TOKEN.finditer(src), index, None), None)
        raise ParseError(message, len(src) if m is None else m.start()) from None


def expected(what: str, texts: list[str], i: int) -> SyntaxAt:
    return SyntaxAt(f"expected {what}, found {texts[i] or 'end of input'!r}", i)


def deeper(depth: int, levels: int, i: int) -> int:
    """`depth` with `levels` more nesting levels, opened at token `i`."""
    depth += levels
    if depth > MAX_NESTING:
        raise SyntaxAt(f"nesting deeper than {MAX_NESTING} levels", i)
    return depth


# --- operator tables --------------------------------------------------------
#
# A grammar's binary operators are one table, loosest first, of
# ``(op, (symbol, right associative))``; its parser and printer both read it.

OPERATORS = (("join", ("v", False)), ("meet", ("^", False)))


def print_levels(table) -> dict[str, tuple[int, str, int, int]]:
    """``op -> (level, " symbol ", left level, right level)``: levels count
    from 1, loosest first, and an operand that binds looser than its side's
    level is printed in parentheses."""
    return {op: (level, f" {symbol} ", level + right, level + 1 - right)
            for level, (op, (symbol, right)) in enumerate(table, 1)}


# --- parsing ----------------------------------------------------------------
#
# term := meet ('v' meet)*
# meet := unary ('^' unary)*
# unary := '~' unary | '(' term ')' | '0' | '1' | identifier

_CONSTANTS = {"0": BOT, "1": TOP}
_TERM_UNARY = len(OPERATORS)  # the level of '~', constants and variables


def term_chain(kinds: list[str], texts: list[str], i: int, depth: int,
               level: int = 0) -> tuple[Term, int]:
    """The term of ``OPERATORS[level:]`` from token `i`; the level past
    the table parses a unary term.  Every term operator associates to the
    left, and a chain of any length is a loop."""
    if level < _TERM_UNARY:
        op, (symbol, _) = OPERATORS[level]
        level += 1
        out, i = term_chain(kinds, texts, i, depth, level)
        while kinds[i] == symbol:
            rhs, i = term_chain(kinds, texts, i + 1, depth, level)
            out = Term(op, out, rhs)
        return out, i
    start = i
    while kinds[i] == "~":
        i += 1
    negations = i - start
    kind = kinds[i]
    if kind == "ID":
        t = Var(texts[i])
    elif kind == "(":
        t, i = term_chain(kinds, texts, i + 1, deeper(depth, 1, i))
        if kinds[i] != ")":
            raise expected("')'", texts, i)
    elif kind in _CONSTANTS:
        t = _CONSTANTS[kind]
    else:
        raise expected("a term", texts, i)
    for _ in range(negations):
        t = Not(t)
    return t, i + 1


def _equation(kinds: list[str], texts: list[str], i: int, depth: int) -> tuple[Equation, int]:
    lhs, i = term_chain(kinds, texts, i, depth)
    if kinds[i] != "=":
        raise expected("'='", texts, i)
    rhs, i = term_chain(kinds, texts, i + 1, depth)
    return Equation(lhs, rhs), i


def parse_term(src: str) -> Term:
    """Parse a complete lattice term."""
    return parse_with(src, term_chain, "term")


def parse_equation(src: str) -> Equation:
    """Parse ``term = term``."""
    return parse_with(src, _equation, "equation")


# --- programs ---------------------------------------------------------------


class Program:
    """The distinct subterms of some root terms in post-order, one per slot.

    Slot ``i`` holds ``(op, a, b)``: ``("var", name, None)``, ``("top" or
    "bot", None, None)``, ``("not", c, None)`` or ``("meet" or "join", l, r)``
    with ``c``, ``l``, ``r`` earlier slots.  Terms are interned, so one map
    from term to slot dedupes subterms.  :meth:`slot` appends, without
    recursion, the subterms a new root lacks, root last.
    """

    __slots__ = ("code", "_slots")

    def __init__(self, roots: Iterable[Term] = ()) -> None:
        self.code: list[tuple[str, object, object]] = []
        self._slots: dict[Term, int] = {}
        for t in roots:
            self.slot(t)

    def slot(self, root: Term) -> int:
        """Slot of `root`, appending its missing subterms first."""
        s = self._slots.get(root)
        return self._append(root) if s is None else s

    def _append(self, root: Term) -> int:
        code, slots = self.code, self._slots
        stack = [root]
        while stack:
            t = stack.pop()
            if t in slots:
                continue
            op, a, b = t.op, t.a, t.b
            if op != "var" and a is not None:  # children: read their slots
                sa = slots.get(a)
                sb = None if b is None else slots.get(b)
                if sa is None or (sb is None and b is not None):
                    # revisit after the missing children, left first
                    stack.append(t)
                    if sb is None and b is not None:
                        stack.append(b)
                    if sa is None:
                        stack.append(a)
                    continue
                a, b = sa, sb
            slots[t] = len(code)
            code.append((op, a, b))
        return slots[root]


# --- printing ---------------------------------------------------------------

_BINARY = print_levels(OPERATORS)
_UNARY = len(OPERATORS) + 1  # the level of '~', constants and variables
_COMPOUND = ("not", "meet", "join")


def format_term(t: Term) -> str:
    """Print with minimal parentheses; ``parse_term`` inverts this exactly.

    One explicit-stack walk over the slots of ``Program((t,))`` appends
    fragments to one list, joined once at the end.  A stack entry is a
    fragment, a ``(slot, prec)`` to print, parenthesised if its operator
    binds looser than `prec`, or a ``(slot, None)`` that closes a slot used
    more than once: its fragments are joined into the text reused at its
    later uses.  A kept text is printed at least twice, so memory and time
    stay linear in the output, also for a shared DAG.
    """
    code = Program((t,)).code
    uses = [0] * len(code)
    for op, a, b in code:
        if op in _COMPOUND:
            uses[a] += 1
            if b is not None:
                uses[b] += 1
    texts: dict[int, str] = {}
    starts: dict[int, int] = {}
    out: list[str] = []
    stack: list = [(len(code) - 1, 1)]
    while stack:
        item = stack.pop()
        if item.__class__ is str:
            out.append(item)
            continue
        slot, prec = item
        if prec is None:
            start = starts[slot]
            texts[slot] = out[start] = "".join(out[start:])
            del out[start + 1:]
            continue
        op, a, b = code[slot]
        binary = _BINARY.get(op)
        if (binary[0] if binary else _UNARY) < prec:
            out.append("(")
            stack.append(")")
        text = texts.get(slot)
        if text is not None:
            out.append(text)
            continue
        if uses[slot] > 1 and op in _COMPOUND:
            starts[slot] = len(out)
            stack.append((slot, None))
        if binary:
            _, symbol, left, right = binary
            stack += ((b, right), symbol, (a, left))
        elif op == "var":
            out.append(a)
        elif op == "not":
            out.append("~")
            stack.append((a, _UNARY))
        else:
            out.append("1" if op == "top" else "0")
    return "".join(out)


# --- structural operations --------------------------------------------------


def free_vars(t: Term) -> frozenset[str]:
    """Variable names occurring in `t`; linear in the number of distinct subterms."""
    return frozenset(a for op, a, _ in Program((t,)).code if op == "var")


def restrict(t: Term, bound: Term) -> Term:
    """Relativise `t` below `bound`.

    The term is first brought to negation normal form; then every literal
    leaf ``p`` or ``~p`` becomes its meet with `bound`.  Constant leaves are
    left alone.  The `bound` term itself is shared across all leaves.
    """
    return _nnf(t, lambda literal: Meet(literal, bound))


def _nnf(t: Term, leaf) -> Term:
    """Negation normal form of `t` with each literal ``p`` or ``~p`` passed
    through `leaf`; a fold over ``Program((t,))`` that builds the normal
    form of each slot and of its negation."""
    pos: list[Term] = []
    neg: list[Term] = []
    for op, a, b in Program((t,)).code:
        if op == "var":
            v = Var(a)
            p, n = leaf(v), leaf(Not(v))
        elif op == "not":
            p, n = neg[a], pos[a]
        elif op == "meet":
            p, n = Meet(pos[a], pos[b]), Join(neg[a], neg[b])
        elif op == "join":
            p, n = Join(pos[a], pos[b]), Meet(neg[a], neg[b])
        else:
            p, n = (TOP, BOT) if op == "top" else (BOT, TOP)
        pos.append(p)
        neg.append(n)
    return pos[-1]


def substitute(t: Term, replacements: Mapping[str, Term]) -> Term:
    """Simultaneous substitution of terms for variables; `t` itself when no
    variable of `t` is replaced."""
    if not replacements:
        return t
    code = Program((t,)).code
    if all(op != "var" or a not in replacements for op, a, _ in code):
        return t
    out: list[Term] = []
    for op, a, b in code:
        if op == "var":
            out.append(replacements.get(a) or Var(a))
        else:
            out.append(Term(op, *(out[k] for k in (a, b) if k is not None)))
    return out[-1]


def rename(t: Term, mapping: Mapping[str, str]) -> Term:
    """Rename variables by name."""
    return substitute(t, {old: Var(new) for old, new in mapping.items()})


# --- evaluation -------------------------------------------------------------


class Evaluator:
    """Evaluates terms under a batch of rows, one slot at a time.

    A batch is a sequence of rows over one ambient: each row is a tuple of
    subspaces of `ambient`, the values of `names` in that order.
    ``eval(t)`` returns the column of `t`: its value under each row, in
    order.  Each slot up to that of `t` is computed once, as one column
    over the whole batch, so the per-slot dispatch is paid once per batch
    rather than once per row; a ``var`` column reads its variable's
    position in each row, and ``top`` and ``bot`` are those of `ambient`.
    ``meet``, ``join`` and ``complement`` are read from :mod:`subspaces`
    at each call, so a replaced function sees one call per slot per row;
    ``meet`` and ``join`` pass the other operand order of a pair on
    through private names, never through the replaced one.  The meet is
    injectable so an independent implementation can be swapped in for
    cross-checks.  Rows are not checked: each must hold a
    subspace of `ambient` at each position of `names`.

    Every column stays alive with the evaluator: a batch of ``k`` rows
    over a program of ``s`` slots holds ``k * s`` subspaces, each of at
    most ``ambient ** 2`` entries.  The checker's sweep therefore draws
    its batches in chunks of 1, 2, 4, ... rows, with chunk size x slots x
    ambient**2 at most 2**14 entries, and draws at most 2k - 1 rows when
    the k-th fails.  For a program of thousands of slots that bound is
    one row per chunk, so a batch of one keeps each slot's bare value
    instead of a one-element column, and runs the slots as a plain loop.
    The returned columns are the evaluator's own and must not be
    modified.
    """

    __slots__ = ("rows", "names", "ambient", "program", "_positions", "_columns", "_meet")

    def __init__(self, rows: Sequence[tuple[Subspace, ...]], names: Sequence[str],
                 ambient: int, meet_op=None, program=None) -> None:
        self.rows = rows
        self.names = names
        self.ambient = ambient
        self.program = program if program is not None else Program()
        self._positions = {name: i for i, name in enumerate(names)}
        # a column per slot, or its bare value in a batch of one
        self._columns: list = []
        self._meet = meet_op

    def _position(self, name: str) -> int:
        i = self._positions.get(name)
        if i is None:
            raise UnboundVariableError(name)
        return i

    def eval(self, t: Term) -> list[Subspace]:
        slot = self.program.slot(t)
        columns = self._columns
        rows = self.rows
        meet = self._meet or _sub.meet
        code = self.program.code[len(columns):slot + 1]
        if len(rows) == 1:
            self._eval_one(code, meet)
            return [columns[slot]]
        for op, a, b in code:
            if op == "meet":
                col = list(map(meet, columns[a], columns[b]))
            elif op == "join":
                col = list(map(_sub.join, columns[a], columns[b]))
            elif op == "not":
                col = list(map(_sub.complement, columns[a]))
            elif op == "var":
                col = list(map(itemgetter(self._position(a)), rows))
            elif op == "top":
                col = [Subspace.full(self.ambient)] * len(rows)
            else:
                col = [Subspace.zero(self.ambient)] * len(rows)
            columns.append(col)
        return columns[slot]

    def _eval_one(self, code, meet) -> None:
        """Run `code` for a batch of one row, keeping bare values: a
        one-element list per slot would cost more than the operation on a
        small ambient."""
        values = self._columns
        join, complement = _sub.join, _sub.complement
        (row,) = self.rows
        for op, a, b in code:
            if op == "meet":
                v = meet(values[a], values[b])
            elif op == "join":
                v = join(values[a], values[b])
            elif op == "not":
                v = complement(values[a])
            elif op == "var":
                v = row[self._position(a)]
            elif op == "top":
                v = Subspace.full(self.ambient)
            else:
                v = Subspace.zero(self.ambient)
            values.append(v)


def _one_row(assignment: Assignment, meet_op=None, program=None) -> Evaluator:
    """An evaluator of the batch of one row that `assignment` binds."""
    bindings = assignment.bindings
    return Evaluator((tuple(bindings.values()),), tuple(bindings), assignment.ambient,
                     meet_op, program)


def evaluate(t: Term, assignment: Assignment) -> Subspace:
    """Value of `t` under one assignment.

    Raises:
        UnboundVariableError: if a free variable of `t` has no binding.
    """
    return _one_row(assignment).eval(t)[0]


def holds(eq: Equation, assignment: Assignment, meet_op=None) -> bool:
    """Whether both sides of `eq` evaluate to the same subspace under one
    assignment."""
    ev = _one_row(assignment, meet_op)
    return ev.eval(eq.lhs) == ev.eval(eq.rhs)
