"""First-order sentences over the lattice term language.

Grammar, loosest binding first::

    sentence := implies ('<->' implies)*
    implies  := or ('->' implies)?            right associative
    or       := and ('|' and)*
    and      := unary ('&' unary)*
    unary    := '!' unary
              | ('forall' | 'exists') name (',' name)* '.' sentence
              | '(' sentence ')'
              | term ('=' | '<=') term

The binary levels are one table, :data:`CONNECTIVES`, that the parser
and the printer both read.  The parser is one level-indexed function over
the token scan of :func:`terms.scan`, in the shape of
:func:`terms.term_chain`, which parses the terms of atoms at the same
index and depth.  A quantifier scopes maximally to the right, so
``forall x. A & B`` quantifies over the whole conjunction.  An opening
parenthesis is ambiguous between a grouped sentence and a parenthesised
term inside an atom; the parser tries the atom reading first and
backtracks to the same token index and depth.  Parentheses, ``!`` and
quantified names together nest at most ``terms.MAX_NESTING`` levels, and
other input is a :class:`ParseError`; connective chains may be any
length.

A sentence is a plain ``(op, args)`` tuple whose ``args`` is always a
tuple::

    ("eq", (t, u)), ("leq", (t, u))         atoms; t, u are terms.Term
    ("not", (f,))
    ("and", (f, g)), ("or", (f, g)), ("implies", (f, g)), ("iff", (f, g))
    ("forall", (names, f)), ("exists", (names, f))   names: tuple of str

Connectives are binary and nest as the parser builds them: to the left
for ``&``, ``|`` and ``<->``, to the right for ``->``.  The parser and
:func:`universal_closure` put one name on each quantifier node.  The
compiler's later stages use the same shape with more ops.  :func:`fold`
walks a sentence bottom-up and :func:`eval_sentence` walks it top-down,
both with explicit stacks, so no sentence is too long for them.  Bound
names are kept as written; an inner binder shadows an outer one of the
same name.

Evaluation is over a caller-supplied finite domain of subspaces, which
makes quantifiers decidable by brute force; that is only the truth of
the sentence relative to the domain, not relative to all of L(C^n).
"""

from __future__ import annotations

from functools import reduce
from typing import Callable, Iterable, Sequence

from .subspaces import Subspace, leq
from .terms import (
    Equation,
    Assignment,
    Program,
    SyntaxAt,
    _one_row,
    deeper,
    expected,
    format_term,
    free_vars,
    parse_with,
    print_levels,
    term_chain,
)

Sentence = tuple  # (op, args); see the module docstring

ATOMS = frozenset(("eq", "leq"))
QUANTIFIERS = frozenset(("forall", "exists"))


def fold(s: Sentence, visit: Callable[[Sentence, list], object]) -> object:
    """Bottom-up fold: ``visit(node, results)`` on every node, children
    first, where `results` holds the children's values (the body alone
    for a quantifier, none for an atom); returns the root's value."""
    done: list = []
    todo: list = [(s, None)]  # (node, children once they are queued)
    while todo:
        node, kids = todo.pop()
        if kids is None:
            op, args = node
            kids = () if op in ATOMS else args[1:] if op in QUANTIFIERS else args
            if kids:
                todo.append((node, kids))
                todo += ((k, None) for k in reversed(kids))
                continue
        cut = len(done) - len(kids)
        done[cut:] = [visit(node, done[cut:])]
    return done[0]


def rebuild(node: Sentence, kids: Sequence[Sentence]) -> Sentence:
    """`node` with its children replaced by `kids`, as :func:`fold` orders them."""
    op, args = node
    if not kids:
        return node
    if op in QUANTIFIERS:
        return (op, (args[0], kids[0]))
    return (op, tuple(kids))


def conjoin(parts: Sequence[Sentence]) -> Sentence:
    """Left-nested conjunction, so chains print without parentheses."""
    if not parts:
        raise ValueError("empty conjunction")
    out = parts[0]
    for s in parts[1:]:
        out = ("and", (out, s))
    return out


# --- parsing ----------------------------------------------------------------

# Binary connectives, loosest first: (op, (symbol, right associative)).
CONNECTIVES = (
    ("iff", ("<->", False)),
    ("implies", ("->", True)),
    ("or", ("|", False)),
    ("and", ("&", False)),
)
_RELATIONS = {"=": "eq", "<=": "leq"}
_SENTENCE_UNARY = len(CONNECTIVES)  # the level of '!', quantifiers and atoms


def parse_sentence(text: str) -> Sentence:
    return parse_with(text, _chain, "sentence")


def _chain(kinds: list[str], texts: list[str], i: int, depth: int,
           level: int = 0) -> tuple[Sentence, int]:
    """The sentence of ``CONNECTIVES[level:]`` from token `i`, as
    :func:`terms.term_chain` reads its table; the level past the table
    parses a unary sentence.  A chain of any length is a loop."""
    if level < _SENTENCE_UNARY:
        op, (symbol, right) = CONNECTIVES[level]
        level += 1
        out, i = _chain(kinds, texts, i, depth, level)
        if kinds[i] != symbol:
            return out, i
        parts = [out]
        while kinds[i] == symbol:
            out, i = _chain(kinds, texts, i + 1, depth, level)
            parts.append(out)
        if right:
            return reduce(lambda rhs, lhs: (op, (lhs, rhs)), reversed(parts)), i
        return reduce(lambda lhs, rhs: (op, (lhs, rhs)), parts), i
    kind = kinds[i]
    if kind == "!":
        body, i = _chain(kinds, texts, i + 1, deeper(depth, 1, i), level)
        return ("not", (body,)), i
    if kind not in QUANTIFIERS:
        return _parse_atom(kinds, texts, i, depth)
    names = []
    j = i  # the quantifier, then each ',' after a name
    while not names or kinds[j] == ",":
        if kinds[j + 1] != "ID":
            raise expected("a variable name", texts, j + 1)
        names.append(texts[j + 1])
        j += 2
    if kinds[j] != ".":
        raise expected("'.' after the quantified variables", texts, j)
    body, j = _chain(kinds, texts, j + 1, deeper(depth, len(names), i))  # a level per name
    for name in reversed(names):
        body = (kind, ((name,), body))
    return body, j


def _parse_atom(kinds: list[str], texts: list[str], i: int, depth: int) -> tuple[Sentence, int]:
    """``term ('=' | '<=') term``, or else, after '(', a grouped sentence
    read again from token `i` at the same `depth`."""
    grouped = kinds[i] == "("
    try:
        lhs, j = term_chain(kinds, texts, i, depth)
    except SyntaxAt:
        if not grouped:
            raise
    else:
        relation = _RELATIONS.get(kinds[j])
        if relation is not None:
            rhs, j = term_chain(kinds, texts, j + 1, depth)
            return (relation, (lhs, rhs)), j
        if not grouped:
            raise expected("'=' or '<=' after a term", texts, j)
    s, j = _chain(kinds, texts, i + 1, deeper(depth, 1, i))
    if kinds[j] != ")":
        raise expected("')'", texts, j)
    return s, j + 1


# --- printing ---------------------------------------------------------------

# Binding levels as terms.print_levels gives them; unary sentences (``!``,
# atoms) bind tightest, and a quantifier, at level 0, is parenthesised as
# any operand.
_BINARY = print_levels(CONNECTIVES)
_LEVEL_UNARY = len(CONNECTIVES) + 1
_RELATION_SYMBOL = {op: f" {symbol} " for symbol, op in _RELATIONS.items()}


def format_sentence(s: Sentence) -> str:
    return fold(s, _print)[1]


def _print(node: Sentence, kids: list[tuple[int, str]]) -> tuple[int, str]:
    """(binding level, text) of `node`, given those of its children."""
    op, args = node
    if op in ATOMS:
        lhs, rhs = args
        return _LEVEL_UNARY, f"{format_term(lhs)}{_RELATION_SYMBOL[op]}{format_term(rhs)}"
    if op == "not":
        return _LEVEL_UNARY, f"!({kids[0][1]})"
    if op in QUANTIFIERS:
        names, body = args
        text = kids[0][1]
        if body[0] == op:  # a run of one quantifier prints as one list
            return 0, f"{op} {', '.join(names)}, {text[len(op) + 1:]}"
        return 0, f"{op} {', '.join(names)}. {text}"
    level, symbol, left, right = _BINARY[op]
    (lhs_level, lhs), (rhs_level, rhs) = kids
    lhs = lhs if lhs_level >= left else f"({lhs})"
    rhs = rhs if rhs_level >= right else f"({rhs})"
    return level, f"{lhs}{symbol}{rhs}"


# --- variables and closure --------------------------------------------------


def free_sentence_vars(s: Sentence) -> frozenset[str]:
    return fold(s, _free)


def _free(node: Sentence, kids: list[frozenset[str]]) -> frozenset[str]:
    op, args = node
    if op in ATOMS:
        return free_vars(args[0]) | free_vars(args[1])
    if op in QUANTIFIERS:
        return kids[0].difference(args[0])
    return frozenset().union(*kids)


def universal_closure(eq: Equation) -> Sentence:
    """``forall <free vars>. lhs = rhs`` with variables in sorted order."""
    s: Sentence = ("eq", (eq.lhs, eq.rhs))
    for name in reversed(eq.free_vars):
        s = ("forall", ((name,), s))
    return s


# --- finite-domain evaluation -----------------------------------------------


def eval_sentence(
    s: Sentence,
    domain: Iterable[Subspace],
    ambient: int,
    env: dict[str, Subspace] | None = None,
) -> bool:
    """Brute-force truth value with quantifiers ranging over ``domain``.

    The result is truth relative to the finite domain; a sentence true
    here may still fail at subspaces outside it.  Connectives
    short-circuit from left to right.  Each atom's sides get one
    ``Program`` for the whole call, run afresh under each environment.
    """
    pool = list(domain)
    for d in pool:
        if d.ambient != ambient:
            raise ValueError("domain member has the wrong ambient dimension")
    # (node, env, step): step 0 evaluates the node; a later step resumes it
    # with `value` holding the result of its last child: 1 after the left
    # or only operand, 2 (3) after the right operand of an iff whose left
    # one was false (true), and k + 1 after a body under pool[k - 1].
    todo: list = [(s, env or {}, 0)]
    value = True
    programs: dict[tuple, Program] = {}  # an atom's two sides -> their program
    while todo:
        node, env, step = todo.pop()
        op, args = node
        if op in ATOMS:
            program = programs.get(args)
            if program is None:
                program = programs[args] = Program(args)
            ev = _one_row(Assignment(ambient, env), program=program)
            (left,), (right,) = ev.eval(args[0]), ev.eval(args[1])
            value = left == right if op == "eq" else leq(left, right)
        elif op in QUANTIFIERS:
            names, body = args
            if len(names) > 1:
                body = (op, (names[1:], body))
            if step == 0:
                value, step = op == "forall", 1  # the value over an empty pool
            # forall stops at the first false body, exists at the first true
            if value == (op == "forall") and step <= len(pool):
                inner = {**env, names[0]: pool[step - 1]}
                todo += ((node, env, step + 1), (body, inner, 0))
        elif step == 0:
            todo += ((node, env, 1), (args[0], env, 0))
        elif op == "not":
            value = not value
        elif op == "iff":
            if step == 1:
                todo += ((node, env, 2 + value), (args[1], env, 0))
            else:
                value = value == (step == 3)
        elif value == (op != "or"):  # "and", "implies": go on after true
            todo.append((args[1], env, 0))
        else:
            value = op != "and"
    return value
