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

A quantifier scopes maximally to the right, so ``forall x. A & B``
quantifies over the whole conjunction.  An opening parenthesis is
ambiguous between a grouped sentence and a parenthesised term inside an
atom; the parser tries the atom reading first and backtracks.
Parentheses, ``!`` and quantified names together nest at most
``terms.MAX_NESTING`` levels, and a sentence has at most
``MAX_CONNECTIVES`` binary connectives; other input is a
:class:`ParseError`.

Evaluation is over a caller-supplied finite domain of subspaces, which
makes quantifiers decidable by brute force; that is only the truth of
the sentence relative to the domain, not relative to all of L(C^n).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .subspaces import Subspace, leq
from .terms import (
    Equation,
    Assignment,
    ParseError,
    Term,
    TokenStream,
    evaluate,
    format_term,
    free_vars,
    parse_term_stream,
    rename,
    tokenize,
)


class Sentence:
    __slots__ = ()


@dataclass(frozen=True)
class Eq(Sentence):
    lhs: Term
    rhs: Term


@dataclass(frozen=True)
class Leq(Sentence):
    lhs: Term
    rhs: Term


@dataclass(frozen=True)
class Neg(Sentence):
    body: Sentence


@dataclass(frozen=True)
class And(Sentence):
    lhs: Sentence
    rhs: Sentence


@dataclass(frozen=True)
class Or(Sentence):
    lhs: Sentence
    rhs: Sentence


@dataclass(frozen=True)
class Implies(Sentence):
    lhs: Sentence
    rhs: Sentence


@dataclass(frozen=True)
class Iff(Sentence):
    lhs: Sentence
    rhs: Sentence


@dataclass(frozen=True)
class Forall(Sentence):
    var: str
    body: Sentence


@dataclass(frozen=True)
class Exists(Sentence):
    var: str
    body: Sentence


def conjoin(parts: Sequence[Sentence]) -> Sentence:
    """Left-nested conjunction, so chains print without parentheses."""
    if not parts:
        raise ValueError("empty conjunction")
    out = parts[0]
    for s in parts[1:]:
        out = And(out, s)
    return out


# --- parsing ----------------------------------------------------------------


# Most binary connectives ('&', '|', '->', '<->') in one sentence.  The
# sentence walkers here and in the compiler recurse once per connective.
# Under MAX_NESTING binders and the default recursion limit of 1000, the
# deepest of them (eval_flat, called 60 frames deep) first fails at 630.
MAX_CONNECTIVES = 500

_CONNECTIVE_TOKENS = frozenset(("AND", "OR", "ARROW", "IFF"))


def parse_sentence(text: str) -> Sentence:
    tokens = tokenize(text)
    connectives = [tok for tok in tokens if tok.kind in _CONNECTIVE_TOKENS]
    if len(connectives) > MAX_CONNECTIVES:
        raise ParseError(
            f"more than {MAX_CONNECTIVES} binary connectives",
            connectives[MAX_CONNECTIVES].pos,
        )
    ts = TokenStream(tokens)
    s = _parse_iff(ts)
    ts.expect("EOF", "end of sentence")
    return s


def _parse_iff(ts: TokenStream) -> Sentence:
    s = _parse_implies(ts)
    while ts.match("IFF"):
        s = Iff(s, _parse_implies(ts))
    return s


def _parse_implies(ts: TokenStream) -> Sentence:
    parts = [_parse_or(ts)]
    while ts.match("ARROW"):
        parts.append(_parse_or(ts))
    s = parts.pop()
    while parts:
        s = Implies(parts.pop(), s)
    return s


def _parse_or(ts: TokenStream) -> Sentence:
    s = _parse_and(ts)
    while ts.match("OR"):
        s = Or(s, _parse_and(ts))
    return s


def _parse_and(ts: TokenStream) -> Sentence:
    s = _parse_sunary(ts)
    while ts.match("AND"):
        s = And(s, _parse_sunary(ts))
    return s


def _parse_sunary(ts: TokenStream) -> Sentence:
    tok = ts.peek()
    if tok.kind == "BANG":
        ts.advance()
        with ts.nested(tok):
            return Neg(_parse_sunary(ts))
    if tok.kind in ("FORALL", "EXISTS"):
        ts.advance()
        names = [ts.expect("ID", "a variable name").text]
        while ts.match("COMMA"):
            names.append(ts.expect("ID", "a variable name").text)
        ts.expect("DOT", "'.' after the quantified variables")
        with ts.nested(tok, len(names)):  # one binder per name
            body = _parse_iff(ts)
        cls = Forall if tok.kind == "FORALL" else Exists
        for name in reversed(names):
            body = cls(name, body)
        return body
    return _parse_atom(ts)


def _parse_atom(ts: TokenStream) -> Sentence:
    if ts.peek().kind == "LP":
        saved = ts.index
        try:
            lhs = parse_term_stream(ts)
        except ParseError:
            ts.index = saved
        else:
            if ts.peek().kind in ("EQ", "LEQ"):
                return _finish_atom(ts, lhs)
            ts.index = saved
        with ts.nested(ts.advance()):
            s = _parse_iff(ts)
            ts.expect("RP", "')'")
        return s
    lhs = parse_term_stream(ts)
    return _finish_atom(ts, lhs)


def _finish_atom(ts: TokenStream, lhs: Term) -> Sentence:
    tok = ts.peek()
    if tok.kind == "EQ":
        ts.advance()
        return Eq(lhs, parse_term_stream(ts))
    if tok.kind == "LEQ":
        ts.advance()
        return Leq(lhs, parse_term_stream(ts))
    shown = tok.text or "end of input"
    raise ParseError(f"expected '=' or '<=' after a term, found {shown!r}", tok.pos)


# --- printing ---------------------------------------------------------------

_LEVEL_IFF = 1
_LEVEL_IMPLIES = 2
_LEVEL_OR = 3
_LEVEL_AND = 4
_LEVEL_UNARY = 5


def format_sentence(s: Sentence) -> str:
    return _print(s, 0)


def _print(s: Sentence, outer: int) -> str:
    if isinstance(s, (Forall, Exists)):
        word = "forall" if isinstance(s, Forall) else "exists"
        names = [s.var]
        body = s.body
        while type(body) is type(s):
            names.append(body.var)
            body = body.body
        text = f"{word} {', '.join(names)}. {_print(body, 0)}"
        return f"({text})" if outer > 0 else text
    if isinstance(s, Iff):
        text = f"{_print(s.lhs, _LEVEL_IFF)} <-> {_print(s.rhs, _LEVEL_IFF + 1)}"
        return f"({text})" if outer > _LEVEL_IFF else text
    if isinstance(s, Implies):
        text = f"{_print(s.lhs, _LEVEL_IMPLIES + 1)} -> {_print(s.rhs, _LEVEL_IMPLIES)}"
        return f"({text})" if outer > _LEVEL_IMPLIES else text
    if isinstance(s, Or):
        text = f"{_print(s.lhs, _LEVEL_OR)} | {_print(s.rhs, _LEVEL_OR + 1)}"
        return f"({text})" if outer > _LEVEL_OR else text
    if isinstance(s, And):
        text = f"{_print(s.lhs, _LEVEL_AND)} & {_print(s.rhs, _LEVEL_AND + 1)}"
        return f"({text})" if outer > _LEVEL_AND else text
    if isinstance(s, Neg):
        return f"!({_print(s.body, 0)})"
    if isinstance(s, Eq):
        return f"{format_term(s.lhs)} = {format_term(s.rhs)}"
    if isinstance(s, Leq):
        return f"{format_term(s.lhs)} <= {format_term(s.rhs)}"
    raise TypeError(f"not a sentence node: {s!r}")


# --- variables and closure --------------------------------------------------


def free_sentence_vars(s: Sentence) -> frozenset[str]:
    return _free(s, frozenset())


def _free(s: Sentence, bound: frozenset[str]) -> frozenset[str]:
    if isinstance(s, (Eq, Leq)):
        return (free_vars(s.lhs) | free_vars(s.rhs)) - bound
    if isinstance(s, Neg):
        return _free(s.body, bound)
    if isinstance(s, (And, Or, Implies, Iff)):
        return _free(s.lhs, bound) | _free(s.rhs, bound)
    if isinstance(s, (Forall, Exists)):
        return _free(s.body, bound | {s.var})
    raise TypeError(f"not a sentence node: {s!r}")


def is_closed(s: Sentence) -> bool:
    return not free_sentence_vars(s)


def rename_bound(s: Sentence) -> Sentence:
    """Make every bound variable name unique across the whole sentence.

    A clashing binder gets the first free name in its x, x2, x3, ...
    sequence; term variables are renamed through the active scope map.
    """
    used = set(free_sentence_vars(s))

    def fresh(name: str) -> str:
        if name not in used:
            used.add(name)
            return name
        i = 2
        while f"{name}{i}" in used:
            i += 1
        used.add(f"{name}{i}")
        return f"{name}{i}"

    def walk(s: Sentence, scope: dict[str, str]) -> Sentence:
        if isinstance(s, (Eq, Leq)):
            return type(s)(rename(s.lhs, scope), rename(s.rhs, scope))
        if isinstance(s, Neg):
            return Neg(walk(s.body, scope))
        if isinstance(s, (And, Or, Implies, Iff)):
            return type(s)(walk(s.lhs, scope), walk(s.rhs, scope))
        if isinstance(s, (Forall, Exists)):
            new = fresh(s.var)
            inner = dict(scope)
            inner[s.var] = new
            return type(s)(new, walk(s.body, inner))
        raise TypeError(f"not a sentence node: {s!r}")

    return walk(s, {})


def universal_closure(eq: Equation) -> Sentence:
    """``forall <free vars>. lhs = rhs`` with variables in sorted order."""
    s: Sentence = Eq(eq.lhs, eq.rhs)
    for name in reversed(eq.free_vars):
        s = Forall(name, s)
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
    here may still fail at subspaces outside it.
    """
    pool = list(domain)
    for d in pool:
        if d.ambient != ambient:
            raise ValueError("domain member has the wrong ambient dimension")
    return _eval(s, pool, ambient, env or {})


def _eval(s, pool, ambient, env) -> bool:
    if isinstance(s, (Eq, Leq)):
        a = Assignment(ambient, env)
        left = evaluate(s.lhs, a)
        right = evaluate(s.rhs, a)
        return left == right if isinstance(s, Eq) else leq(left, right)
    if isinstance(s, Neg):
        return not _eval(s.body, pool, ambient, env)
    if isinstance(s, And):
        return _eval(s.lhs, pool, ambient, env) and _eval(s.rhs, pool, ambient, env)
    if isinstance(s, Or):
        return _eval(s.lhs, pool, ambient, env) or _eval(s.rhs, pool, ambient, env)
    if isinstance(s, Implies):
        return (not _eval(s.lhs, pool, ambient, env)) or _eval(
            s.rhs, pool, ambient, env
        )
    if isinstance(s, Iff):
        return _eval(s.lhs, pool, ambient, env) == _eval(s.rhs, pool, ambient, env)
    if isinstance(s, (Forall, Exists)):
        results = (
            _eval(s.body, pool, ambient, {**env, s.var: d}) for d in pool
        )
        return all(results) if isinstance(s, Forall) else any(results)
    raise TypeError(f"not a sentence node: {s!r}")
