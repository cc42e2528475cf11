"""Minimal SMT-LIB v2 reader used to validate emitted solver text.

This is a checker, not a solver: it tokenizes with one regular
expression (``;`` comments run to the end of the line; a token starting
with ``"``, a string literal, is refused), parses s-expressions, verifies
the script structure (``set-logic`` first, then asserts, ``check-sat``,
optionally ``get-model``), and walks every asserted formula checking
operator arities, binder shapes, and that each symbol is bound by an
enclosing quantifier.  Anything the emitter could plausibly get wrong
is rejected loudly.
"""

from __future__ import annotations

import re


class SmtError(ValueError):
    pass


_SYMBOL = re.compile(r"[A-Za-z~!@$%^&*_+=<>.?/-][0-9A-Za-z~!@$%^&*_+=<>.?/-]*\Z")
_NUMERAL = re.compile(r"(0|[1-9][0-9]*)\Z")
_DECIMAL = re.compile(r"(0|[1-9][0-9]*)\.[0-9]+\Z")


# A comment, or a token: a parenthesis, or an atom up to a space, '(', ')' or ';'
_SEXPR_TOKEN = re.compile(r";[^\n]*|([()]|[^\s();]+)")


def tokenize_sexpr(text: str) -> list[str]:
    if '"' in text:  # only then can a token start with '"'
        for m in _SEXPR_TOKEN.finditer(text):
            if m.lastindex and m[1][0] == '"':
                raise SmtError(f"string literals are not supported (offset {m.start()})")
    return list(filter(None, _SEXPR_TOKEN.findall(text)))  # a comment finds ''


def parse_script(text: str) -> list:
    """Nested lists, one per top-level command."""
    tokens = tokenize_sexpr(text)
    commands = []
    stack: list[list] = []
    for tok in tokens:
        if tok == "(":
            stack.append([])
        elif tok == ")":
            if not stack:
                raise SmtError("unbalanced ')'")
            done = stack.pop()
            if stack:
                stack[-1].append(done)
            else:
                commands.append(done)
        else:
            if not stack:
                raise SmtError(f"atom {tok!r} outside any command")
            stack[-1].append(tok)
    if stack:
        raise SmtError("unterminated '('")
    return commands


_COMMANDS = {"set-logic", "assert", "check-sat", "get-model"}


def validate_script(commands: list) -> None:
    if not commands:
        raise SmtError("empty script")
    for cmd in commands:
        if not isinstance(cmd, list) or not cmd or not isinstance(cmd[0], str):
            raise SmtError(f"malformed command: {cmd!r}")
        if cmd[0] not in _COMMANDS:
            raise SmtError(f"unsupported command {cmd[0]!r}")
    head = commands[0]
    if head[0] != "set-logic" or len(head) != 2 or not _SYMBOL.match(head[1]):
        raise SmtError("script must start with (set-logic <symbol>)")
    if sum(1 for c in commands if c[0] == "set-logic") != 1:
        raise SmtError("set-logic must appear exactly once")
    if not any(c[0] == "assert" for c in commands):
        raise SmtError("script has no assert")
    if not any(c[0] == "check-sat" for c in commands):
        raise SmtError("script has no check-sat")
    for cmd in commands:
        if cmd[0] == "assert":
            if len(cmd) != 2:
                raise SmtError("assert takes exactly one term")
            _validate_term(cmd[1], frozenset())
        elif cmd[0] in ("check-sat", "get-model") and len(cmd) != 1:
            raise SmtError(f"{cmd[0]} takes no arguments")


def _validate_binders(binders, scope: frozenset) -> frozenset:
    if not isinstance(binders, list) or not binders:
        raise SmtError("quantifier needs a nonempty binder list")
    names = []
    for b in binders:
        if (
            not isinstance(b, list)
            or len(b) != 2
            or not isinstance(b[0], str)
            or not _SYMBOL.match(b[0])
            or b[1] != "Real"
        ):
            raise SmtError(f"malformed binder {b!r}")
        names.append(b[0])
    if len(set(names)) != len(names):
        raise SmtError("duplicate name in one binder list")
    return scope | frozenset(names)


# operator -> (fewest, most) arguments; None: no upper limit
_ARITY = {
    "not": (1, 1),
    "=>": (2, None),
    "and": (2, None),
    "or": (2, None),
    "=": (2, None),
    "+": (2, None),
    "*": (2, None),
    "-": (1, 2),
    "/": (2, 2),
}


def _validate_term(term, scope: frozenset) -> None:
    """Check `term` depth first, left to right, with an explicit stack of
    (subterm, symbols bound around it), so nesting depth is unlimited."""
    todo = [(term, scope)]
    while todo:
        t, scope = todo.pop()
        if isinstance(t, str):
            if t in ("true", "false"):
                continue
            if _NUMERAL.match(t) or _DECIMAL.match(t):
                continue
            if not _SYMBOL.match(t):
                raise SmtError(f"invalid symbol {t!r}")
            if t not in scope:
                raise SmtError(f"unbound symbol {t!r}")
            continue
        if not isinstance(t, list) or not t:
            raise SmtError(f"malformed term {t!r}")
        head = t[0]
        args = t[1:]
        if head in ("forall", "exists"):
            if len(args) != 2:
                raise SmtError(f"{head} takes a binder list and a body")
            todo.append((args[1], _validate_binders(args[0], scope)))
            continue
        if not isinstance(head, str):
            raise SmtError(f"malformed application head {head!r}")
        if head not in _ARITY:
            raise SmtError(f"unsupported operator {head!r}")
        fewest, most = _ARITY[head]
        if len(args) < fewest or (most is not None and len(args) > most):
            raise SmtError(f"wrong arity for {head!r}: {len(args)}")
        todo += ((a, scope) for a in reversed(args))


def check_solver_text(text: str) -> None:
    """Parse and validate in one step; raises SmtError on any problem."""
    validate_script(parse_script(text))
