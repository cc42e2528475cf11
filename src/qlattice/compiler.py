"""Compile lattice sentences into quantified real arithmetic.

The pipeline has three stages, each preserving truth over the subspace
lattice of C^n:

1. ``flatten``: name every compound subterm with a fresh universally
   quantified variable, so each atom mentions only variables and the
   constants 0, 1.  The definitions are the non-variable slots of one
   term ``Program`` over the atom sides, so equal subterms share a name.
   A quantified ``<->`` is split into two implications first, and a split
   that would give more than ``MAX_IFF_QUANTIFIERS`` quantifiers is
   refused.
2. ``encode_kernels``: read each lattice variable as the kernel of an
   n x n complex matrix and expand the flat atoms into quantified
   statements about vectors (membership, orthogonality, and the span
   written as n-term linear combinations).
3. ``complex_to_real``: split every complex quantity into a real pair,
   leaving a sentence in quantified nonlinear real arithmetic.

Every stage works on the ``(op, args)`` tuples of the ``sentences``
module docstring.  Stages two and three add expression nodes and let
``and`` and ``or`` take any number of operands::

    ("var", (name,))                      a complex or a real variable
    ("const", (re, im)) / ("const", (x,)) a complex / a real constant
    ("conj", (e,)) / ("neg", (e,))        complex conjugate / real negation
    ("mul", (e, e)), ("add", (e, ...))    product, sum; empty sum is 0
    ("eq", (e, e))                        an equation of two expressions
    ("and", (f, ...)), ("or", (f, ...))   empty: true, false

Complex formulas use ``conj`` and two-part constants, real ones ``neg``
and one-part constants.  Every formula walk is ``sentences.fold`` or,
in the emitter, its own explicit stack, so no sentence or formula is too
deep for them; expressions are at most three levels deep and are walked
recursively.

``emit_solver_text`` renders the result as SMT-LIB v2.  Truth of the
source over L(C^n) is equivalent to validity of the output over the
reals; deciding that validity is delegated to an external solver and is
never needed to build or test this module.

Stage one is independently checkable without any solver: a flat
sentence's fresh variables are pinned by their defining atoms, so
``eval_flat`` puts each definition, expanded to a term, in place of its
variable and must agree with direct evaluation of the source over any
finite domain.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .subspaces import Subspace
from .terms import Meet, Program, Term, Var, node
from . import sentences as S


class CompileError(ValueError):
    pass


Node = tuple  # (op, args); see the module docstring


# --- stage 1: flattening ----------------------------------------------------


@dataclass(frozen=True)
class Definition:
    """``name = <kind over operands>``; operands are variable names."""

    name: str
    kind: str  # "meet" | "join" | "not" | "top" | "bot"
    operands: tuple[str, ...]

    def as_sentence(self) -> S.Sentence:
        rhs = node(self.kind, *(Var(o) for o in self.operands))
        return ("eq", (Var(self.name), rhs))


@dataclass(frozen=True)
class FlatSentence:
    """Prenex prefix, definitions for the fresh suffix, and a
    quantifier-free conclusion whose atoms compare plain leaves."""

    prefix: tuple[tuple[str, str], ...]  # ("forall" | "exists", name)
    definitions: tuple[Definition, ...]  # dependency order
    conclusion: S.Sentence
    fresh: tuple[str, ...]  # suffix of prefix names defined above

    def to_sentence(self) -> S.Sentence:
        body = self.conclusion
        if self.definitions:
            hyp = S.conjoin([d.as_sentence() for d in self.definitions])
            body = ("implies", (hyp, body))
        for kind, name in reversed(self.prefix):
            body = (kind, ((name,), body))
        return body


def _desugar_leq(s: S.Sentence) -> S.Sentence:
    def visit(node: S.Sentence, kids: list) -> S.Sentence:
        op, args = node
        if op == "leq":
            return ("eq", (args[0], Meet(*args)))
        return S.rebuild(node, kids)

    return S.fold(s, visit)


# Most quantifiers that expanding one '<->' may yield.  Each quantified
# '<->' doubles its operands, so a chain of them grows exponentially: at
# this bound `compile` of `forall y. ((forall x. x = 0) <-> y = y <-> ...)`
# with 8 atoms writes 4.1 MB at n = 1 and 15 MB at n = 4, and 9 atoms
# are refused.
MAX_IFF_QUANTIFIERS = 256


def _expand_iff(s: S.Sentence) -> S.Sentence:
    """Split ``<->`` into two implications wherever a quantifier occurs
    beneath it; needed because a biconditional has no prenex form of its
    own.  Quantifier-free biconditionals stay intact."""

    def visit(node: S.Sentence, kids: list) -> tuple[S.Sentence, int]:
        # (expanded node, number of quantifiers in it)
        op, args = node
        count = sum(k[1] for k in kids)
        if op in S.QUANTIFIERS:
            count += len(args[0])
        subs = [k[0] for k in kids]
        if op != "iff" or not count:
            return S.rebuild(node, subs), count
        if 2 * count > MAX_IFF_QUANTIFIERS:
            raise CompileError(
                f"expanding '<->' would give more than {MAX_IFF_QUANTIFIERS} quantifiers"
            )
        lhs, rhs = subs
        return ("and", (("implies", (lhs, rhs)), ("implies", (rhs, lhs)))), 2 * count

    return S.fold(s, visit)[0]


def _flip(prefix: list[tuple[str, str]]) -> list[tuple[str, str]]:
    return [
        ("exists" if kind == "forall" else "forall", name) for kind, name in prefix
    ]


def _prenex(s: S.Sentence) -> tuple[list[tuple[str, str]], S.Sentence]:
    """Pull quantifiers out front.  Sound here because rename_bound has
    made binders unique, so no pulled quantifier can capture."""

    def visit(node: S.Sentence, kids: list) -> tuple[list, S.Sentence]:
        op, args = node
        if op in S.ATOMS:
            return [], node
        if op in S.QUANTIFIERS:
            prefix, matrix = kids[0]
            return [(op, name) for name in args[0]] + prefix, matrix
        if op == "not":
            prefix, matrix = kids[0]
            return _flip(prefix), ("not", (matrix,))
        # _expand_iff has left only quantifier-free biconditionals
        (pre_l, m_l), (pre_r, m_r) = kids
        if op == "implies":
            pre_l = _flip(pre_l)
        pre_l += pre_r  # each prefix list has one owner, so extend in place
        return pre_l, (op, (m_l, m_r))

    return S.fold(s, visit)


class _FreshNames:
    def __init__(self, used: set[str]) -> None:
        self.used = set(used)
        self.counter = 0

    def take(self) -> str:
        while True:
            self.counter += 1
            name = f"t{self.counter}"
            if name not in self.used:
                self.used.add(name)
                return name


def _name_subterms(
    matrix: S.Sentence, names: _FreshNames
) -> tuple[S.Sentence, tuple[Definition, ...]]:
    """Give every compound subterm a fresh variable, shared on structural
    equality, and rewrite the matrix atoms over the resulting leaves."""
    program = Program()
    leaf: list[str] = []  # per slot: the variable naming it
    definitions: list[Definition] = []

    def side(t: Term) -> Term:
        # bare constants are legal atom sides; only nested ones get names
        if t.op in ("var", "top", "bot"):
            return t
        root = program.slot(t)
        for op, a, b in program.code[len(leaf):]:
            if op == "var":
                leaf.append(a)
            else:
                leaf.append(names.take())
                operands = tuple(leaf[s] for s in (a, b) if s is not None)
                definitions.append(Definition(leaf[-1], op, operands))
        return Var(leaf[root])

    def visit(node: S.Sentence, kids: list) -> S.Sentence:
        op, args = node
        if op == "eq":
            return ("eq", (side(args[0]), side(args[1])))
        if op in S.QUANTIFIERS or op == "leq":
            raise CompileError(f"{op!r} survived prenexing")
        return (op, tuple(kids))

    return S.fold(matrix, visit), tuple(definitions)


def flatten(s: S.Sentence) -> FlatSentence:
    """Stage one; requires a closed sentence."""
    free = S.free_sentence_vars(s)
    if free:
        raise CompileError(
            "sentence must be closed; free: " + ", ".join(sorted(free))
        )
    s = S.rename_bound(_expand_iff(_desugar_leq(s)))
    prefix, matrix = _prenex(s)
    names = _FreshNames({name for _, name in prefix})
    conclusion, definitions = _name_subterms(matrix, names)
    fresh = tuple(d.name for d in definitions)
    full_prefix = tuple(prefix) + tuple(("forall", name) for name in fresh)
    return FlatSentence(full_prefix, definitions, conclusion, fresh)


def eval_flat(flat: FlatSentence, domain: Iterable[Subspace], ambient: int) -> bool:
    """Truth of the flat sentence with source variables ranging over
    ``domain``.

    The fresh variables are not restricted to the domain: their defining
    atoms pin them to a unique subspace, so universal quantification
    over all of L(C^n) reduces to computing that subspace.  Each is
    replaced by its definition, expanded to a term over the source
    variables, and the source prefix and the conclusion are evaluated by
    ``eval_sentence``.
    """
    defined: dict[str, Term] = {}
    for d in flat.definitions:
        operands = (defined.get(o, Var(o)) for o in d.operands)
        defined[d.name] = node(d.kind, *operands)

    def expand(s: S.Sentence, kids: list) -> S.Sentence:
        if s[0] != "eq":
            return S.rebuild(s, kids)
        sides = (defined.get(t.a, t) if t.op == "var" else t for t in s[1])
        return ("eq", tuple(sides))

    body = S.fold(flat.conclusion, expand)
    for kind, name in reversed(flat.prefix[:len(flat.prefix) - len(flat.fresh)]):
        body = (kind, ((name,), body))
    return S.eval_sentence(body, domain, ambient)


# --- stage 2: kernel encoding -----------------------------------------------
#
# Generated names use '!' and '.', which the sentence grammar cannot
# produce in identifiers, so they never collide with source variables:
#   x.i.j     entry (i, j) of the matrix whose kernel is lattice var x
#   v!k.j     component j of the k-th quantified vector
#   w!g.i.j   component j of the i-th combination vector of join group g
#   r!g.i     the i-th combination scalar of join group g


_ZERO = ("const", (Fraction(0), Fraction(0)))
# connective op -> its SMT-LIB operator
_CONNECTIVES = {"and": "and", "or": "or", "implies": "=>", "iff": "=", "not": "not"}


def _var(name: str) -> Node:
    return ("var", (name,))


class _Namer:
    def __init__(self) -> None:
        self.vectors = 0
        self.groups = 0

    def vector(self) -> str:
        self.vectors += 1
        return f"v!{self.vectors}"

    def group(self) -> int:
        self.groups += 1
        return self.groups


def _components(vec: str, n: int) -> tuple[str, ...]:
    return tuple(f"{vec}.{j}" for j in range(1, n + 1))


def _matrix_entries(name: str, n: int) -> tuple[str, ...]:
    return tuple(
        f"{name}.{i}.{j}" for i in range(1, n + 1) for j in range(1, n + 1)
    )


def _kernel(name: str, vec: str, n: int) -> Node:
    """The n row equations of <matrix of name> * vec = 0."""
    rows = []
    for i in range(1, n + 1):
        terms = tuple(
            ("mul", (_var(f"{name}.{i}.{j}"), _var(f"{vec}.{j}")))
            for j in range(1, n + 1)
        )
        rows.append(("eq", (("add", terms), _ZERO)))
    return ("and", tuple(rows))


def _hermitian_dot_zero(v: str, w: str, n: int) -> Node:
    terms = tuple(
        ("mul", (("conj", (_var(f"{v}.{j}"),)), _var(f"{w}.{j}")))
        for j in range(1, n + 1)
    )
    return ("eq", (("add", terms), _ZERO))


def _vec_is_zero(vec: str, n: int) -> Node:
    return ("and", tuple(("eq", (_var(c), _ZERO)) for c in _components(vec, n)))


def _membership(leaf: Term, vec: str, n: int) -> Node:
    """Formula: vec lies in the subspace denoted by a leaf term."""
    if leaf.op == "var":
        return _kernel(leaf.a, vec, n)
    if leaf.op == "top":
        return ("and", ())
    if leaf.op == "bot":
        return _vec_is_zero(vec, n)
    raise CompileError(f"atom side is not a leaf: {leaf!r}")


def _encode_definition(d: Definition, n: int, namer: _Namer) -> Node:
    v = namer.vector()
    member = _kernel(d.name, v, n)
    if d.kind == "meet":
        y, z = d.operands
        rhs = ("and", (_kernel(y, v, n), _kernel(z, v, n)))
    elif d.kind == "not":
        (y,) = d.operands
        w = namer.vector()
        rhs = ("forall", (
            _components(w, n),
            ("implies", (_kernel(y, w, n), _hermitian_dot_zero(v, w, n))),
        ))
    elif d.kind == "join":
        y, z = d.operands
        g = namer.group()
        vecs = [f"w!{g}.{i}" for i in range(1, n + 1)]
        scalars = [f"r!{g}.{i}" for i in range(1, n + 1)]
        bound = tuple(
            c for vec in vecs for c in _components(vec, n)
        ) + tuple(scalars)
        in_either = tuple(
            ("or", (_kernel(y, vec, n), _kernel(z, vec, n))) for vec in vecs
        )
        combination = tuple(
            ("eq", (
                _var(f"{v}.{j}"),
                ("add", tuple(
                    ("mul", (_var(scalars[i]), _var(f"{vecs[i]}.{j}")))
                    for i in range(n)
                )),
            ))
            for j in range(1, n + 1)
        )
        rhs = ("exists", (bound, ("and", in_either + combination)))
    elif d.kind == "top":
        return ("forall", (_components(v, n), member))
    elif d.kind == "bot":
        return ("forall", (
            _components(v, n), ("implies", (member, _vec_is_zero(v, n)))
        ))
    else:
        raise CompileError(f"unknown definition kind {d.kind!r}")
    return ("forall", (_components(v, n), ("iff", (member, rhs))))


def _encode_atom(atom: S.Sentence, n: int, namer: _Namer) -> Node:
    v = namer.vector()
    lhs, rhs = atom[1]
    # normalize so a constant side, if any, comes second
    if lhs.op != "var" and rhs.op == "var":
        lhs, rhs = rhs, lhs
    if rhs.op == "top":
        body = _membership(lhs, v, n)
    elif rhs.op == "bot":
        body = ("implies", (_membership(lhs, v, n), _vec_is_zero(v, n)))
    else:
        body = ("iff", (_membership(lhs, v, n), _membership(rhs, v, n)))
    return ("forall", (_components(v, n), body))


def _encode_matrix(s: S.Sentence, n: int, namer: _Namer) -> Node:
    """Each atom of a flat matrix as its vector statement; the
    connectives keep their ops."""

    def visit(node: S.Sentence, kids: list) -> Node:
        op = node[0]
        if op == "eq":
            return _encode_atom(node, n, namer)
        if op not in _CONNECTIVES:
            raise CompileError(f"unexpected {op!r} in a flat matrix")
        return (op, tuple(kids))

    return S.fold(s, visit)


def encode_kernels(flat: FlatSentence, n: int) -> Node:
    """Stage two: one n x n matrix of complex variables per lattice
    variable, definitions and atoms expanded per their schemas."""
    if n < 1:
        raise CompileError("matrix dimension must be at least 1")
    namer = _Namer()
    hypotheses = tuple(
        _encode_definition(d, n, namer) for d in flat.definitions
    )
    conclusion = _encode_matrix(flat.conclusion, n, namer)
    body = ("implies", (("and", hypotheses), conclusion)) if hypotheses else conclusion
    for kind, name in reversed(flat.prefix):
        body = (kind, (_matrix_entries(name, n), body))
    return body


# --- stage 3: realification -------------------------------------------------


def _split_vars(names: Sequence[str]) -> tuple[str, ...]:
    return tuple(f"{name}.{part}" for name in names for part in ("re", "im"))


def _split_expr(e: Node) -> tuple[Node, Node]:
    """Real and imaginary parts of a complex expression."""
    op, args = e
    if op == "var":
        (name,) = args
        return ("var", (f"{name}.re",)), ("var", (f"{name}.im",))
    if op == "const":
        re, im = args
        return ("const", (re,)), ("const", (im,))
    if op == "conj":
        re, im = _split_expr(args[0])
        return re, ("neg", (im,))
    if op == "add":
        parts = [_split_expr(a) for a in args]
        return ("add", tuple(p[0] for p in parts)), ("add", tuple(p[1] for p in parts))
    if op == "mul":
        a_re, a_im = _split_expr(args[0])
        b_re, b_im = _split_expr(args[1])
        re = ("add", (("mul", (a_re, b_re)), ("neg", (("mul", (a_im, b_im)),))))
        im = ("add", (("mul", (a_re, b_im)), ("mul", (a_im, b_re))))
        return re, im
    raise CompileError(f"not a complex expression: {e!r}")


def complex_to_real(c: Node) -> Node:
    """Stage three: every complex variable becomes a (re, im) pair and
    every complex equation two real equations."""

    def visit(node: Node, kids: list) -> Node:
        op, args = node
        if op == "eq":
            l_re, l_im = _split_expr(args[0])
            r_re, r_im = _split_expr(args[1])
            return ("and", (("eq", (l_re, r_re)), ("eq", (l_im, r_im))))
        if op in S.QUANTIFIERS:
            return (op, (_split_vars(args[0]), kids[0]))
        if op not in _CONNECTIVES:
            raise CompileError(f"not a complex formula: {op!r}")
        return (op, tuple(kids))

    return S.fold(c, visit)


def compile_sentence(s: S.Sentence, n: int) -> Node:
    """The whole pipeline; truth over L(C^n) becomes real validity."""
    return complex_to_real(encode_kernels(flatten(s), n))


@dataclass(frozen=True)
class CompileStats:
    top_level_reals: int
    quantifier_blocks: int
    equations: int

    def describe(self) -> str:
        return (
            f"{self.top_level_reals} top-level real variables, "
            f"{self.quantifier_blocks} quantifier blocks, "
            f"{self.equations} real equations"
        )


# --- SMT-LIB emission -------------------------------------------------------


_EXPR_WORDS = {"neg": "-", "mul": "*", "add": "+"}
_EMPTY_WORDS = {"and": "true", "or": "false"}


def _fmt_const(value: Fraction) -> str:
    if value < 0:
        return f"(- {_fmt_const(-value)})"
    if value.denominator == 1:
        return str(value.numerator)
    return f"(/ {value.numerator} {value.denominator})"


def _fmt_expr(e: Node) -> str:
    op, args = e
    if op == "var":
        return args[0]
    if op == "const" and len(args) == 1:
        return _fmt_const(args[0])
    if op == "add" and len(args) < 2:
        return _fmt_expr(args[0]) if args else "0"
    if op not in _EXPR_WORDS:
        raise CompileError(f"not a real expression: {e!r}")
    return f"({_EXPR_WORDS[op]} " + " ".join(_fmt_expr(a) for a in args) + ")"


def _fmt_formula(f: Node, indent: int) -> str:
    out: list[str] = []
    todo: list = [(f, indent)]  # (node, indent) pairs and literal text
    while todo:
        item = todo.pop()
        if type(item) is str:
            out.append(item)
            continue
        node, indent = item
        op, args = node
        pad = " " * indent
        if op == "eq":
            out.append(f"{pad}(= {_fmt_expr(args[0])} {_fmt_expr(args[1])})")
        elif op in S.QUANTIFIERS:
            binders = " ".join(f"({name} Real)" for name in args[0])
            out.append(f"{pad}({op} ({binders})\n")
            todo += (")", (args[1], indent + 2))
        elif op in _EMPTY_WORDS and len(args) < 2:
            # an empty conjunction or disjunction is a constant, and a
            # single operand prints without the connective
            if args:
                todo.append((args[0], indent))
            else:
                out.append(pad + _EMPTY_WORDS[op])
        elif op in _CONNECTIVES:
            out.append(f"{pad}({_CONNECTIVES[op]}\n")
            todo.append(")")
            for a in reversed(args[1:]):
                todo += ((a, indent + 2), "\n")
            todo.append((args[0], indent + 2))
        else:
            raise CompileError(f"not a real formula: {node!r}")
    return "".join(out)


def emit_solver_text(r: Node, form: str = "validity") -> str:
    """SMT-LIB v2 text asserting the negation of the sentence.

    ``validity``: unsat means the sentence is valid over the reals.
    ``refutation``: additionally asks for a model, which, when sat,
    exhibits matrices whose kernels falsify the source.
    """
    if form not in ("validity", "refutation"):
        raise CompileError(f"unknown form {form!r}")
    lines = [
        "(set-logic NRA)",
        "(assert (not",
        _fmt_formula(r, 2) + "))",
        "(check-sat)",
    ]
    if form == "refutation":
        lines.append("(get-model)")
    return "\n".join(lines) + "\n"


# --- optional external solver -----------------------------------------------


_SOLVER_CANDIDATES = (
    ("z3", ("-smt2", "-in")),
    ("cvc5", ("--lang", "smt2", "-")),
)


def find_solver() -> tuple[str, ...] | None:
    """Command line for a real-arithmetic solver on PATH, if any."""
    import shutil

    for name, args in _SOLVER_CANDIDATES:
        path = shutil.which(name)
        if path:
            return (path,) + tuple(args)
    return None


@dataclass(frozen=True)
class SolverResult:
    status: str  # "valid" | "invalid" | "unknown" | "timeout" | "error"
    output: str


def run_external_solver(
    text: str,
    command: Sequence[str] | None = None,
    timeout_seconds: float = 60.0,
) -> SolverResult:
    """Feed emitted text to a solver over stdin and map its answer.

    The text asserts the sentence's negation, so unsat means valid.  A
    timeout is a reported outcome, not an error.
    """
    import subprocess

    cmd = tuple(command) if command is not None else find_solver()
    if cmd is None:
        raise CompileError("no SMT solver found on PATH")
    try:
        proc = subprocess.run(
            cmd,
            input=text,
            capture_output=True,
            text=True,
            timeout=timeout_seconds,
        )
    except subprocess.TimeoutExpired:
        return SolverResult("timeout", "")
    out = proc.stdout.strip()
    first = out.splitlines()[0].strip() if out else ""
    if first == "unsat":
        return SolverResult("valid", out)
    if first == "sat":
        return SolverResult("invalid", out)
    if first == "unknown":
        return SolverResult("unknown", out)
    return SolverResult("error", out + proc.stderr)


def stats(r: Node) -> CompileStats:
    top = 0
    node = r
    if r[0] in S.QUANTIFIERS:
        while node[0] == r[0]:
            names, node = node[1]
            top += len(names)
    blocks = 0
    equations = 0
    todo = [r]
    while todo:
        op, args = todo.pop()
        if op in S.QUANTIFIERS:
            blocks += 1
            todo.append(args[1])
        elif op in _CONNECTIVES:
            todo += args
        elif op == "eq":
            equations += 1
    return CompileStats(top, blocks, equations)
