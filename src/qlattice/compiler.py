"""Compile lattice sentences into quantified real arithmetic.

The pipeline has three stages, each preserving truth over the subspace
lattice of C^n:

1. ``flatten``: name every compound subterm with a fresh universally
   quantified variable, so each atom mentions only variables and the
   constants 0, 1.  The definitions are the non-variable slots of one
   term ``Program`` over the atom sides, so equal subterms share a name.
2. ``encode_kernels``: read each lattice variable as the kernel of an
   n x n complex matrix and expand the flat atoms into quantified
   statements about vectors (membership, orthogonality, and the span
   written as n-term linear combinations).
3. ``complex_to_real``: split every complex quantity into a real pair,
   leaving a sentence in quantified nonlinear real arithmetic.

``emit_solver_text`` renders the result as SMT-LIB v2.  Truth of the
source over L(C^n) is equivalent to validity of the output over the
reals; deciding that validity is delegated to an external solver and is
never needed to build or test this module.

Stage one is independently checkable without any solver: a flat
sentence's fresh variables are pinned by their defining atoms, so
``eval_flat`` runs the definitions through the term evaluator and must
agree with direct evaluation of the source over any finite domain.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .subspaces import Subspace
from .terms import BOT, CONSTRUCTORS, TOP, Assignment, Evaluator, Meet, Program, Term, Var
from . import sentences as S


class CompileError(ValueError):
    pass


# --- stage 1: flattening ----------------------------------------------------


@dataclass(frozen=True)
class Definition:
    """``name = <kind over operands>``; operands are variable names."""

    name: str
    kind: str  # "meet" | "join" | "not" | "top" | "bot"
    operands: tuple[str, ...]

    def as_sentence(self) -> S.Sentence:
        rhs = CONSTRUCTORS[self.kind](*(Var(o) for o in self.operands))
        return S.Eq(Var(self.name), rhs)


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
            body = S.Implies(hyp, body)
        for kind, name in reversed(self.prefix):
            body = S.Forall(name, body) if kind == "forall" else S.Exists(name, body)
        return body


def _desugar_leq(s: S.Sentence) -> S.Sentence:
    if isinstance(s, S.Leq):
        return S.Eq(s.lhs, Meet(s.lhs, s.rhs))
    if isinstance(s, S.Eq):
        return s
    if isinstance(s, S.Neg):
        return S.Neg(_desugar_leq(s.body))
    if isinstance(s, (S.And, S.Or, S.Implies, S.Iff)):
        return type(s)(_desugar_leq(s.lhs), _desugar_leq(s.rhs))
    if isinstance(s, (S.Forall, S.Exists)):
        return type(s)(s.var, _desugar_leq(s.body))
    raise CompileError(f"not a sentence node: {s!r}")


def _has_quantifier(s: S.Sentence) -> bool:
    if isinstance(s, (S.Forall, S.Exists)):
        return True
    if isinstance(s, (S.Eq, S.Leq)):
        return False
    if isinstance(s, S.Neg):
        return _has_quantifier(s.body)
    return _has_quantifier(s.lhs) or _has_quantifier(s.rhs)


def _expand_iff(s: S.Sentence) -> S.Sentence:
    """Split ``<->`` into two implications wherever a quantifier occurs
    beneath it; needed because a biconditional has no prenex form of its
    own.  Quantifier-free biconditionals stay intact."""
    if isinstance(s, (S.Eq, S.Leq)):
        return s
    if isinstance(s, S.Neg):
        return S.Neg(_expand_iff(s.body))
    if isinstance(s, (S.Forall, S.Exists)):
        return type(s)(s.var, _expand_iff(s.body))
    lhs = _expand_iff(s.lhs)
    rhs = _expand_iff(s.rhs)
    if isinstance(s, S.Iff) and (_has_quantifier(lhs) or _has_quantifier(rhs)):
        return S.And(S.Implies(lhs, rhs), S.Implies(rhs, lhs))
    return type(s)(lhs, rhs)


def _flip(prefix: list[tuple[str, str]]) -> list[tuple[str, str]]:
    return [
        ("exists" if kind == "forall" else "forall", name) for kind, name in prefix
    ]


def _prenex(s: S.Sentence) -> tuple[list[tuple[str, str]], S.Sentence]:
    """Pull quantifiers out front.  Sound here because rename_bound has
    made binders unique, so no pulled quantifier can capture."""
    if isinstance(s, (S.Eq, S.Leq)):
        return [], s
    if isinstance(s, S.Neg):
        pre, m = _prenex(s.body)
        return _flip(pre), S.Neg(m)
    if isinstance(s, (S.Forall, S.Exists)):
        kind = "forall" if isinstance(s, S.Forall) else "exists"
        pre, m = _prenex(s.body)
        return [(kind, s.var)] + pre, m
    if isinstance(s, S.Implies):
        pre_l, m_l = _prenex(s.lhs)
        pre_r, m_r = _prenex(s.rhs)
        return _flip(pre_l) + pre_r, S.Implies(m_l, m_r)
    if isinstance(s, (S.And, S.Or)):
        pre_l, m_l = _prenex(s.lhs)
        pre_r, m_r = _prenex(s.rhs)
        return pre_l + pre_r, type(s)(m_l, m_r)
    if isinstance(s, S.Iff):
        # _expand_iff has already removed quantified biconditionals
        return [], s
    raise CompileError(f"not a sentence node: {s!r}")


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
        if type(t) is Var or t is TOP or t is BOT:
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

    def walk(s: S.Sentence) -> S.Sentence:
        if isinstance(s, S.Eq):
            return S.Eq(side(s.lhs), side(s.rhs))
        if isinstance(s, S.Neg):
            return S.Neg(walk(s.body))
        if isinstance(s, (S.And, S.Or, S.Implies, S.Iff)):
            return type(s)(walk(s.lhs), walk(s.rhs))
        raise CompileError(f"quantifier survived prenexing: {s!r}")

    return walk(matrix), tuple(definitions)


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
    over all of L(C^n) reduces to computing that subspace.
    """
    pool = list(domain)
    for d in pool:
        if d.ambient != ambient:
            raise ValueError("domain member has the wrong ambient dimension")
    split = len(flat.prefix) - len(flat.fresh)
    # each fresh variable as a term over the source variables
    defined: dict[str, Term] = {}
    for d in flat.definitions:
        operands = (defined.get(o, Var(o)) for o in d.operands)
        defined[d.name] = CONSTRUCTORS[d.kind](*operands)
    program = Program(defined.values())

    def go(i: int, env: dict[str, Subspace]) -> bool:
        if i == split:
            ev = Evaluator(Assignment(ambient, env), program=program)
            full = {**env, **{name: ev.eval(t) for name, t in defined.items()}}
            return S.eval_sentence(flat.conclusion, (), ambient, full)
        kind, name = flat.prefix[i]
        results = (go(i + 1, {**env, name: s}) for s in pool)
        return all(results) if kind == "forall" else any(results)

    return go(0, {})


# --- complex-level AST ------------------------------------------------------


@dataclass(frozen=True)
class CVar:
    name: str


@dataclass(frozen=True)
class CConst:
    re: Fraction
    im: Fraction


@dataclass(frozen=True)
class CConj:
    arg: CVar


@dataclass(frozen=True)
class CMul:
    lhs: object
    rhs: object


@dataclass(frozen=True)
class CAdd:
    args: tuple


@dataclass(frozen=True)
class CEq:
    lhs: object
    rhs: object


@dataclass(frozen=True)
class CAnd:
    args: tuple  # empty tuple is truth


@dataclass(frozen=True)
class COr:
    args: tuple


@dataclass(frozen=True)
class CImplies:
    lhs: object
    rhs: object


@dataclass(frozen=True)
class CIff:
    lhs: object
    rhs: object


@dataclass(frozen=True)
class CNot:
    body: object


@dataclass(frozen=True)
class CForall:
    vars: tuple[str, ...]
    body: object


@dataclass(frozen=True)
class CExists:
    vars: tuple[str, ...]
    body: object


_C_ZERO = CConst(Fraction(0), Fraction(0))


# --- stage 2: kernel encoding -----------------------------------------------
#
# Generated names use '!' and '.', which the sentence grammar cannot
# produce in identifiers, so they never collide with source variables:
#   x.i.j     entry (i, j) of the matrix whose kernel is lattice var x
#   v!k.j     component j of the k-th quantified vector
#   w!g.i.j   component j of the i-th combination vector of join group g
#   r!g.i     the i-th combination scalar of join group g


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


def _kernel(name: str, vec: str, n: int) -> CAnd:
    """The n row equations of <matrix of name> * vec = 0."""
    rows = []
    for i in range(1, n + 1):
        terms = tuple(
            CMul(CVar(f"{name}.{i}.{j}"), CVar(f"{vec}.{j}"))
            for j in range(1, n + 1)
        )
        rows.append(CEq(CAdd(terms), _C_ZERO))
    return CAnd(tuple(rows))


def _hermitian_dot_zero(v: str, w: str, n: int) -> CEq:
    terms = tuple(
        CMul(CConj(CVar(f"{v}.{j}")), CVar(f"{w}.{j}")) for j in range(1, n + 1)
    )
    return CEq(CAdd(terms), _C_ZERO)


def _vec_is_zero(vec: str, n: int) -> CAnd:
    return CAnd(
        tuple(CEq(CVar(f"{vec}.{j}"), _C_ZERO) for j in range(1, n + 1))
    )


def _membership(leaf: Term, vec: str, n: int):
    """Formula: vec lies in the subspace denoted by a leaf term."""
    if type(leaf) is Var:
        return _kernel(leaf.name, vec, n)
    if leaf is TOP:
        return CAnd(())
    if leaf is BOT:
        return _vec_is_zero(vec, n)
    raise CompileError(f"atom side is not a leaf: {leaf!r}")


def _encode_definition(d: Definition, n: int, namer: _Namer):
    v = namer.vector()
    member = _kernel(d.name, v, n)
    if d.kind == "meet":
        y, z = d.operands
        rhs = CAnd((_kernel(y, v, n), _kernel(z, v, n)))
    elif d.kind == "not":
        (y,) = d.operands
        w = namer.vector()
        rhs = CForall(
            _components(w, n),
            CImplies(_kernel(y, w, n), _hermitian_dot_zero(v, w, n)),
        )
    elif d.kind == "join":
        y, z = d.operands
        g = namer.group()
        vecs = [f"w!{g}.{i}" for i in range(1, n + 1)]
        scalars = [f"r!{g}.{i}" for i in range(1, n + 1)]
        bound = tuple(
            c for vec in vecs for c in _components(vec, n)
        ) + tuple(scalars)
        in_either = tuple(
            COr((_kernel(y, vec, n), _kernel(z, vec, n))) for vec in vecs
        )
        combination = tuple(
            CEq(
                CVar(f"{v}.{j}"),
                CAdd(tuple(
                    CMul(CVar(scalars[i]), CVar(f"{vecs[i]}.{j}"))
                    for i in range(n)
                )),
            )
            for j in range(1, n + 1)
        )
        rhs = CExists(bound, CAnd(in_either + combination))
    elif d.kind == "top":
        return CForall(_components(v, n), member)
    elif d.kind == "bot":
        return CForall(
            _components(v, n), CImplies(member, _vec_is_zero(v, n))
        )
    else:
        raise CompileError(f"unknown definition kind {d.kind!r}")
    return CForall(_components(v, n), CIff(member, rhs))


def _encode_atom(atom: S.Eq, n: int, namer: _Namer):
    v = namer.vector()
    lhs, rhs = atom.lhs, atom.rhs
    # normalize so a constant side, if any, comes second
    if type(lhs) is not Var and type(rhs) is Var:
        lhs, rhs = rhs, lhs
    if rhs is TOP:
        return CForall(_components(v, n), _membership(lhs, v, n))
    if rhs is BOT:
        return CForall(
            _components(v, n),
            CImplies(_membership(lhs, v, n), _vec_is_zero(v, n)),
        )
    return CForall(
        _components(v, n),
        CIff(_membership(lhs, v, n), _membership(rhs, v, n)),
    )


def _encode_matrix(s: S.Sentence, n: int, namer: _Namer):
    if isinstance(s, S.Eq):
        return _encode_atom(s, n, namer)
    if isinstance(s, S.Neg):
        return CNot(_encode_matrix(s.body, n, namer))
    if isinstance(s, S.And):
        return CAnd((
            _encode_matrix(s.lhs, n, namer), _encode_matrix(s.rhs, n, namer)
        ))
    if isinstance(s, S.Or):
        return COr((
            _encode_matrix(s.lhs, n, namer), _encode_matrix(s.rhs, n, namer)
        ))
    if isinstance(s, S.Implies):
        return CImplies(
            _encode_matrix(s.lhs, n, namer), _encode_matrix(s.rhs, n, namer)
        )
    if isinstance(s, S.Iff):
        return CIff(
            _encode_matrix(s.lhs, n, namer), _encode_matrix(s.rhs, n, namer)
        )
    raise CompileError(f"unexpected node in a flat matrix: {s!r}")


def encode_kernels(flat: FlatSentence, n: int):
    """Stage two: one n x n matrix of complex variables per lattice
    variable, definitions and atoms expanded per their schemas."""
    if n < 1:
        raise CompileError("matrix dimension must be at least 1")
    namer = _Namer()
    hypotheses = tuple(
        _encode_definition(d, n, namer) for d in flat.definitions
    )
    conclusion = _encode_matrix(flat.conclusion, n, namer)
    body = CImplies(CAnd(hypotheses), conclusion) if hypotheses else conclusion
    for kind, name in reversed(flat.prefix):
        block = _matrix_entries(name, n)
        body = CForall(block, body) if kind == "forall" else CExists(block, body)
    return body


# --- real-level AST and stage 3 ---------------------------------------------


@dataclass(frozen=True)
class RVar:
    name: str


@dataclass(frozen=True)
class RConst:
    value: Fraction


@dataclass(frozen=True)
class RNegated:
    arg: object


@dataclass(frozen=True)
class RMul:
    lhs: object
    rhs: object


@dataclass(frozen=True)
class RAdd:
    args: tuple


@dataclass(frozen=True)
class REq:
    lhs: object
    rhs: object


@dataclass(frozen=True)
class RAnd:
    args: tuple


@dataclass(frozen=True)
class ROr:
    args: tuple


@dataclass(frozen=True)
class RImplies:
    lhs: object
    rhs: object


@dataclass(frozen=True)
class RIff:
    lhs: object
    rhs: object


@dataclass(frozen=True)
class RNot:
    body: object


@dataclass(frozen=True)
class RForall:
    vars: tuple[str, ...]
    body: object


@dataclass(frozen=True)
class RExists:
    vars: tuple[str, ...]
    body: object


def _split_vars(names: Sequence[str]) -> tuple[str, ...]:
    return tuple(f"{name}.{part}" for name in names for part in ("re", "im"))


def _split_expr(e) -> tuple[object, object]:
    """Real and imaginary parts of a complex expression."""
    if isinstance(e, CVar):
        return RVar(f"{e.name}.re"), RVar(f"{e.name}.im")
    if isinstance(e, CConst):
        return RConst(e.re), RConst(e.im)
    if isinstance(e, CConj):
        re, im = _split_expr(e.arg)
        return re, RNegated(im)
    if isinstance(e, CAdd):
        parts = [_split_expr(a) for a in e.args]
        return RAdd(tuple(p[0] for p in parts)), RAdd(tuple(p[1] for p in parts))
    if isinstance(e, CMul):
        a_re, a_im = _split_expr(e.lhs)
        b_re, b_im = _split_expr(e.rhs)
        re = RAdd((RMul(a_re, b_re), RNegated(RMul(a_im, b_im))))
        im = RAdd((RMul(a_re, b_im), RMul(a_im, b_re)))
        return re, im
    raise CompileError(f"not a complex expression: {e!r}")


def complex_to_real(c):
    """Stage three: every complex variable becomes a (re, im) pair and
    every complex equation two real equations."""
    if isinstance(c, CEq):
        l_re, l_im = _split_expr(c.lhs)
        r_re, r_im = _split_expr(c.rhs)
        return RAnd((REq(l_re, r_re), REq(l_im, r_im)))
    if isinstance(c, CAnd):
        return RAnd(tuple(complex_to_real(a) for a in c.args))
    if isinstance(c, COr):
        return ROr(tuple(complex_to_real(a) for a in c.args))
    if isinstance(c, CImplies):
        return RImplies(complex_to_real(c.lhs), complex_to_real(c.rhs))
    if isinstance(c, CIff):
        return RIff(complex_to_real(c.lhs), complex_to_real(c.rhs))
    if isinstance(c, CNot):
        return RNot(complex_to_real(c.body))
    if isinstance(c, (CForall, CExists)):
        # the prefix has one block per lattice variable, so walk it by a loop
        chain = []
        while isinstance(c, (CForall, CExists)):
            chain.append(c)
            c = c.body
        r = complex_to_real(c)
        for q in reversed(chain):
            r = (RForall if isinstance(q, CForall) else RExists)(_split_vars(q.vars), r)
        return r
    raise CompileError(f"not a complex formula: {c!r}")


def compile_sentence(s: S.Sentence, n: int):
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


def _fmt_const(value: Fraction) -> str:
    if value < 0:
        return f"(- {_fmt_const(-value)})"
    if value.denominator == 1:
        return str(value.numerator)
    return f"(/ {value.numerator} {value.denominator})"


def _fmt_expr(e) -> str:
    if isinstance(e, RVar):
        return e.name
    if isinstance(e, RConst):
        return _fmt_const(e.value)
    if isinstance(e, RNegated):
        return f"(- {_fmt_expr(e.arg)})"
    if isinstance(e, RMul):
        return f"(* {_fmt_expr(e.lhs)} {_fmt_expr(e.rhs)})"
    if isinstance(e, RAdd):
        if not e.args:
            return "0"
        if len(e.args) == 1:
            return _fmt_expr(e.args[0])
        return "(+ " + " ".join(_fmt_expr(a) for a in e.args) + ")"
    raise CompileError(f"not a real expression: {e!r}")


def _fmt_formula(f, indent: int) -> str:
    pad = " " * indent
    if isinstance(f, REq):
        return f"{pad}(= {_fmt_expr(f.lhs)} {_fmt_expr(f.rhs)})"
    if isinstance(f, (RAnd, ROr)):
        op = "and" if isinstance(f, RAnd) else "or"
        if not f.args:
            return f"{pad}true" if isinstance(f, RAnd) else f"{pad}false"
        if len(f.args) == 1:
            return _fmt_formula(f.args[0], indent)
        inner = "\n".join(_fmt_formula(a, indent + 2) for a in f.args)
        return f"{pad}({op}\n{inner})"
    if isinstance(f, (RImplies, RIff)):
        op = "=>" if isinstance(f, RImplies) else "="
        inner = "\n".join(
            _fmt_formula(part, indent + 2) for part in (f.lhs, f.rhs)
        )
        return f"{pad}({op}\n{inner})"
    if isinstance(f, RNot):
        return f"{pad}(not\n{_fmt_formula(f.body, indent + 2)})"
    if isinstance(f, (RForall, RExists)):
        lines = []
        while isinstance(f, (RForall, RExists)):
            word = "forall" if isinstance(f, RForall) else "exists"
            binders = " ".join(f"({name} Real)" for name in f.vars)
            lines.append(f"{' ' * indent}({word} ({binders})")
            f = f.body
            indent += 2
        return "\n".join(lines + [_fmt_formula(f, indent)]) + ")" * len(lines)
    raise CompileError(f"not a real formula: {f!r}")


def emit_solver_text(r, form: str = "validity") -> str:
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


def stats(r) -> CompileStats:
    top = 0
    node = r
    lead = type(node) if isinstance(node, (RForall, RExists)) else None
    while isinstance(node, (RForall, RExists)) and type(node) is lead:
        top += len(node.vars)
        node = node.body
    blocks = 0
    equations = 0
    stack = [r]
    while stack:
        cur = stack.pop()
        if isinstance(cur, (RForall, RExists)):
            blocks += 1
            stack.append(cur.body)
        elif isinstance(cur, (RAnd, ROr)):
            stack.extend(cur.args)
        elif isinstance(cur, (RImplies, RIff)):
            stack.append(cur.lhs)
            stack.append(cur.rhs)
        elif isinstance(cur, RNot):
            stack.append(cur.body)
        elif isinstance(cur, REq):
            equations += 1
    return CompileStats(top, blocks, equations)
