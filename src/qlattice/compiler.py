"""Compile lattice sentences into quantified real arithmetic.

The pipeline has three stages, each preserving truth over the subspace
lattice of C^n:

1. ``flatten``: name every compound subterm with a fresh universally
   quantified variable, so each atom is an equation of variables and
   the constants 0, 1; ``x <= y`` becomes ``x = x ^ y``.  Quantifiers
   stay as written, names and all, and each maximal quantifier-free scope
   becomes ``forall t1 ... tk. (defs -> matrix)`` in place.  A scope's
   definitions are atoms ``t = op(leaves)``, one per non-variable slot
   of one term ``Program`` over its atom sides, so equal subterms share
   a name.  The result is a plain sentence, returned in a ``Flat`` with
   the fresh names of every scope, at any depth.
2. ``encode_kernels``: read each lattice variable as the kernel of an
   n x n complex matrix and expand the flat atoms into quantified
   statements about vectors: membership, orthogonality, and the join
   as the sum of two member vectors, since y v z = y + z in finite
   dimension.  Nested quantifiers of one kind share one binder block,
   and a binder that shadows a name of the block starts a new one.
3. ``complex_to_real``: split every complex quantity into a real pair,
   leaving a sentence in quantified nonlinear real arithmetic.

Every stage works on the ``(op, args)`` tuples of the ``sentences``
module docstring.  Stage two adds complex expression nodes and lets
``and`` and ``or`` take any number of operands::

    ("var", (name,))                      a complex variable
    ("conj", (e,))                        complex conjugate
    ("mul", (e, e)), ("add", (e, ...))    product, sum; empty sum is 0
    ("dot", (row, vec, n))                row.1 * vec.1 + ... + row.n * vec.n,
                                          of names, without conjugation
    ("eq", (e, e))                        an equation of two expressions
    ("and", (f, ...)), ("or", (f, ...))   empty: true, false

Stage three keeps the formula nodes and makes each side of a real
``eq`` its SMT-LIB term text, such as ``"(+ (* x.re y.re) (- (* x.im
y.im)))"``; there is no real expression node.  Every formula walk is
``sentences.fold`` or, in the emitter, its own explicit stack, so no
sentence or formula is too deep for them.  Expressions are at most
three levels deep, and stage three writes the real and imaginary text
of each in one recursive pass, naming each variable's ``.re`` and
``.im`` parts once per call; a malformed expression raises
``CompileError``.  Row i of ``<matrix of x> * v = 0`` is ``("dot",
("x.i", v, n))`` set equal to 0, and stage three writes each ``dot``
from a text pattern made once per length n and call: the product split
of a row of stand-in names, into which two ``str.replace`` calls put
the row name, then the vector name.

``emit_solver_text`` renders the result as SMT-LIB v2, one formula node
per line and without indentation, pasting each equation's side texts in
place, so the text is linear in the size of the formula; the script is
one join of its pieces.  An equation side that is not text raises
``CompileError``.  Truth of the source over L(C^n) is equivalent to
validity of the output over the reals; deciding that validity is
delegated to an external solver and is never needed to build or test
this module.

Stage one is independently checkable without any solver: its output
is a sentence of the source grammar, which ``format_sentence`` prints,
and its fresh variables are pinned by their defining atoms, so
``eval_flat`` puts each definition, expanded to a term, in place of its
variable and must agree with direct evaluation of the source over any
finite domain.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Sequence

from .subspaces import Subspace
from .terms import Meet, Program, Term, Var
from . import sentences as S


class CompileError(ValueError):
    pass


Node = tuple  # (op, args); see the module docstring


# --- stage 1: flattening ----------------------------------------------------


class Flat(NamedTuple):
    """Stage one's output: the flat sentence, and every fresh name it
    binds, at any depth, in the order the names were taken."""

    sentence: S.Sentence
    fresh: tuple[str, ...]


class _FreshNames:
    """t1, t2, ... in order, skipping every name bound in a sentence."""

    def __init__(self, s: S.Sentence) -> None:
        self.used: set[str] = set()
        self.taken: list[str] = []
        self.counter = 0

        def binders(node: S.Sentence, kids: list) -> None:
            if node[0] in S.QUANTIFIERS:
                self.used.update(node[1][0])

        S.fold(s, binders)

    def take(self) -> str:
        while True:
            self.counter += 1
            name = f"t{self.counter}"
            if name not in self.used:
                self.taken.append(name)
                return name


def _name_subterms(matrix: S.Sentence, names: _FreshNames) -> S.Sentence:
    """``forall t1 ... tk. (defs -> matrix')`` for a quantifier-free matrix.

    Every compound subterm gets a fresh variable, shared on structural
    equality and defined by an atom ``t = op(leaves)``; ``x <= y`` becomes
    ``x = x ^ y``, and each atom of ``matrix'`` compares plain leaves.
    With nothing to name, the matrix comes back as it is."""
    program = Program()
    leaf: list[str] = []  # per slot: the variable naming it
    defs: list[S.Sentence] = []  # dependency order

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
                rhs = Term(op, *(Var(leaf[s]) for s in (a, b) if s is not None))
                defs.append(("eq", (Var(leaf[-1]), rhs)))
        return Var(leaf[root])

    def visit(node: S.Sentence, kids: list) -> S.Sentence:
        op, args = node
        if op == "leq":
            return ("eq", (side(args[0]), side(Meet(*args))))
        if op == "eq":
            return ("eq", (side(args[0]), side(args[1])))
        return (op, tuple(kids))

    body = S.fold(matrix, visit)
    if defs:
        body = ("implies", (S.conjoin(defs), body))
    for _, (t, _rhs) in reversed(defs):
        body = ("forall", ((t.a,), body))
    return body


def flatten(s: S.Sentence) -> Flat:
    """Stage one; requires a closed sentence.

    Binders stay where and as they are written, none renamed.  Each maximal
    quantifier-free subformula, the whole sentence if it has no
    quantifier, becomes ``forall fresh. (defs -> matrix)`` in place,
    which is sound in any context because the definitions pin each fresh
    variable to one value."""
    free = S.free_sentence_vars(s)
    if free:
        raise CompileError(
            "sentence must be closed; free: " + ", ".join(sorted(free))
        )
    names = _FreshNames(s)

    def visit(node: S.Sentence, kids: list) -> tuple[S.Sentence, bool]:
        # (flattened node, whether it is quantifier-free and left as is)
        if node[0] not in S.QUANTIFIERS and all(qf for _, qf in kids):
            return node, True
        subs = [_name_subterms(k, names) if qf else k for k, qf in kids]
        return S.rebuild(node, subs), False

    body, qf = S.fold(s, visit)
    return Flat(_name_subterms(body, names) if qf else body, tuple(names.taken))


def eval_flat(flat: Flat, domain: Iterable[Subspace], ambient: int) -> bool:
    """Truth of the flat sentence with source variables ranging over
    ``domain``.

    The fresh variables are not restricted to the domain: their defining
    atoms pin them to a unique subspace, so universal quantification
    over all of L(C^n) reduces to computing that subspace.  Each fresh
    binder is dropped, each definition is read as a term over the source
    variables and put in place of its variable, and what is left is
    evaluated by ``eval_sentence``.
    """
    fresh = set(flat.fresh)
    defined: dict[str, Term] = {}

    def expand(t: Term) -> Term:
        return defined.get(t.a, t) if t.op == "var" else t

    def visit(s: S.Sentence, kids: list) -> S.Sentence | None:
        # None stands for the definitions of a scope, all of them true
        op, args = s
        if op == "eq":
            lhs, rhs = args
            if lhs.op == "var" and lhs.a in fresh and lhs.a not in defined:
                operands = (t for t in (rhs.a, rhs.b) if t is not None)
                defined[lhs.a] = Term(rhs.op, *map(expand, operands))
                return None
            return ("eq", (expand(lhs), expand(rhs)))
        if op in S.QUANTIFIERS and args[0][0] in fresh:
            return kids[0]
        if kids[0] is None:  # a scope's definitions or their implication
            return kids[-1]
        return S.rebuild(s, kids)

    return S.eval_sentence(S.fold(flat.sentence, visit), domain, ambient)


# --- stage 2: kernel encoding -----------------------------------------------
#
# Generated names use '!' and '.', which the sentence grammar cannot
# produce in identifiers, so they never collide with source variables:
#   x.i.j     entry (i, j) of the matrix whose kernel is lattice var x
#   x.i       row i of that matrix, in a dot node
#   v!k.j     component j of the k-th quantified vector


_ZERO = ("add", ())  # the empty sum
# connective op -> its SMT-LIB operator
_CONNECTIVES = {"and": "and", "or": "or", "implies": "=>", "iff": "=", "not": "not"}


def _var(name: str) -> Node:
    return ("var", (name,))


class _Namer:
    """The fresh vector names of one compile."""

    def __init__(self) -> None:
        self.vectors = 0

    def vector(self) -> str:
        self.vectors += 1
        return f"v!{self.vectors}"


def _components(vec: str, n: int) -> tuple[str, ...]:
    return tuple(f"{vec}.{j}" for j in range(1, n + 1))


def _kernel(name: str, vec: str, n: int) -> Node:
    """The n row equations of <matrix of name> * vec = 0."""
    return ("and", tuple(
        ("eq", (("dot", (f"{name}.{i}", vec, n)), _ZERO)) for i in range(1, n + 1)
    ))


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


def _encode_definition(name: str, term: Term, n: int, namer: _Namer) -> Node:
    """``name = term`` for a meet, join or complement of variables."""
    v = namer.vector()
    member = _kernel(name, v, n)
    if term.op == "meet":
        rhs = ("and", (_kernel(term.a.a, v, n), _kernel(term.b.a, v, n)))
    elif term.op == "not":
        w = namer.vector()
        rhs = ("forall", (
            _components(w, n),
            ("implies", (_kernel(term.a.a, w, n), _hermitian_dot_zero(v, w, n))),
        ))
    else:  # join: y v z = y + z in finite dimension
        a, b = namer.vector(), namer.vector()
        total = tuple(
            ("eq", (_var(f"{v}.{j}"), ("add", (_var(f"{a}.{j}"), _var(f"{b}.{j}")))))
            for j in range(1, n + 1)
        )
        rhs = ("exists", (
            _components(a, n) + _components(b, n),
            ("and", (_kernel(term.a.a, a, n), _kernel(term.b.a, b, n)) + total),
        ))
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


def encode_kernels(s: S.Sentence, n: int) -> Node:
    """Stage two, on a flat sentence: one n x n matrix of complex
    variables per lattice variable, one binder block per run of
    quantifiers of one kind, where a binder that shadows a name of the
    run starts a new block; definitions and atoms expanded per their
    schemas, and a chain of conjunctions as one ``and``."""
    if n < 1:
        raise CompileError("matrix dimension must be at least 1")
    namer = _Namer()

    def close(f: Node) -> Node:
        # a conjunction chain collects its operands in a list, and a binder
        # block its name tuples, innermost first, its body and the lattice
        # names it binds, until a node other than the chain's next ``and``
        # or the block's next binder takes it
        op, args = f
        if op in S.QUANTIFIERS:
            return (op, (tuple(name for part in reversed(args[0]) for name in part), args[1]))
        return ("and", tuple(args)) if op == "and" else f

    def visit(node: S.Sentence, kids: list) -> Node:
        op, args = node
        if op == "and" and kids[0][0] == "and":
            kids[0][1].append(close(kids[1]))
            return kids[0]
        if op in S.QUANTIFIERS:
            block = kids[0]
            for name in reversed(args[0]):  # innermost first, as a block's parts
                # each lattice var binds the entries of its matrix, row by row
                names = tuple(f"{name}.{i}.{j}"
                              for i in range(1, n + 1) for j in range(1, n + 1))
                if block[0] == op and name not in block[1][2]:
                    block[1][0].append(names)
                    block[1][2].add(name)
                else:
                    block = (op, ([names], close(block), {name}))
            return block
        if op == "eq":
            lhs, rhs = args
            defines = rhs.op in ("meet", "join", "not")
            f = _encode_definition(lhs.a, rhs, n, namer) if defines else _encode_atom(node, n, namer)
            return (f[0], ([f[1][0]], f[1][1], set()))  # a vector block binds no lattice name
        kids = [close(k) for k in kids]
        return (op, kids if op == "and" else tuple(kids))

    return close(S.fold(s, visit))


# --- stage 3: realification -------------------------------------------------


def _split_vars(names: Sequence[str]) -> tuple[str, ...]:
    return tuple(f"{name}.{part}" for name in names for part in ("re", "im"))


# Stand-ins for the row and vector names in the text pattern of a dot row;
# names are ASCII identifiers with '.' and '!', so neither occurs in one.
_ROW, _VEC = "\1", "\0"


def _split_expr(e: Node, memo: dict) -> tuple[str, str]:
    """SMT-LIB text of the real and imaginary parts of a complex
    expression.  ``memo`` maps a variable to its ``.re``/``.im`` names,
    and a length n to the text pattern of a dot row of that length, each
    made on first use."""
    op, args = e
    if op == "dot":
        if len(args) != 3 or not (
            type(args[0]) is type(args[1]) is str and type(args[2]) is int and args[2] > 0
        ):
            raise CompileError(f"a dot row takes two names and a positive length: {e!r}")
        row, vec, n = args
        pattern = memo.get(n)
        if pattern is None:
            # the generic split of sum_j row.j * vec.j, with stand-in names
            pattern = memo[n] = _split_expr(("add", tuple(
                ("mul", (_var(f"{_ROW}.{j}"), _var(f"{_VEC}.{j}"))) for j in range(1, n + 1)
            )), {})
        re, im = pattern
        return (
            re.replace(_ROW, row).replace(_VEC, vec),
            im.replace(_ROW, row).replace(_VEC, vec),
        )
    if op == "var":
        name = args[0]
        parts = memo.get(name)
        if parts is None:
            parts = memo[name] = (name + ".re", name + ".im")
        return parts
    if op == "mul":
        if len(args) != 2:
            raise CompileError(f"a product takes two operands: {e!r}")
        a_re, a_im = _split_expr(args[0], memo)
        b_re, b_im = _split_expr(args[1], memo)
        return (
            f"(+ (* {a_re} {b_re}) (- (* {a_im} {b_im})))",
            f"(+ (* {a_re} {b_im}) (* {a_im} {b_re}))",
        )
    if op == "add":
        if len(args) < 2:
            return _split_expr(args[0], memo) if args else ("0", "0")
        re, im = zip(*[_split_expr(a, memo) for a in args])
        return "(+ " + " ".join(re) + ")", "(+ " + " ".join(im) + ")"
    if op == "conj" and len(args) == 1:
        re, im = _split_expr(args[0], memo)
        return re, f"(- {im})"
    raise CompileError(f"not a complex expression: {e!r}")


def complex_to_real(c: Node) -> Node:
    """Stage three: every complex variable becomes a (re, im) pair of
    real variables, and every complex equation two real equations whose
    sides are SMT-LIB term text."""
    memo: dict = {}  # see _split_expr

    def visit(node: Node, kids: list) -> Node:
        op, args = node
        if op == "eq":
            l_re, l_im = _split_expr(args[0], memo)
            r_re, r_im = _split_expr(args[1], memo)
            return ("and", (("eq", (l_re, r_re)), ("eq", (l_im, r_im))))
        if op in S.QUANTIFIERS:
            return (op, (_split_vars(args[0]), kids[0]))
        if op not in _CONNECTIVES:
            raise CompileError(f"not a complex formula: {op!r}")
        return (op, tuple(kids))

    return S.fold(c, visit)


def compile_sentence(s: S.Sentence, n: int) -> Node:
    """The whole pipeline; truth over L(C^n) becomes real validity."""
    return complex_to_real(encode_kernels(flatten(s).sentence, n))


class CompileStats(NamedTuple):
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


_EMPTY_WORDS = {"and": "true", "or": "false"}


def _fmt_formula(f: Node, out: list[str]) -> None:
    """Append the text of a real formula to ``out``, in pieces."""
    todo: list = [f]  # nodes and literal text
    while todo:
        node = todo.pop()
        if type(node) is str:
            out.append(node)
            continue
        op, args = node
        if op == "eq":
            if len(args) != 2 or type(args[0]) is not str or type(args[1]) is not str:
                raise CompileError(f"equation sides must be term text: {node!r}")
            out += ("(= ", args[0], " ", args[1], ")")
        elif op in S.QUANTIFIERS:
            binders = " ".join([f"({name} Real)" for name in args[0]])
            out.append(f"({op} ({binders})\n")
            todo += (")", args[1])
        elif op in _EMPTY_WORDS and len(args) < 2:
            # an empty conjunction or disjunction is a constant, and a
            # single operand prints without the connective
            if args:
                todo.append(args[0])
            else:
                out.append(_EMPTY_WORDS[op])
        elif op in _CONNECTIVES:
            out.append(f"({_CONNECTIVES[op]}\n")
            todo.append(")")
            for a in reversed(args[1:]):
                todo += (a, "\n")
            todo.append(args[0])
        else:
            raise CompileError(f"not a real formula: {node!r}")


def emit_solver_text(r: Node, form: str = "validity") -> str:
    """SMT-LIB v2 text asserting the negation of the sentence.

    ``validity``: unsat means the sentence is valid over the reals.
    ``refutation``: additionally asks for a model, which, when sat,
    exhibits matrices whose kernels falsify the source.
    """
    if form not in ("validity", "refutation"):
        raise CompileError(f"unknown form {form!r}")
    out = ["(set-logic NRA)\n(assert (not\n"]
    _fmt_formula(r, out)
    out.append("))\n(check-sat)\n")
    if form == "refutation":
        out.append("(get-model)\n")
    return "".join(out)


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


class SolverResult(NamedTuple):
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
    except OSError as exc:
        raise CompileError(f"cannot run solver {cmd[0]!r}: {exc.strerror or exc}") from exc
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
    # the top block of encode_kernels: a run of one quantifier kind, up to
    # a binder that shadows a name of the run
    top = len(r[1][0]) if r[0] in S.QUANTIFIERS else 0
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
