"""Exact workbench for lattices of linear subspaces of complex n-space.

The layers, bottom to top:

- ``linalg``: scalar text for ``(re, im)`` pairs and the exact Z[i]
  elimination core behind the canonical subspace form.
- ``subspaces``: the lattice of subspaces of C^n (meet, join, complement).
- ``terms``: lattice terms, equations, parsing, and evaluation.
- ``formulas``: the stored formula families and their falsifying witnesses.
- ``checker``: counterexample search strategies and verification suites.
- ``fixtures``: the text formats for subspaces and variable assignments.
- ``sentences``: first-order sentences over the term language.
- ``compiler``: flattening, kernel encoding, and solver-text emission.
- ``smtlib``: a small reader that validates emitted solver text.
- ``cli``: the ``qlattice`` command.
"""

from .checker import CheckError, Verdict, check, coordinate_family, run_all
from .compiler import (
    CompileError,
    compile_sentence,
    emit_solver_text,
    eval_flat,
    find_solver,
    flatten,
    run_external_solver,
)
from .fixtures import (
    FixtureError,
    format_assignment_fixture,
    format_subspace_fixture,
    parse_assignment_fixture,
    parse_subspace_fixture,
)
from .formulas import (
    alpha,
    alpha_iter,
    beta,
    beta_witness,
    counterexample_catalog,
    gamma_distinct_lines,
    named_equations,
    separation_equation,
    separation_witness,
)
from .linalg import ScalarFormatError
from .sentences import eval_sentence, format_sentence, parse_sentence
from .subspaces import (
    AmbientMismatch,
    Subspace,
    complement,
    join,
    leq,
    meet,
    meet_via_demorgan,
    random_subspace,
)
from .terms import (
    BOT,
    TOP,
    Assignment,
    Equation,
    Evaluator,
    ParseError,
    Term,
    UnboundVariableError,
    evaluate,
    format_term,
    holds,
    parse_equation,
    parse_term,
)

__version__ = "0.1.0"

__all__ = [
    "AmbientMismatch",
    "Assignment",
    "BOT",
    "CheckError",
    "CompileError",
    "Equation",
    "Evaluator",
    "FixtureError",
    "ParseError",
    "ScalarFormatError",
    "Subspace",
    "TOP",
    "Term",
    "UnboundVariableError",
    "Verdict",
    "alpha",
    "alpha_iter",
    "beta",
    "beta_witness",
    "check",
    "compile_sentence",
    "complement",
    "coordinate_family",
    "counterexample_catalog",
    "emit_solver_text",
    "eval_flat",
    "eval_sentence",
    "evaluate",
    "find_solver",
    "flatten",
    "format_assignment_fixture",
    "format_sentence",
    "format_subspace_fixture",
    "format_term",
    "gamma_distinct_lines",
    "holds",
    "join",
    "leq",
    "meet",
    "meet_via_demorgan",
    "named_equations",
    "parse_assignment_fixture",
    "parse_equation",
    "parse_sentence",
    "parse_subspace_fixture",
    "parse_term",
    "random_subspace",
    "run_all",
    "run_external_solver",
    "separation_equation",
    "separation_witness",
]
