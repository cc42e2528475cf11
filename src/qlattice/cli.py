"""Command-line front door.

Every subcommand is a thin shell over a module operation: ``eval`` and
``check`` wrap the evaluator and the falsification search, ``emit`` and
``witness`` print the stored formula families, ``suite`` runs the checker
suites, and ``compile`` drives the sentence-to-solver-text pipeline.

Exit codes, fixed for scriptability:

  0  success / equation holds / suite passed
  1  counterexample found, suite failure, or external solver said invalid
  2  usage errors (bad flags, unknown names, unreadable or unwritable files)
  3  parse errors in terms, equations, sentences, or fixture files
  4  semantic errors (unbound variables, ambient mismatches, compile
     preconditions, a solver that fails or cannot start)
  5  internal errors (an unexpected exception: a defect, not a verdict)

A reader that closes stdout early changes neither the exit code nor
stderr: the rest of the output goes to ``os.devnull``.

Ambients outside 1 to ``subspaces.MAX_AMBIENT`` are usage errors (parse
errors in a fixture), and so are separation indices whose witness ambient
would exceed it, coefficient bounds below 1 and solver timeouts that are
not a positive number of seconds.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shlex
import sys
from pathlib import Path

from . import checker
from .checker import CheckError, check, default_strategies
from .compiler import (
    CompileError,
    compile_sentence,
    emit_solver_text,
    run_external_solver,
    stats,
)
from .fixtures import (
    FixtureError,
    format_assignment_fixture,
    format_subspace_fixture,
    parse_assignment_fixture,
)
from .formulas import (
    alpha,
    alpha_iter,
    beta,
    beta_witness,
    gamma_distinct_lines,
    named_equations,
    separation_equation,
    separation_witness,
)
from .linalg import ScalarFormatError
from .sentences import parse_sentence
from .subspaces import MAX_AMBIENT, AmbientMismatch
from .terms import (
    ParseError,
    UnboundVariableError,
    evaluate,
    parse_equation,
    parse_term,
)

EXIT_OK = 0
EXIT_FALSIFIED = 1
EXIT_USAGE = 2
EXIT_PARSE = 3
EXIT_SEMANTIC = 4
EXIT_INTERNAL = 5


# Indexed family -> (builder, least and largest index `emit` accepts).  The
# least is where the family starts.  The terms are shared DAGs that print as
# trees whose text grows exponentially in the index: gamma:5 is 23.5 MB and
# gamma:6 does not finish printing; alpha-iter:5 is 3.7 MB and each step
# is about 14x longer; separation:I prints alpha_iter(I+1) = 0, so
# separation:4 is as long as alpha-iter:5.
EMIT_INDEXED = {
    "alpha-iter": (alpha_iter, 1, 5),
    "gamma": (gamma_distinct_lines, 3, 5),
    "separation": (separation_equation, 0, 4),
}
# The plain terms `emit` prints; every other plain name is a catalogue equation.
EMIT_TERMS = {"alpha": alpha, "beta": beta}

# `witness separation:I` and `suite --max-i I` run the level-I witness, whose
# ambient 2**(I + 1) must not exceed MAX_AMBIENT.
MAX_SEPARATION_INDEX = MAX_AMBIENT.bit_length() - 2


class UsageError(ValueError):
    """Bad argument content that argparse cannot catch (unknown names)."""


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qlattice",
        description="exact workbench for the subspace lattices of complex n-space",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="evaluate a term at a fixture assignment")
    p.add_argument("term", help="term text, e.g. '~(p ^ q) v r'")
    p.add_argument("--fixture", required=True, help="assignment fixture file")

    p = sub.add_parser("check", help="search for a counterexample to an equation")
    p.add_argument("equation", help="equation text, e.g. 'p ^ (q v r) = (p ^ q) v (p ^ r)'")
    p.add_argument("--ambient", type=int, required=True, help="dimension n of the space")
    p.add_argument("--samples", type=int, default=10_000, help="random assignments to try")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--coeff-bound", type=int, default=3, help="entry bound for random bases")

    p = sub.add_parser("emit", help="print a stored formula in the term grammar")
    p.add_argument(
        "name",
        help="alpha | beta | alpha-iter:M | gamma:K | separation:I | "
        + " | ".join(sorted(named_equations())),
    )

    p = sub.add_parser("witness", help="print a stored falsifying assignment as a fixture")
    p.add_argument("name", help="beta | separation:I")

    p = sub.add_parser("suite", help="run a verification suite and print its report")
    p.add_argument("name", choices=[*checker.SUITES, "all"])
    p.add_argument("--samples", type=int, default=None, help="override the suite default")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-i", type=int, default=2, help="deepest separation level")
    p.add_argument("--coeff-bound", type=int, default=3)
    p.add_argument("--json", action="store_true", help="machine-readable report")

    p = sub.add_parser("compile", help="compile a sentence file to solver text")
    p.add_argument("path", help="file containing one sentence")
    p.add_argument("--n", type=int, required=True, help="ambient dimension")
    p.add_argument("--form", choices=["validity", "refutation"], default="validity")
    p.add_argument("--out", help="write solver text here instead of stdout")
    p.add_argument("--solve", action="store_true", help="also run an external solver")
    p.add_argument("--solver", help="solver command line (default: autodetect)")
    p.add_argument("--timeout", type=float, default=60.0, help="solver timeout in seconds")

    return parser


def _read(path: str) -> str:
    # utf-8-sig drops a leading byte-order mark, which editors may write
    try:
        return Path(path).read_text(encoding="utf-8-sig")
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise UsageError(f"cannot read {path}: not UTF-8 text") from exc


def _print(text: str, end: str = "\n") -> None:
    """Print `text` to stdout and flush it.

    A reader that closes the pipe early is not an error: stdout is then
    pointed at ``os.devnull``, so the command runs on to the exit code it
    gives with stdout open, and no later write or flush, the
    interpreter's last one included, raises again.
    """
    try:
        print(text, end=end, flush=True)
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def cmd_eval(args: argparse.Namespace) -> int:
    assignment = parse_assignment_fixture(_read(args.fixture))
    value = evaluate(parse_term(args.term), assignment)
    _print(format_subspace_fixture(value), end="")
    _print(f"# dim {value.dim}")
    return EXIT_OK


def _bounded_ambient(flag: str, n: int) -> int:
    _at_least(flag, n, 1)
    if n > MAX_AMBIENT:
        raise UsageError(f"{flag} {n} exceeds the maximum ambient {MAX_AMBIENT}")
    return n


def _at_least(flag: str, value: int, low: int) -> None:
    if value < low:
        raise UsageError(f"{flag} must be at least {low}, got {value}")


def _separation_index(flag: str, i: int) -> int:
    _at_least(flag, i, 0)
    if i > MAX_SEPARATION_INDEX:
        raise UsageError(f"{flag} must be at most {MAX_SEPARATION_INDEX}, got {i}")
    return i


def cmd_check(args: argparse.Namespace) -> int:
    _bounded_ambient("--ambient", args.ambient)
    _at_least("--samples", args.samples, 0)
    _at_least("--coeff-bound", args.coeff_bound, 1)
    eq = parse_equation(args.equation)
    strategies = default_strategies(
        samples=args.samples, seed=args.seed, coeff_bound=args.coeff_bound
    )
    verdict = check(eq, args.ambient, strategies)
    _print(verdict.summary())
    if verdict.counterexample is None:
        return EXIT_OK
    _print(verdict.counterexample.fixture(), end="")
    return EXIT_FALSIFIED


# Significant digits of the longest index `_indexed` converts; every
# index range of the CLI is far shorter.
_INDEX_DIGITS = 9


def _indexed(name: str, expected_key: str) -> int | None:
    """Parse 'key:INT' names; None when the key does not match.  An index
    of more than _INDEX_DIGITS significant digits is refused unconverted,
    so no message prints it."""
    key, sep, idx = name.partition(":")
    if key != expected_key:
        return None
    digits = idx.removeprefix("-")
    if not sep or not (digits.isascii() and digits.isdigit()):
        raise UsageError(f"expected {expected_key}:INT, got {name!r}")
    digits = digits.lstrip("0") or "0"
    if len(digits) > _INDEX_DIGITS:
        raise UsageError(f"the {expected_key} index is out of range ({len(digits)} digits)")
    return -int(digits) if idx.startswith("-") else int(digits)


def cmd_emit(args: argparse.Namespace) -> int:
    name = args.name
    family = name.partition(":")[0]
    if family in EMIT_INDEXED:
        build, low, high = EMIT_INDEXED[family]
        index = _indexed(name, family)
        _at_least(f"the {family} index", index, low)
        if index > high:
            raise UsageError(
                f"{family}:{index} exceeds the maximum {family}:{high} for emit"
            )
        formula = build(index)
    elif name in EMIT_TERMS:
        formula = EMIT_TERMS[name]()
    elif name in named_equations():
        formula = named_equations()[name]
    else:
        raise UsageError(f"unknown formula name {name!r}")
    _print(str(formula))
    return EXIT_OK


def cmd_witness(args: argparse.Namespace) -> int:
    if args.name == "beta":
        assignment = beta_witness()
    elif (i := _indexed(args.name, "separation")) is not None:
        assignment = separation_witness(_separation_index("separation:I", i))
    else:
        raise UsageError(f"unknown witness name {args.name!r}")
    _print(format_assignment_fixture(assignment), end="")
    return EXIT_OK


def cmd_suite(args: argparse.Namespace) -> int:
    if args.samples is not None:
        _at_least("--samples", args.samples, 1)
    _at_least("--coeff-bound", args.coeff_bound, 1)
    _separation_index("--max-i", args.max_i)
    run = checker.run_all if args.name == "all" else checker.SUITES[args.name]
    report = run(args.samples, args.seed, args.coeff_bound, args.max_i)
    if args.json:
        _print(json.dumps(report.as_dict(), indent=2))
    else:
        _print("\n".join(report.lines()))
    return EXIT_OK if report.passed else EXIT_FALSIFIED


def cmd_compile(args: argparse.Namespace) -> int:
    _bounded_ambient("--n", args.n)
    if not 0 < args.timeout < math.inf:
        raise UsageError(
            f"--timeout must be a positive number of seconds, got {args.timeout:g}"
        )
    sentence = parse_sentence(_read(args.path))
    real = compile_sentence(sentence, args.n)
    text = emit_solver_text(real, args.form)
    description = stats(real).describe()
    if args.out:
        try:
            Path(args.out).write_text(text)
        except OSError as exc:
            raise UsageError(f"cannot write {args.out}: {exc.strerror or exc}") from exc
        _print(f"wrote {args.out}")
        _print(description)
    else:
        _print(text, end="")
        print(description, file=sys.stderr)
    if not args.solve:
        return EXIT_OK
    command = tuple(shlex.split(args.solver)) if args.solver else None
    result = run_external_solver(text, command, timeout_seconds=args.timeout)
    _print(f"solver: {result.status}")
    if result.status == "invalid":
        return EXIT_FALSIFIED
    if result.status == "error":
        print(result.output.strip(), file=sys.stderr)
        return EXIT_SEMANTIC
    return EXIT_OK


_DISPATCH = {
    "eval": cmd_eval,
    "check": cmd_check,
    "emit": cmd_emit,
    "witness": cmd_witness,
    "suite": cmd_suite,
    "compile": cmd_compile,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse already printed its message; keep main() in-process testable
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        return _DISPATCH[args.command](args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ParseError, FixtureError, ScalarFormatError) as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (
        UnboundVariableError,
        AmbientMismatch,
        CompileError,
        CheckError,
        ValueError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SEMANTIC
    except Exception as exc:
        # never fall through to status 1, which means "counterexample found"
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    raise SystemExit(main())
