"""CLI subcommands, exit codes, and output formats, driven in process."""

import json
import os
import random
import shutil
import stat
import subprocess
import sys
import time
from hashlib import blake2b
from pathlib import Path

import pytest

from qlattice import checker, cli
from qlattice.cli import main
from qlattice.fixtures import (
    format_assignment_fixture,
    parse_assignment_fixture,
    parse_subspace_fixture,
)
from qlattice.formulas import (
    alpha,
    alpha_iter,
    beta_witness,
    gamma_distinct_lines,
    named_equations,
    separation_witness,
)
from qlattice.smtlib import check_solver_text
from qlattice.subspaces import complement
from qlattice.terms import MAX_NESTING, format_term

ROOT = Path(__file__).parent.parent
GOLDEN = Path(__file__).parent / "golden"
DATA = Path(__file__).parent / "data"


def run(capsys, *argv) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture()
def beta_fixture(tmp_path):
    path = tmp_path / "beta.fix"
    path.write_text(format_assignment_fixture(beta_witness()))
    return str(path)


def test_eval_alpha_at_beta_witness(capsys, beta_fixture):
    # alpha at this assignment is the line through e3
    code, out, _ = run(capsys, "eval", format_term(alpha()), "--fixture", beta_fixture)
    assert code == 0
    assert out == "4\n0 0 1 0\n# dim 1\n"
    value = parse_subspace_fixture(out)
    assert value.ambient == 4 and value.dim == 1


def test_eval_top_prints_identity_basis(capsys, tmp_path):
    path = tmp_path / "a.fix"
    path.write_text("3\np = {\n1 0 0\n}\n")
    code, out, _ = run(capsys, "eval", "1", "--fixture", str(path))
    assert code == 0
    assert out == "3\n1 0 0\n0 1 0\n0 0 1\n# dim 3\n"


def test_eval_unbound_variable_is_semantic_error(capsys, beta_fixture):
    code, _, err = run(capsys, "eval", "p ^ missing", "--fixture", beta_fixture)
    assert code == 4
    assert "missing" in err


@pytest.mark.parametrize("term", ["p ^ q", "q v p", "q ^ 0", "1 v q", "p ^ r v q"])
def test_eval_mixed_ambients_is_semantic_error(capsys, monkeypatch, tmp_path, term):
    # The fixture format gives every binding the header's ambient, so the
    # mixed assignment is built past Assignment's own check; the lattice
    # operation must then refuse it with exit 4, never 5.
    path = tmp_path / "a.fix"
    path.write_text("2\np = {\n1 1\n}\nr = {\n1 -1\n}\n")

    def mixed(text):
        a = parse_assignment_fixture(text)
        a.bindings["q"] = parse_subspace_fixture("3\n1 0 1\n")
        return a

    monkeypatch.setattr(cli, "parse_assignment_fixture", mixed)
    code, out, err = run(capsys, "eval", term, "--fixture", str(path))
    assert (code, out) == (4, "")
    assert "different ambients: " in err


def test_eval_bad_term_is_parse_error(capsys, beta_fixture):
    code, _, err = run(capsys, "eval", "p ^^ q", "--fixture", beta_fixture)
    assert code == 3
    assert "parse error" in err


def test_eval_bad_fixture_is_parse_error(capsys, tmp_path):
    path = tmp_path / "bad.fix"
    path.write_text("3\np = {\n1 0 0\n")  # unterminated block
    code, _, err = run(capsys, "eval", "p", "--fixture", str(path))
    assert code == 3


def test_eval_non_ascii_digits_are_a_parse_error(capsys, tmp_path):
    # Arabic-Indic 2 as the ambient and 3 1 as the row: not ambient 2
    path = tmp_path / "digits.fix"
    path.write_text("\u0662\np = {\n\u0663 \u0661\n}\n", encoding="utf-8")
    code, out, err = run(capsys, "eval", "p", "--fixture", str(path))
    assert code == 3 and out == ""
    assert err.startswith("parse error: line 1: ")


def _long_digits(count: int, seed: int) -> str:
    rng = random.Random(seed)
    return str(rng.randint(1, 9)) + "".join(str(rng.randint(0, 9)) for _ in range(count - 1))


def test_eval_long_scalar_round_trips(capsys, tmp_path):
    # 5,000 digits, beyond the interpreter's default int/str limit of 4,300
    big = _long_digits(5000, 1)
    path = tmp_path / "long.fix"
    path.write_text(f"2\np = {{\n{big} 1\n}}\n")
    code, out, err = run(capsys, "eval", "p", "--fixture", str(path))
    assert (code, err) == (0, "")
    assert out == f"2\n1 1/{big}\n# dim 1\n"
    path.write_text(out.replace("2\n", "2\np = {\n", 1).replace("# dim", "}\n# dim"))
    assert run(capsys, "eval", "p", "--fixture", str(path)) == (0, out, "")


def test_eval_prints_long_canonical_entries(capsys, tmp_path):
    # two rows of 2,500-digit entries load and reduce; the canonical basis
    # then holds entries of about 5,000 digits, printed exactly
    a, b = _long_digits(2500, 2), _long_digits(2500, 3)
    path = tmp_path / "long.fix"
    path.write_text(f"3\np = {{\n{a} 1 {b}\n2 {b} {a}*i\n}}\n")
    code, out, err = run(capsys, "eval", "p", "--fixture", str(path))
    assert (code, err) == (0, "")
    assert max(len(tok) for tok in out.split()) > 4300
    p = parse_assignment_fixture(path.read_text())["p"]
    assert parse_subspace_fixture(out) is p
    rows = out.splitlines()[1:-1]
    assert len(rows) == 2 and rows[0].startswith("1 0 ") and rows[1].startswith("0 1 ")
    path.write_text("3\np = {\n" + "\n".join(rows) + "\n}\n")
    assert run(capsys, "eval", "p", "--fixture", str(path)) == (0, out, "")


def test_witness_index_digits_are_ascii(capsys):
    code, out, err = run(capsys, "witness", "separation:\u0662")
    assert code == 2 and out == ""
    assert "expected separation:INT" in err


@pytest.mark.parametrize("command, family", [("witness", "separation"), ("emit", "gamma")])
@pytest.mark.parametrize("sign", ["", "-"])
def test_over_long_index_is_a_usage_error(capsys, command, family, sign):
    # refused before conversion, so no int/str digit limit is hit
    code, out, err = run(capsys, command, f"{family}:{sign}{'9' * 5000}")
    assert code == 2 and out == ""
    assert f"the {family} index is out of range (5000 digits)" in err
    assert len(err) < 200


def test_index_leading_zeros_do_not_count(capsys):
    padded = run(capsys, "witness", "separation:" + "0" * 5000 + "1")
    assert padded == run(capsys, "witness", "separation:1")
    assert padded[0] == 0


def test_eval_missing_fixture_is_usage_error(capsys):
    code, _, _ = run(capsys, "eval", "p", "--fixture", "does-not-exist.fix")
    assert code == 2


def test_check_reports_counterexample(capsys):
    code, out, _ = run(
        capsys,
        "check", "p ^ (q v r) = (p ^ q) v (p ^ r)",
        "--ambient", "2", "--samples", "50",
    )
    assert code == 1
    assert "counterexample" in out
    # the trailing fixture parses back into a falsifying assignment
    fixture_text = out.split("\n", 1)[1]
    a = parse_assignment_fixture(fixture_text)
    assert a.ambient == 2 and set(a.bindings) == {"p", "q", "r"}


def test_check_counterexample_reads_back_by_eval(capsys, tmp_path):
    # every name the term grammar accepts is a fixture block name too
    eq = "x1 v (y_2 ^ Z) = (x1 v y_2) ^ (x1 v Z)"
    code, out, _ = run(capsys, "check", eq, "--ambient", "2", "--samples", "50")
    assert code == 1
    path = tmp_path / "cx.fix"
    path.write_text(out.split("\n", 1)[1])
    sides = [run(capsys, "eval", side, "--fixture", str(path)) for side in eq.split(" = ")]
    assert [side[0] for side in sides] == [0, 0]
    assert sides[0][1] != sides[1][1]


@pytest.mark.parametrize(
    "argv,pos",
    [
        (("check", "α v (β ^ γ) = (α v β) ^ (α v γ)", "--ambient", "2"), 0),
        (("eval", "x²", "--fixture", "a.fix"), 1),
        (("eval", "x٣", "--fixture", "a.fix"), 1),
        (("compile", "s.sent", "--n", "1"), 7),
    ],
)
def test_non_ascii_identifiers_are_parse_errors(capsys, monkeypatch, tmp_path, argv, pos):
    monkeypatch.chdir(tmp_path)
    Path("a.fix").write_text("2\n")
    Path("s.sent").write_text("forall α. α = α\n", encoding="utf-8")
    code, out, err = run(capsys, *argv)
    assert code == 3 and out == ""
    assert f"position {pos}: unexpected character" in err


def test_check_holds_is_hedged(capsys):
    code, out, _ = run(
        capsys,
        "check", "p ^ q = q ^ p", "--ambient", "2", "--samples", "40",
    )
    assert code == 0
    assert "sampling cannot certify validity" in out


def test_check_output_is_deterministic(capsys):
    args = ("check", "p v ~p = 1", "--ambient", "3", "--samples", "60", "--seed", "7")
    first = run(capsys, *args)
    second = run(capsys, *args)
    assert first == second


@pytest.mark.parametrize(
    "name,builder",
    [
        ("alpha", alpha),
        ("alpha-iter:2", lambda: alpha_iter(2)),
        ("gamma:4", lambda: gamma_distinct_lines(4)),
    ],
)
def test_emit_terms(capsys, name, builder):
    code, out, _ = run(capsys, "emit", name)
    assert code == 0
    assert out == format_term(builder()) + "\n"


@pytest.mark.parametrize(
    "name", ["alpha", "beta", "alpha-iter:2", "separation:1", "gamma:4"]
)
def test_emit_matches_golden(capsys, name):
    code, out, _ = run(capsys, "emit", name)
    assert code == 0
    assert out.encode() == (GOLDEN / f"emit-{name.replace(':', '-')}.txt").read_bytes()


def test_emit_equation(capsys):
    code, out, _ = run(capsys, "emit", "separation:0")
    assert code == 0
    assert out.rstrip().endswith("= 0")
    code, out, _ = run(capsys, "emit", "oml")
    assert code == 0 and " = " in out


# Every catalogue name, and each indexed family at its least and largest index.
_EMIT_DIGEST_NAMES = (
    *named_equations(),
    "alpha-iter:1", "alpha-iter:5", "gamma:3", "gamma:5", "separation:0", "separation:4",
)


def _emit_digests(capsys) -> dict[str, dict]:
    """The blake2b-128 digest and byte count of ``emit NAME``'s stdout for
    every name of ``_EMIT_DIGEST_NAMES``.  ``tests/golden/emit-digests.json``
    holds the output of ``json.dumps(_emit_digests(capsys), indent=2)``."""
    digests = {}
    for name in _EMIT_DIGEST_NAMES:
        code, out, err = run(capsys, "emit", name)
        assert (code, err) == (0, "")
        data = out.encode()
        digests[name] = {"blake2b": blake2b(data, digest_size=16).hexdigest(),
                         "bytes": len(data)}
    return digests


def test_emit_matches_golden_digests(capsys):
    assert _emit_digests(capsys) == json.loads((GOLDEN / "emit-digests.json").read_text())


def test_emit_unknown_name(capsys):
    code, _, err = run(capsys, "emit", "zeta")
    assert code == 2
    assert "unknown formula name" in err


def test_emit_bad_index_syntax(capsys):
    assert run(capsys, "emit", "alpha-iter:x")[0] == 2


def _refuse_builds(monkeypatch, family):
    """Make building any index of `family` under ``emit`` fail the test."""
    def unbuilt(index):
        raise AssertionError(f"{family}:{index} was built")

    _, low, high = cli.EMIT_INDEXED[family]
    monkeypatch.setitem(cli.EMIT_INDEXED, family, (unbuilt, low, high))


def test_emit_gamma_below_three_is_usage_error(capsys, monkeypatch):
    _refuse_builds(monkeypatch, "gamma")
    code, out, err = run(capsys, "emit", "gamma:2")
    assert code == 2 and out == ""
    assert "gamma index must be at least 3" in err


def test_emit_gamma_above_cap_is_refused(capsys, monkeypatch):
    _refuse_builds(monkeypatch, "gamma")
    code, out, err = run(capsys, "emit", "gamma:6")
    assert code == 2 and out == ""
    assert "maximum gamma:5" in err


def test_emit_alpha_iter_above_cap_is_refused(capsys, monkeypatch):
    _refuse_builds(monkeypatch, "alpha-iter")
    code, out, err = run(capsys, "emit", "alpha-iter:6")
    assert code == 2 and out == ""
    assert "maximum alpha-iter:5" in err


def test_emit_separation_above_cap_is_refused(capsys, monkeypatch):
    _refuse_builds(monkeypatch, "separation")
    code, out, err = run(capsys, "emit", "separation:5")
    assert code == 2 and out == ""
    assert "maximum separation:4" in err


def test_witness_round_trips(capsys):
    code, out, _ = run(capsys, "witness", "separation:0")
    assert code == 0
    a = parse_assignment_fixture(out)
    assert a.ambient == 2 and set(a.bindings) == {"p1", "q1", "r1"}

    code, out, _ = run(capsys, "witness", "beta")
    a = parse_assignment_fixture(out)
    assert a.ambient == 4 and set(a.bindings) == {"p", "q", "r", "s"}
    assert a["q"] == complement(a["p"])

    # the deepest index whose witness ambient, 2**6, is still readable
    code, out, _ = run(capsys, "witness", "separation:5")
    assert code == 0
    a = parse_assignment_fixture(out)
    w = separation_witness(5)
    assert a.ambient == 64 and sorted(a.bindings) == sorted(w.bindings)
    assert all(a[name] == w[name] for name in w.bindings)


def test_witness_unknown_name(capsys):
    assert run(capsys, "witness", "alpha")[0] == 2


def test_suite_lemma3(capsys):
    code, out, _ = run(capsys, "suite", "lemma3")
    assert code == 0
    assert out.startswith("[PASS] lemma3")
    assert "all suites passed" in out


def test_suite_separation_small(capsys):
    code, out, _ = run(
        capsys, "suite", "separation", "--max-i", "1", "--samples", "30"
    )
    assert code == 0
    assert "separation-1-witness" in out


def test_suite_json(capsys):
    code, out, _ = run(capsys, "suite", "gamma", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] is True
    assert payload["records"][0]["suite"].startswith("gamma")


def test_suite_all_matches_golden(capsys):
    code, out, _ = run(capsys, "suite", "all", "--samples", "20", "--json")
    assert code == 0
    assert out == (GOLDEN / "suite-all-s20.json").read_text()


def test_suite_all_passes_coeff_bound(capsys):
    argv = ("--samples", "20", "--coeff-bound", "1", "--json")
    every = json.loads(run(capsys, "suite", "all", *argv)[1])["records"]
    laws = json.loads(run(capsys, "suite", "laws", *argv)[1])["records"]
    assert [r for r in every if r["suite"] == "laws"] == laws


@pytest.mark.parametrize("argv", [
    pytest.param(["suite", "laws", "--samples", "-5"], id="suite-samples-negative"),
    pytest.param(["suite", "lemma2", "--samples", "0"], id="suite-samples-zero"),
    pytest.param(["suite", "separation", "--max-i", "-1"], id="suite-max-i-negative"),
    pytest.param(["check", "p = p", "--ambient", "2", "--samples", "-1"], id="check-samples-negative"),
    pytest.param(["check", "p = p", "--ambient", "0"], id="check-ambient-zero"),
    pytest.param(["check", "p = p", "--ambient", "-3"], id="check-ambient-negative"),
    pytest.param(
        ["check", "p ^ q = q ^ p", "--ambient", "2", "--coeff-bound", "0"],
        id="check-coeff-bound-zero",
    ),
    pytest.param(["suite", "lemma2", "--coeff-bound", "-1"], id="suite-coeff-bound-negative"),
    pytest.param(["witness", "separation:-1"], id="witness-separation-negative"),
    pytest.param(["emit", "separation:-1"], id="emit-separation-negative"),
    pytest.param(["emit", "alpha-iter:0"], id="emit-alpha-iter-zero"),
    pytest.param(["emit", "gamma:-1"], id="emit-gamma-negative"),
])
def test_out_of_range_counts_are_usage_errors(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert "must be at least" in err


@pytest.mark.parametrize("argv", [
    pytest.param(["witness", "separation:6"], id="witness"),
    pytest.param(["suite", "separation", "--max-i", "6", "--samples", "1"], id="suite-separation"),
    pytest.param(["suite", "all", "--max-i", "6"], id="suite-all"),
])
def test_separation_index_beyond_max_ambient_is_usage_error(capsys, monkeypatch, argv):
    # index 6 needs a witness in ambient 2**7 = 128 > MAX_AMBIENT
    def unbuilt(*args):
        raise AssertionError("separation index 6 was run")

    monkeypatch.setattr(cli, "separation_witness", unbuilt)
    monkeypatch.setattr(checker, "run_all", unbuilt)
    monkeypatch.setitem(checker.SUITES, "separation", unbuilt)
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert "must be at most 5" in err


def test_compile_matches_golden(capsys, tmp_path):
    out_path = tmp_path / "w.smt2"
    code, out, _ = run(
        capsys,
        "compile", str(DATA / "worked_example.sent"),
        "--n", "2", "--out", str(out_path),
    )
    assert code == 0
    assert out_path.read_text() == (GOLDEN / "worked-example-n2.smt2").read_text()
    assert "72 top-level real variables" in out


def test_compile_to_stdout(capsys):
    code, out, err = run(capsys, "compile", str(DATA / "worked_example.sent"), "--n", "1")
    assert code == 0
    assert out.startswith("(set-logic NRA)")
    assert "top-level real variables" in err


def test_compile_refutation_form(capsys, tmp_path):
    src = tmp_path / "s.sent"
    src.write_text("forall x. x = x\n")
    code, out, _ = run(capsys, "compile", str(src), "--n", "1", "--form", "refutation")
    assert code == 0
    assert "(get-model)" in out


def test_compile_rejects_n_zero(capsys):
    code, out, err = run(capsys, "compile", str(DATA / "worked_example.sent"), "--n", "0")
    assert code == 2 and out == ""
    assert "--n must be at least 1, got 0" in err


@pytest.mark.parametrize("timeout", ["0", "-1", "nan", "inf"])
def test_compile_rejects_non_positive_timeout(capsys, monkeypatch, timeout):
    def unrun(*args, **kwargs):
        raise AssertionError("the solver was run")

    monkeypatch.setattr(cli, "run_external_solver", unrun)
    code, out, err = run(
        capsys, "compile", str(DATA / "worked_example.sent"), "--n", "1",
        "--solve", "--timeout", timeout,
    )
    assert code == 2 and out == ""
    assert f"--timeout must be a positive number of seconds, got {float(timeout):g}" in err


def test_compile_bad_sentence_is_parse_error(capsys, tmp_path):
    src = tmp_path / "bad.sent"
    src.write_text("forall x x = x\n")
    assert run(capsys, "compile", str(src), "--n", "1")[0] == 3


def test_compile_solve_with_stub(capsys, tmp_path):
    stub = tmp_path / "fake-solver"
    stub.write_text("#!/bin/sh\necho unsat\n")
    stub.chmod(stub.stat().st_mode | stat.S_IEXEC)
    src = tmp_path / "s.sent"
    src.write_text("forall x. x = x\n")
    out_path = tmp_path / "s.smt2"
    code, out, _ = run(
        capsys,
        "compile", str(src), "--n", "1", "--out", str(out_path),
        "--solve", "--solver", str(stub),
    )
    assert code == 0
    assert "solver: valid" in out

    stub.write_text("#!/bin/sh\necho sat\n")
    code, out, _ = run(
        capsys,
        "compile", str(src), "--n", "1", "--out", str(out_path),
        "--solve", "--solver", str(stub),
    )
    assert code == 1
    assert "solver: invalid" in out


@pytest.mark.parametrize("out", ["dir", "missing/s.smt2", "file/s.smt2"])
def test_compile_unwritable_out_is_usage_error(capsys, tmp_path, out):
    (tmp_path / "dir").mkdir()
    (tmp_path / "file").write_text("")
    src = tmp_path / "s.sent"
    src.write_text("forall x. x = x\n")
    code, _, err = run(capsys, "compile", str(src), "--n", "1", "--out", str(tmp_path / out))
    assert code == 2
    assert f"cannot write {tmp_path / out}" in err


@pytest.mark.parametrize(
    "argv", [("eval", "p", "--fixture", "bad.txt"), ("compile", "bad.txt", "--n", "1")]
)
def test_non_utf8_input_is_usage_error(capsys, monkeypatch, tmp_path, argv):
    monkeypatch.chdir(tmp_path)
    Path("bad.txt").write_bytes(b"\xff\xfe")
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert "cannot read bad.txt: not UTF-8 text" in err


@pytest.mark.parametrize(
    "argv, text",
    [
        (("eval", "p", "--fixture", "in.txt"), "3\np = {\n1 0 0\n}\n"),
        (("compile", "in.txt", "--n", "1"), "forall x. x = x\n"),
    ],
    ids=["eval", "compile"],
)
def test_byte_order_mark_is_ignored(capsys, monkeypatch, tmp_path, argv, text):
    monkeypatch.chdir(tmp_path)
    Path("in.txt").write_text(text, encoding="utf-8")
    plain = run(capsys, *argv)
    Path("in.txt").write_bytes(b"\xef\xbb\xbf" + text.encode())
    assert run(capsys, *argv) == plain
    assert plain[0] == 0


def test_solver_that_cannot_start_is_semantic_error(capsys, tmp_path):
    src = tmp_path / "s.sent"
    src.write_text("forall x. x = x\n")
    code, _, err = run(
        capsys, "compile", str(src), "--n", "1", "--solve", "--solver", "/nonexistent/solver"
    )
    assert code == 4
    assert "cannot run solver '/nonexistent/solver'" in err


def test_usage_errors(capsys):
    assert run(capsys)[0] == 2
    assert run(capsys, "frobnicate")[0] == 2
    assert run(capsys, "check", "p = p")[0] == 2  # missing --ambient


def test_internal_error_is_not_a_counterexample(capsys, monkeypatch):
    # an unexpected exception inside a command is a defect of the program;
    # status 1 would read as "counterexample found"
    def overflow(*args, **kwargs):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr(cli, "check", overflow)
    code, out, err = run(capsys, "check", "p = p", "--ambient", "2")
    assert code == 5
    assert out == ""
    assert err.startswith("internal error: RecursionError")


_MEET_CHAIN = " ^ ".join(["p"] * 2000)


@pytest.mark.parametrize(
    "argv, expected",
    [
        pytest.param(["check", _MEET_CHAIN + " = p"], 0, id="meet-chain"),
        pytest.param(["check", "~" * 3000 + "p = p"], 0, id="negation-run"),
        pytest.param(["check", f"{_MEET_CHAIN} = {_MEET_CHAIN}"], 0, id="equal-chains"),
        pytest.param(["check", "(" * 1500 + "p" + ")" * 1500 + " = p"], 3, id="deep-parens"),
    ],
)
def test_deep_terms_get_a_verdict(capsys, argv, expected):
    code, out, err = run(capsys, *argv, "--ambient", "2", "--samples", "50")
    assert code == expected, err
    assert "internal error" not in err


def test_compile_long_chain(capsys, tmp_path):
    src = tmp_path / "chain.sent"
    src.write_text("forall x. " + " v ".join(["x"] * 1000) + " = x")
    out_path = tmp_path / "chain.smt2"
    code, out, err = run(capsys, "compile", str(src), "--n", "1", "--out", str(out_path))
    assert code == 0, err
    assert "2000 top-level real variables" in out
    assert out_path.read_text().startswith("(set-logic NRA)")
    # the text is linear in the chain: 681,782 bytes, where indenting
    # every nested block wrote 36 MB
    assert out_path.stat().st_size < 1_000_000


def _chain(op: str, atoms: int) -> str:
    return f" {op} ".join(["x = x"] * atoms)


@pytest.mark.parametrize("op", ["&", "->"])
def test_compile_long_sentence(capsys, tmp_path, op):
    src = tmp_path / "chain.sent"
    src.write_text("forall x. " + _chain(op, 500))
    code, out, err = run(capsys, "compile", str(src), "--n", "1")
    assert code == 0, err
    check_solver_text(out)


@pytest.mark.parametrize("op", ["&", "|", "->", "<->"])
def test_long_connective_chains_compile(capsys, tmp_path, op):
    src = tmp_path / "chain.sent"
    src.write_text("forall x. " + _chain(op, 2000))
    out_path = tmp_path / "chain.smt2"
    code, out, err = run(capsys, "compile", str(src), "--n", "1", "--out", str(out_path))
    assert code == 0, err
    assert "2001 quantifier blocks" in out  # one per atom, one for x
    assert out_path.stat().st_size < 1_000_000  # about 0.62 MB
    # the deepest sentence allowed: a chain inside MAX_NESTING levels of
    # binder, '!' and parentheses
    bangs = "!" * (MAX_NESTING - 2)
    src.write_text(f"forall x. {bangs}(" + _chain(op, 501) + ")")
    code, out, err = run(capsys, "compile", str(src), "--n", "1")
    assert code == 0, err
    check_solver_text(out)


def _iff_chain(atoms: int) -> str:
    return "forall y. ((forall x. x = 0) <-> " + " <-> ".join(["y = y"] * atoms) + ")"


@pytest.mark.parametrize("atoms", [9, 12])
def test_quantified_iff_chain_compiles_in_place(capsys, tmp_path, atoms):
    # the quantifier stays under '<->', so the text grows linearly in the chain
    src = tmp_path / "iff.sent"
    src.write_text(_iff_chain(atoms))
    out_path = tmp_path / "iff.smt2"
    start = time.perf_counter()
    code, out, err = run(capsys, "compile", str(src), "--n", "4", "--out", str(out_path))
    assert time.perf_counter() - start < 1
    assert code == 0, err
    text = out_path.read_text()
    assert len(text.encode()) <= 64_000
    check_solver_text(text)


def test_oversized_ambient_is_refused(capsys, tmp_path):
    fixture = tmp_path / "huge.fix"
    fixture.write_text("100000000\n")
    assert run(capsys, "eval", "1", "--fixture", str(fixture))[0] == 3
    code, _, err = run(capsys, "check", "p = p", "--ambient", "100000000")
    assert code == 2 and "maximum ambient 64" in err
    src = tmp_path / "s.sent"
    src.write_text("forall x. x = x")
    code, _, err = run(capsys, "compile", str(src), "--n", "65")
    assert code == 2 and "maximum ambient 64" in err


@pytest.mark.skipif(shutil.which("qlattice") is None, reason="entry point not installed")
def test_console_script_entry_point():
    proc = subprocess.run(
        ["qlattice", "emit", "alpha"], capture_output=True, text=True
    )
    assert proc.returncode == 0
    assert proc.stdout == format_term(alpha()) + "\n"


def test_module_entry_point():
    # The CLI as a process, without an installed console script.
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "qlattice", "emit", "alpha"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == format_term(alpha()) + "\n"


def test_import_generates_no_dataclass_code():
    # Every command is a fresh process; the records are named tuples, so
    # importing the package and the CLI never loads `dataclasses`.  -S
    # keeps site-packages and .pth files from importing it first.
    code = (f"import sys; sys.path.insert(0, {str(ROOT / 'src')!r}); "
            "import qlattice, qlattice.cli; print('dataclasses' in sys.modules)")
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


@pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("argv, first, code", [
    (["emit", "alpha-iter:4"], format_term(alpha_iter(4))[:100], 0),
    (["check", "q v (p ^ r v q) ^ ~(r v p) = q", "--ambient", "4"], "counterexample after", 1),
    (["check", "p v (q ^ r) = (p v q) ^ (p v r)", "--ambient", "32", "--samples", "5"],
     "counterexample after", 1),
], ids=["emit", "check", "check-large-fixture"])
def test_reader_that_stops_early_keeps_the_exit_code(argv, first, code, buffered):
    # A reader that closes the pipe after one line, as `| head -1` does, is
    # not a defect: the command returns its own exit code, and stderr stays
    # empty.  The emit line (267,423 bytes) and the ambient-32 fixture
    # (about 78 kB) are longer than a pipe holds, so a write always meets
    # the closed pipe; the emit line is read only up to its first 100 bytes.
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    env.pop("PYTHONUNBUFFERED", None)
    if not buffered:
        env["PYTHONUNBUFFERED"] = "1"
    proc = subprocess.Popen(
        [sys.executable, "-m", "qlattice", *argv],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    line = proc.stdout.readline(100)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == code, err
    assert line.decode().startswith(first)
    assert err == b""


def _interpreter_env() -> dict[str, str]:
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    pyenv = shutil.which("pyenv")
    if pyenv:
        # A pyenv shim runs a versioned command such as python3.10 only from
        # an active version, so every installed version is made active.
        listed = subprocess.run(
            [pyenv, "versions", "--bare"], capture_output=True, text=True
        ).stdout.split()
        env["PYENV_VERSION"] = ":".join(listed)
    return env


@pytest.mark.parametrize("version", ["3.10", "3.12", "3.13"])
def test_cli_output_is_the_same_under_other_interpreters(version, tmp_path):
    # The package needs only the standard library; the other supported
    # interpreters must print the same bytes as this one, and refuse the
    # same malformed input with the same exit code and message.
    python, env = f"python{version}", _interpreter_env()
    if shutil.which(python) is None:
        pytest.skip(f"{python} is not on PATH")
    probe = subprocess.run(
        [python, "-c", "import sys; print('%d.%d' % sys.version_info[:2])"],
        capture_output=True, text=True, env=env,
    )
    if probe.returncode or probe.stdout.strip() != version:
        pytest.skip(f"{python} on PATH does not run Python {version}")
    malformed = tmp_path / "malformed.sent"
    malformed.write_text("forall x. (x = x -> \n", encoding="utf-8")
    commands = [
        ["check", "p ^ (q v r) = (p ^ q) v (p ^ r)", "--ambient", "3", "--samples", "50"],
        ["check", "p ^ (q v (p ^ r)) = (p ^ q) v (p ^ r)", "--ambient", "4", "--samples", "20"],
        ["suite", "laws", "--samples", "3"],
        ["suite", "separation", "--max-i", "1", "--samples", "20"],
        ["suite", "meet-agreement"],
        ["suite", "gamma"],
        ["compile", str(DATA / "worked_example.sent"), "--n", "2"],
        ["compile", str(DATA / "worked_example.sent"), "--n", "3", "--form", "refutation"],
    ]
    refused = [
        ["check", "p\u00e9 = p", "--ambient", "2"],
        ["check", "p\u3000v\u2003q = q\u00a0v", "--ambient", "2"],
        ["compile", str(malformed), "--n", "2"],
    ]
    for argv in commands + refused:
        ours, theirs = (
            subprocess.run(
                [exe, "-m", "qlattice", *argv], capture_output=True, text=True, env=env
            )
            for exe in (sys.executable, python)
        )
        assert ours.returncode in ((3,) if argv in refused else (0, 1)), ours.stderr
        assert (theirs.returncode, theirs.stdout) == (ours.returncode, ours.stdout), argv
        if argv in refused:
            assert theirs.stderr == ours.stderr, argv
