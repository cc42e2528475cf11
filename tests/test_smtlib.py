"""Bundled SMT-LIB reader: tokenizing, script shape, term scope and arity."""

import pytest

from qlattice.smtlib import (
    SmtError,
    check_solver_text,
    parse_script,
    tokenize_sexpr,
)


def test_tokenize_atoms_and_parens():
    assert tokenize_sexpr("(+ x.1.re 2)") == ["(", "+", "x.1.re", "2", ")"]


def test_tokenize_strips_comments():
    assert tokenize_sexpr("(a ; rest of line\n b)") == ["(", "a", "b", ")"]


def test_tokenize_rejects_string_literals():
    with pytest.raises(SmtError, match="string literals"):
        tokenize_sexpr('(echo "hi")')


def test_tokenize_quote_inside_an_atom():
    assert tokenize_sexpr('(a"b)') == ["(", 'a"b', ")"]


@pytest.mark.parametrize("text,offset", [('"x"', 0), ('(echo "hi")', 6)])
def test_tokenize_names_the_offset_of_a_string_literal(text, offset):
    with pytest.raises(SmtError, match=rf"\(offset {offset}\)"):
        tokenize_sexpr(text)


def test_tokenize_ignores_quotes_in_comments():
    assert tokenize_sexpr('(a) ; "x"\n(b)') == ["(", "a", ")", "(", "b", ")"]


def test_tokenize_drops_a_trailing_comment_without_newline():
    assert tokenize_sexpr("(a) ; done") == ["(", "a", ")"]


def test_tokenize_semicolon_ends_an_atom():
    assert tokenize_sexpr("a;b\nc") == ["a", "c"]


def test_parse_nested_lists():
    assert parse_script("(a (b c) ())") == [["a", ["b", "c"], []]]


def test_parse_two_commands():
    assert parse_script("(check-sat)(get-model)") == [["check-sat"], ["get-model"]]


@pytest.mark.parametrize(
    "text,msg",
    [
        ("(a))", "unbalanced"),
        ("((a)", "unterminated"),
        ("atom", "outside any command"),
    ],
)
def test_parse_errors(text, msg):
    with pytest.raises(SmtError, match=msg):
        parse_script(text)


_OK = "(set-logic NRA)(assert (forall ((x Real)) (= x x)))(check-sat)"


def test_minimal_script_validates():
    check_solver_text(_OK)


def test_get_model_allowed():
    check_solver_text(_OK + "(get-model)")


@pytest.mark.parametrize(
    "text,msg",
    [
        ("", "empty script"),
        ("(assert true)(check-sat)", "must start with .set-logic"),
        ("(set-logic NRA)(set-logic NRA)(assert true)(check-sat)", "exactly once"),
        ("(set-logic NRA)(check-sat)", "no assert"),
        ("(set-logic NRA)(assert true)", "no check-sat"),
        ("(set-logic NRA)(assert true)(check-sat)(echo)", "unsupported command"),
        ("(set-logic NRA)(assert true true)(check-sat)", "exactly one term"),
        ("(set-logic NRA)(assert true)(check-sat now)", "takes no arguments"),
        ("(set-logic NRA)(assert true)(check-sat)(get-model x)", "takes no arguments"),
    ],
)
def test_script_shape_errors(text, msg):
    with pytest.raises(SmtError, match=msg):
        check_solver_text(text)


def _assert_term(term: str) -> None:
    check_solver_text(f"(set-logic NRA)(assert {term})(check-sat)")


def test_literals_and_numbers_are_terms():
    _assert_term("true")
    _assert_term("false")
    _assert_term("(= 0 12 0.5)")


def test_scope_tracks_nested_quantifiers():
    _assert_term("(forall ((a Real)) (exists ((b Real)) (= (+ a b) 0)))")


def test_shadowing_in_inner_binder_is_fine():
    _assert_term("(forall ((a Real)) (exists ((a Real)) (= a 0)))")


def test_deep_nesting_validates():
    depth = 5000
    body = "(not " * depth + "(= x x)" + ")" * depth
    check_solver_text(f"(set-logic NRA)(assert (forall ((x Real)) {body}))(check-sat)")
    with pytest.raises(SmtError, match="unbound symbol 'y'"):
        check_solver_text(
            f"(set-logic NRA)(assert (forall ((x Real)) {body.replace('x x', 'x y')}))"
            "(check-sat)"
        )


def test_minus_and_divide_arities():
    _assert_term("(forall ((a Real)) (= (- a) (- 0 a) (/ 1 2)))")


@pytest.mark.parametrize(
    "term,msg",
    [
        ("x", "unbound symbol"),
        ("(forall ((a Real)) b)", "unbound symbol"),
        ("(exists ((a Real)) (forall ((b Real)) (= c 0)))", "unbound symbol"),
        ("1abc", "invalid symbol"),
        ("()", "malformed term"),
        ("(forall ((a Real)))", "binder list and a body"),
        ("(forall () true)", "nonempty binder"),
        ("(forall ((a Int)) true)", "malformed binder"),
        ("(forall ((a Real b)) true)", "malformed binder"),
        ("(forall ((a Real) (a Real)) true)", "duplicate name"),
        ("(not true false)", "wrong arity for 'not'"),
        ("(and true)", "wrong arity for 'and'"),
        ("(/ 1 2 3)", "wrong arity for '/'"),
        ("(- 1 2 3)", "wrong arity for '-'"),
        ("(mod 1 2)", "unsupported operator"),
        ("((f) 1)", "malformed application head"),
    ],
)
def test_term_errors(term, msg):
    with pytest.raises(SmtError, match=msg):
        _assert_term(term)
