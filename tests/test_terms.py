"""Term syntax, normal forms, and evaluation semantics."""

import copy
import gc
import pickle
import sys
import tracemalloc
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qlattice.subspaces import (
    AmbientMismatch,
    Subspace,
    complement,
    join,
    leq,
    meet,
    meet_via_demorgan,
    random_subspace,
)
from qlattice.terms import (
    BOT,
    TOP,
    Assignment,
    Equation,
    MAX_NESTING,
    Evaluator,
    Join,
    Meet,
    Not,
    ParseError,
    Program,
    UnboundVariableError,
    Var,
    _nnf,
    _one_row,
    evaluate,
    format_term,
    free_vars,
    holds,
    parse_equation,
    parse_term,
    restrict,
    substitute,
)

p, q, r = Var("p"), Var("q"), Var("r")


def to_nnf(t):
    """Negation normal form: ``_nnf`` with every literal kept as it is."""
    return _nnf(t, lambda literal: literal)


names = st.sampled_from(["p", "q", "r", "s"])
terms = st.recursive(
    st.one_of(st.builds(Var, names), st.just(TOP), st.just(BOT)),
    lambda sub: st.one_of(
        st.builds(Not, sub), st.builds(Meet, sub, sub), st.builds(Join, sub, sub)
    ),
    max_leaves=12,
)


constant_free_terms = st.recursive(
    st.builds(Var, names),
    lambda sub: st.one_of(
        st.builds(Not, sub), st.builds(Meet, sub, sub), st.builds(Join, sub, sub)
    ),
    max_leaves=12,
)


@st.composite
def term_with_assignment(draw, max_ambient=3, strategy=terms):
    t = draw(strategy)
    n = draw(st.integers(1, max_ambient))
    bindings = {}
    for name in sorted(free_vars(t)):
        d = draw(st.integers(0, n))
        bindings[name] = random_subspace(n, d, draw(st.integers(0, 10**6)))
    return t, Assignment(n, bindings)


@st.composite
def term_with_batches(draw, max_ambient=3):
    """A term, the sorted names of its variables, and 1..3 batches of 1..5
    rows of them, each batch in its own ambient, as ``(ambient, rows)``."""
    t = draw(terms)
    names = tuple(sorted(free_vars(t)))
    batches = []
    for _ in range(draw(st.integers(1, 3))):
        n = draw(st.integers(1, max_ambient))
        batches.append((n, [
            tuple(random_subspace(n, draw(st.integers(0, n)), draw(st.integers(0, 10**6)))
                  for _ in names)
            for _ in range(draw(st.integers(1, 5)))
        ]))
    return t, names, batches



class TestParsing:
    def test_precedence(self):
        assert parse_term("p ^ q v r") == Join(Meet(p, q), r)
        assert parse_term("p v q ^ r") == Join(p, Meet(q, r))
        assert parse_term("~p ^ q") == Meet(Not(p), q)
        assert parse_term("~(p v q)") == Not(Join(p, q))

    def test_left_associative(self):
        assert parse_term("p ^ q ^ r") == Meet(Meet(p, q), r)
        assert parse_term("p ^ (q ^ r)") == Meet(p, Meet(q, r))

    def test_constants(self):
        assert parse_term("0") is BOT
        assert parse_term("1") is TOP
        assert parse_term("p ^ 1") == Meet(p, TOP)

    def test_join_is_reserved(self):
        with pytest.raises(ParseError):
            parse_term("v")
        with pytest.raises(ParseError):
            parse_term("p ^ v")
        # but identifiers may merely start with v
        assert parse_term("vx") == Var("vx")

    def test_quantifier_words_reserved(self):
        with pytest.raises(ParseError):
            parse_term("forall")

    @pytest.mark.parametrize(
        "src,pos",
        [
            ("p ^", 3), ("(p", 2), ("p q", 2), ("2", 0), ("p ^ ) q", 4), ("", 0),
            # identifiers are ASCII: letters, digits and _, starting with a letter
            ("α", 0), ("p v β", 4), ("x²", 1), ("x٣", 1), ("_p", 0),
        ],
    )
    def test_error_positions(self, src, pos):
        with pytest.raises(ParseError) as exc:
            parse_term(src)
        assert exc.value.pos == pos

    def test_every_unicode_space_separates_tokens(self):
        # whitespace is exactly what str.isspace() accepts, ASCII or not
        spaces = [chr(c) for c in range(sys.maxunicode + 1) if chr(c).isspace()]
        assert len(spaces) > 6
        for c in spaces:
            assert parse_term(f"p{c}v{c}q") == Join(p, q), hex(ord(c))

    def test_equation(self):
        eq = parse_equation("p ^ q = q ^ p")
        assert eq == Equation(Meet(p, q), Meet(q, p))
        assert eq.free_vars == ("p", "q")
        with pytest.raises(ParseError):
            parse_equation("p ^ q")

    @given(terms)
    def test_print_parse_round_trip(self, t):
        assert parse_term(format_term(t)) == t

    @given(terms)
    def test_print_matches_recursive_reference(self, t):
        assert format_term(t) == reference_format(t)

    def test_shared_subterms_print_in_full(self):
        # each level uses the one below twice, once in parentheses
        t = p
        for i in range(10):
            t = Meet(Join(t, q), Not(t)) if i % 2 else Join(Meet(t, r), t)
        text = format_term(t)
        assert text == reference_format(t)
        assert parse_term(text) is t


def reference_format(t, prec=1):
    """Minimal-parenthesis printing, recursively, as the printer's spec."""
    level = {"join": 1, "meet": 2}.get(t.op, 3)
    if t.op == "var":
        text = t.a
    elif t.op == "not":
        text = "~" + reference_format(t.a, 3)
    elif t.op == "meet":
        text = f"{reference_format(t.a, 2)} ^ {reference_format(t.b, 3)}"
    elif t.op == "join":
        text = f"{reference_format(t.a, 1)} v {reference_format(t.b, 2)}"
    else:
        text = "1" if t.op == "top" else "0"
    return f"({text})" if level < prec else text


class TestStructure:
    def test_free_vars(self):
        assert free_vars(parse_term("p ^ (q v ~p) ^ 1")) == {"p", "q"}
        assert free_vars(TOP) == frozenset()

    def test_subterms_postorder_distinct(self):
        t = parse_term("(p ^ q) v (p ^ q)")
        assert Program([t]).code == [
            ("var", "p", None), ("var", "q", None), ("meet", 0, 1), ("join", 2, 2),
        ]

    def test_nnf_examples(self):
        assert to_nnf(parse_term("~(p v q)")) == parse_term("~p ^ ~q")
        assert to_nnf(parse_term("~~p")) == p
        assert to_nnf(parse_term("~(p ^ ~q)")) == parse_term("~p v q")
        assert to_nnf(parse_term("~1")) is BOT
        assert to_nnf(parse_term("~0")) is TOP

    @given(terms)
    def test_nnf_shape(self, t):
        n = to_nnf(t)
        code = Program([n]).code
        for op, a, _ in code:
            if op == "not":
                assert code[a][0] == "var"
        # idempotent up to structural equality; equal duplicate subtrees may
        # be canonicalised into one shared object
        assert to_nnf(n) == n

    @given(term_with_assignment())
    @settings(max_examples=80)
    def test_nnf_preserves_value(self, ta):
        t, a = ta
        assert evaluate(to_nnf(t), a) == evaluate(t, a)

    def test_restrict_example(self):
        bound = Var("a")
        assert restrict(parse_term("p v ~q"), bound) == parse_term(
            "(p ^ a) v (~q ^ a)"
        )

    def test_restrict_keeps_constants(self):
        bound = Var("a")
        assert restrict(TOP, bound) is TOP
        assert restrict(parse_term("p ^ 0"), bound) == parse_term("(p ^ a) ^ 0")

    def test_restrict_normalises_first(self):
        bound = Var("a")
        assert restrict(parse_term("~(p v q)"), bound) == parse_term(
            "(~p ^ a) ^ (~q ^ a)"
        )

    @given(term_with_assignment(strategy=constant_free_terms))
    @settings(max_examples=60)
    def test_restrict_stays_below_bound(self, ta):
        # constants are deliberately not relativised, so a bare 1 could
        # escape the bound; the containment law is for literal terms
        t, a = ta
        bound = random_subspace(a.ambient, max(1, a.ambient - 1), seed=5)
        a2 = Assignment(a.ambient, {**a.bindings, "zz": bound})
        assert leq(evaluate(restrict(t, Var("zz")), a2), bound)

    def test_substitute_is_simultaneous(self):
        t = parse_term("p ^ q")
        assert substitute(t, {"p": q, "q": p}) == parse_term("q ^ p")

    def test_substitute_reuses_untouched(self):
        t = parse_term("p ^ q")
        assert substitute(t, {"z": TOP}) is t

    def test_substitute_keeps_the_constant_objects(self):
        assert substitute(parse_term("p v 1"), {"p": Var("q")}).b is TOP
        assert substitute(parse_term("p v 0"), {"p": Var("q")}).b is BOT


class TestEvaluation:
    def setup_method(self):
        self.e1 = Subspace.line(2, [1, 0])
        self.e2 = Subspace.line(2, [0, 1])
        self.diag = Subspace.line(2, [1, 1])

    def test_complement_and_meet(self):
        a = Assignment(2, {"p": self.e1, "q": self.diag})
        assert evaluate(parse_term("~p"), a) == self.e2
        assert evaluate(parse_term("p ^ q"), a).is_zero()
        assert evaluate(parse_term("p v q"), a).dim == 2

    def test_constants(self):
        a = Assignment(2, {})
        assert evaluate(TOP, a).dim == 2
        assert evaluate(BOT, a).is_zero()

    def test_unbound_variable_named(self):
        with pytest.raises(UnboundVariableError, match="'q'"):
            evaluate(q, Assignment(2, {"p": self.e1}))

    def test_unbound_variable_named_in_a_batch(self):
        # a batch of two or more builds each var slot as a column
        rows = [(self.e1, self.e2), (self.e2, self.e1)]
        assert Evaluator(rows, ("p", "q"), 2).eval(parse_term("p v q")) == [Subspace.full(2)] * 2
        with pytest.raises(UnboundVariableError, match="'q'") as info:
            Evaluator([(self.e1,), (self.diag,)], ("p",), 2).eval(parse_term("p v q"))
        assert info.value.name == "q"

    def test_assignment_rejects_mixed_ambients(self):
        with pytest.raises(AmbientMismatch):
            Assignment(2, {"p": Subspace.zero(3)})
        with pytest.raises(AmbientMismatch, match="'q' lives in ambient 3"):
            Assignment(2, {"p": self.e1, "q": Subspace.zero(3)})

    def test_assignment_keeps_its_own_copy(self):
        given = {"p": self.e1}
        a = Assignment(2, given)
        given["p"] = self.e2
        given["q"] = self.diag
        assert a.bindings == {"p": self.e1}
        assert a.bindings is not given

    def test_holds(self):
        a = Assignment(2, {"p": self.e1, "q": self.e2, "r": self.diag})
        assert holds(parse_equation("p ^ q = q ^ p"), a)
        # three distinct lines break distributivity
        distrib = parse_equation("r v (p ^ q) = (r v p) ^ (r v q)")
        assert not holds(distrib, a)

    def test_injected_meet_route(self):
        a = Assignment(2, {"p": self.e1, "q": self.diag})
        t = parse_term("p ^ q v ~p")
        assert _one_row(a, meet_via_demorgan).eval(t)[0] == evaluate(t, a)

    def test_shared_evaluator_memo(self):
        ev = Evaluator([(self.e1, self.e2)], ("p", "q"), 2)
        (v1,), (v2,) = ev.eval(parse_term("p v q")), ev.eval(parse_term("(p v q) ^ 1"))
        assert v1 == v2 and v1.dim == v1.ambient

    @given(term_with_assignment())
    @settings(max_examples=60)
    def test_meet_routes_agree_on_random_terms(self, ta):
        t, a = ta
        assert evaluate(t, a) == _one_row(a, meet_via_demorgan).eval(t)[0]


def reference_eval(t, a, meet_op):
    """Direct recursive evaluation, kept independent of Program."""
    if t.op == "var":
        return a[t.a]
    if t.op == "top":
        return Subspace.full(a.ambient)
    if t.op == "bot":
        return Subspace.zero(a.ambient)
    if t.op == "not":
        return complement(reference_eval(t.a, a, meet_op))
    left = reference_eval(t.a, a, meet_op)
    right = reference_eval(t.b, a, meet_op)
    return meet_op(left, right) if t.op == "meet" else join(left, right)


def subterms(t):
    """Every node of `t`, by a direct recursive walk."""
    yield t
    if t.op != "var":
        for child in (t.a, t.b):
            if child is not None:
                yield from subterms(child)


class TestProgram:
    @given(term_with_assignment(), st.sampled_from([meet, meet_via_demorgan]))
    @settings(max_examples=80)
    def test_evaluator_matches_recursive_reference(self, ta, meet_op):
        t, a = ta
        expected = reference_eval(t, a, meet_op)
        assert _one_row(a, meet_op).eval(t) == [expected]
        # a program shared by two roots evaluates each to its own value
        shared = Program([to_nnf(t), t])
        assert _one_row(a, meet_op, shared).eval(t) == [expected]

    @given(term_with_batches(), st.sampled_from([meet, meet_via_demorgan]))
    @settings(max_examples=60)
    def test_batch_evaluates_each_assignment_on_its_own(self, tb, meet_op):
        # one value per row, in order; 0 and 1 in each batch's ambient
        t, names, batches = tb
        for n, rows in batches:
            batch = [Assignment(n, dict(zip(names, row))) for row in rows]
            expected = [reference_eval(t, a, meet_op) for a in batch]
            assert Evaluator(rows, names, n, meet_op).eval(t) == expected
            assert [_one_row(a, meet_op).eval(t)[0] for a in batch] == expected

    def test_constants_take_each_assignments_ambient(self):
        # one evaluator per ambient, a batch of several rows and of one
        for n in (3, 1, 2):
            for size in (3, 1):
                ev = Evaluator([()] * size, (), n)
                assert ev.eval(TOP) == [Subspace.full(n)] * size
                assert ev.eval(parse_term("~1 v 0")) == [Subspace.zero(n)] * size

    @given(terms)
    @settings(max_examples=80)
    def test_term_fields_are_program_slots(self, t):
        # each node's (op, a, b) is its slot with child terms for child slots
        program = Program([t])
        size = len(program.code)
        for n in subterms(t):
            op, a, b = program.code[program.slot(n)]
            assert op == n.op
            if n.op == "var":
                assert (a, b) == (n.a, None)
            else:
                assert a == (None if n.a is None else program.slot(n.a))
                assert b == (None if n.b is None else program.slot(n.b))
        assert len(program.code) == size  # every subterm already had its slot

    def test_roots_share_slots(self):
        lhs, rhs = parse_term("(p ^ q) v r"), parse_term("r v (p ^ q)")
        program = Program([lhs, rhs])
        assert program.slot(parse_term("p ^ q")) == 2
        assert len(program.code) == 6  # p, q, p ^ q, r and the two joins
        assert program.slot(rhs) == 5

    def test_evaluator_runs_each_slot_once(self):
        calls = []

        def counting_meet(x, y):
            calls.append((x, y))
            return meet(x, y)

        ev = Evaluator([(Subspace.line(2, [1, 0]), Subspace.line(2, [1, 1]))], ("p", "q"), 2,
                       counting_meet)
        ev.eval(parse_term("(p ^ q) v (p ^ q)"))
        ev.eval(parse_term("~(p ^ q)"))
        assert len(calls) == 1


def alternating_chain(nodes):
    """``~(... ~(~(p v q) v q) ...)``, `nodes` joins and complements."""
    t = p
    for i in range(nodes):
        t = Not(t) if i % 2 else Join(t, q)
    return t


class TestDeepTerms:
    """Chains and ~ runs of any length; nesting beyond MAX_NESTING is refused."""

    def test_long_chains(self):
        chain = parse_term(" v ".join(["p"] * 3000))
        again = parse_term(" v ".join(["p"] * 3000))
        assert chain is again
        assert chain != parse_term(" v ".join(["p"] * 2999) + " v q")
        assert format_term(chain) == " v ".join(["p"] * 3000)
        assert free_vars(chain) == {"p"}
        assert substitute(chain, {"p": q}) == parse_term(" v ".join(["q"] * 3000))
        a = Assignment(2, {"p": Subspace.line(2, [1, 0])})
        assert evaluate(chain, a) == a["p"]

    def test_long_negation_run(self):
        t = parse_term("~" * 3001 + "p")
        assert format_term(t) == "~" * 3001 + "p"
        a = Assignment(2, {"p": Subspace.line(2, [1, 0])})
        assert evaluate(t, a) == Subspace.line(2, [0, 1])

    def test_deep_nnf_and_restrict(self):
        # ~(p ^ ~(q ^ ~(p ^ ...))), 3,000 negations deep; too deep for the
        # parser, so built directly
        t = p
        for i in range(3000):
            t = Not(Meet(q if i % 2 else p, t))
        n = to_nnf(t)
        code = Program([n]).code
        assert all(code[a][0] == "var" for op, a, _ in code if op == "not")
        a = Assignment(2, {"p": Subspace.line(2, [1, 0]), "q": Subspace.line(2, [1, 1])})
        assert evaluate(n, a) == evaluate(t, a)
        r = restrict(t, Var("b"))
        assert free_vars(r) == {"p", "q", "b"}
        assert format_term(r) == format_term(restrict(n, Var("b")))

    def test_printing_memory_is_linear_in_the_text(self):
        # ~(... ~(p v q) v q ...), 8,000 nodes; keeping the text of every
        # slot, each containing its child's, peaked at about 110 MB
        t = alternating_chain(8000)
        tracemalloc.start()
        try:
            text = format_term(t)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert text == "~(" * 4000 + "p v q" + ") v q" * 3999 + ")"
        assert peak < 2_000_000

    def test_repr_of_a_very_long_chain(self):
        # pytest builds this repr to explain a failed assertion naming the term
        text = repr(alternating_chain(100_000))
        assert len(text) == len("<term >") + 3.5 * 100_000 + 1
        assert text.startswith("<term ~(~(") and text.endswith(") v q)>")

    def test_nesting_cap(self):
        ok = "(" * MAX_NESTING + "p" + ")" * MAX_NESTING
        assert parse_term(ok) == p
        deep = "(" + ok + ")"
        with pytest.raises(ParseError, match="nesting deeper") as exc:
            parse_term(deep)
        assert exc.value.pos == MAX_NESTING
        with pytest.raises(ParseError, match="nesting deeper"):
            parse_term("(" * 1500 + "p" + ")" * 1500)


class TestInterning:
    """One live Term per (op, a, b): equality is identity, and the table
    keeps no term alive."""

    @given(terms)
    def test_rebuilt_terms_are_the_same_object(self, t):
        assert parse_term(format_term(t)) is t
        assert substitute(t, {}) is t

    def test_copies_are_the_term(self):
        t = parse_term("~(p ^ q) v 1")
        assert copy.copy(t) is t
        assert copy.deepcopy(t) is t
        assert pickle.loads(pickle.dumps(t)) is t

    def test_dropped_term_is_freed(self):
        t = parse_term("~(p ^ unused_name_1) v unused_name_2")
        ref = weakref.ref(t)
        del t
        gc.collect()
        assert ref() is None

    def test_long_alternating_chain_drops(self):
        # 100,000 nodes; freeing it must not recurse.  No assertion shows
        # the chain: its text is too long.
        t = alternating_chain(100_000)
        a = Assignment(2, {"p": Subspace.line(2, [1, 0]), "q": Subspace.line(2, [1, 1])})
        value = evaluate(t, a)  # the values cycle 1, 0, q, ~q from the first join
        assert value == complement(a["q"])
        ref = weakref.ref(t)
        del t
        gc.collect()
        alive = ref() is not None
        assert not alive

    def test_parsed_equations_are_equal(self):
        first = parse_equation("p ^ (q v r) = (p ^ q) v (p ^ r)")
        second = parse_equation("p ^ (q v r) = (p ^ q) v (p ^ r)")
        assert first == second and hash(first) == hash(second)
