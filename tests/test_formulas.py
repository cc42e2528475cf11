"""Formula generators: defect terms, iterates, witnesses, law catalogue."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qlattice.formulas import (
    alpha,
    alpha_at,
    alpha_iter,
    beta,
    beta_witness,
    counterexample_catalog,
    gamma_distinct_lines,
    named_equations,
    separation_equation,
    separation_witness,
    transport,
)
from qlattice.subspaces import Subspace, complement, leq, meet, random_subspace
from qlattice.terms import (
    Assignment,
    Equation,
    Var,
    _one_row,
    evaluate,
    free_vars,
    holds,
    parse_equation,
    parse_term,
    rename,
)


def line(*coeffs):
    return Subspace.line(2, list(coeffs))


@st.composite
def triples(draw, ambients=(2, 3, 4)):
    n = draw(st.sampled_from(ambients))
    bindings = {
        name: random_subspace(n, draw(st.integers(0, n)), draw(st.integers(0, 10**6)))
        for name in ("p", "q", "r")
    }
    return Assignment(n, bindings)


class TestAlpha:
    def test_shape(self):
        assert free_vars(alpha()) == {"p", "q", "r"}
        a = parse_term("p v q ^ r")
        b = parse_term("(p v q) ^ (p v r)")
        assert alpha() == parse_term(f"(({a}) v ({b})) ^ (~({a}) v ~({b}))")

    def test_collapses_on_equal_arguments(self):
        s = random_subspace(3, 2, seed=3)
        a = Assignment(3, {"p": s, "q": s, "r": s})
        assert evaluate(alpha(), a).is_zero()

    def test_three_distinct_lines_give_complement(self):
        a = Assignment(2, {"p": line(1, 0), "q": line(0, 1), "r": line(1, 1)})
        assert evaluate(alpha(), a) == complement(line(1, 0))

    @given(triples())
    @settings(max_examples=60)
    def test_below_complement_of_p(self, a):
        assert leq(evaluate(alpha(), a), complement(a.bindings["p"]))

    @given(triples())
    @settings(max_examples=60)
    def test_halving_bound(self, a):
        assert 2 * evaluate(alpha(), a).dim <= a.ambient

    @given(triples())
    @settings(max_examples=40)
    def test_first_join_below_second(self, a):
        ev = _one_row(a)
        (va,), (vb,) = ev.eval(parse_term("p v q ^ r")), ev.eval(parse_term("(p v q) ^ (p v r)"))
        assert leq(va, vb)


class TestBeta:
    def test_witness_chain_frozen(self):
        w = beta_witness()
        ev = _one_row(w)
        (inner,) = ev.eval(alpha())
        assert inner == Subspace.line(4, [0, 0, 1, 0])
        (second,) = ev.eval(parse_term("~p"))
        assert meet(complement(inner), second) == Subspace.line(4, [0, 0, 0, 1])
        assert ev.eval(beta()) == [Subspace.line(4, [0, 0, 0, 1])]

    def test_zero_on_sampled_plane_assignments(self):
        for seed in range(40):
            a = Assignment(
                2,
                {
                    name: random_subspace(2, (seed + k) % 3, seed * 7 + k)
                    for k, name in enumerate(("p", "q", "r", "s"))
                },
            )
            assert evaluate(beta(), a).is_zero()

    def test_free_vars(self):
        assert free_vars(beta()) == {"p", "q", "r", "s"}


class TestAlphaIter:
    def test_level_one_is_alpha_renamed(self):
        assert alpha_iter(1) == rename(
            alpha(), {"p": "p1", "q": "q1", "r": "r1"}
        )

    def test_level_counts(self):
        assert free_vars(alpha_iter(3)) == {
            f"{x}{k}" for x in "pqr" for k in (1, 2, 3)
        }
        with pytest.raises(ValueError):
            alpha_iter(0)

    def test_quarter_bound_in_ambient_4(self):
        # two nested halvings leave at most one dimension in ambient 4
        for seed in range(15):
            bindings = {
                f"{x}{k}": random_subspace(4, (seed + ord(x) + k) % 5, seed * 13 + k + ord(x))
                for x in "pqr"
                for k in (1, 2)
            }
            val = evaluate(alpha_iter(2), Assignment(4, bindings))
            assert 4 * val.dim <= 4


class TestSeparation:
    @pytest.mark.parametrize("i", [0, 1, 2])
    def test_witness_falsifies_with_dimension_one(self, i):
        w = separation_witness(i)
        assert w.ambient == 2 ** (i + 1)
        val = evaluate(alpha_iter(i + 1), w)
        assert val.dim == 1
        assert not holds(separation_equation(i), w)

    def test_base_witness_is_three_distinct_lines(self):
        w = separation_witness(0)
        assert w.bindings["p1"] == line(1, 0)
        assert w.bindings["q1"] == line(0, 1)
        assert w.bindings["r1"] == line(1, 1)

    @pytest.mark.parametrize("i", [0, 1, 2])
    def test_witness_levels_are_disjoint_half_splits(self, i):
        w = separation_witness(i)
        n = w.ambient
        current = Subspace.full(n)
        for m in range(1, i + 2):
            p, q, r = (w.bindings[f"{x}{m}"] for x in "pqr")
            for s in (p, q, r):
                assert leq(s, current)
                assert s.dim == current.dim // 2
            assert meet(p, q).is_zero()
            assert meet(p, r).is_zero()
            assert meet(q, r).is_zero()
            current = meet(complement(p), current)
        assert current.dim == 1

    def test_equation_holds_in_smaller_ambients(self):
        # i = 1 cannot be falsified in ambient 2: spot-check random samples
        eq = separation_equation(1)
        for seed in range(25):
            bindings = {
                name: random_subspace(2, (seed + j) % 3, seed * 31 + j)
                for j, name in enumerate(eq.free_vars)
            }
            assert holds(eq, Assignment(2, bindings))


class TestGamma:
    def test_k3_is_alpha(self):
        assert gamma_distinct_lines(3) == alpha()

    def test_k4_shape(self):
        g = gamma_distinct_lines(4)
        assert free_vars(g) == {"p", "q", "r", "s"}
        expected = alpha_at(
            alpha_at(alpha_at(alpha(), Var("p"), Var("s")), Var("q"), Var("s")),
            Var("r"),
            Var("s"),
        )
        assert g == expected

    def test_nonzero_at_four_distinct_lines(self):
        a = Assignment(
            2,
            {"p": line(1, 0), "q": line(0, 1), "r": line(1, 1), "s": line(1, -1)},
        )
        assert evaluate(gamma_distinct_lines(4), a) == line(1, 0)

    def test_zero_when_two_arguments_coincide(self):
        a = Assignment(
            2,
            {"p": line(1, 0), "q": line(0, 1), "r": line(1, 1), "s": line(1, 0)},
        )
        assert evaluate(gamma_distinct_lines(4), a).is_zero()

    def test_k5_extends_pattern(self):
        g5 = gamma_distinct_lines(5)
        assert free_vars(g5) == {"p", "q", "r", "s", "t"}
        g = gamma_distinct_lines(4)
        for earlier in ("p", "q", "r", "s"):
            g = alpha_at(g, Var(earlier), Var("t"))
        assert g5 == g

    def test_too_few_variables(self):
        with pytest.raises(ValueError):
            gamma_distinct_lines(2)


class TestLaws:
    @given(triples())
    @settings(max_examples=50)
    def test_oml_modular_always_hold(self, a):
        assert holds(named_equations()["oml"], a)
        assert holds(named_equations()["modular"], a)

    def test_distributivity_fails_at_catalog_witness(self):
        cx = counterexample_catalog()[0]
        assert cx.equation == named_equations()["distributive"]
        assert not holds(cx.equation, cx.assignment)

    def test_equality_characterization_both_directions(self):
        s = random_subspace(3, 2, seed=9)
        t = random_subspace(3, 1, seed=10)
        equal = Assignment(3, {"p": s, "q": s})
        unequal = Assignment(3, {"p": s, "q": t})
        for eq in (named_equations()["eq-char"], named_equations()["eq-char-dual"]):
            assert holds(eq, equal)
            assert not holds(eq, unequal)

    def test_catalogue_names(self):
        names = list(named_equations())
        assert names[:3] == ["oml", "modular", "distributive"]
        assert "eq-char" in names and "eq-char-dual" in names
        assert "separation-0" in names

    def test_catalogue_is_shared_and_read_only(self):
        first = named_equations()
        assert list(first) == [
            "oml", "modular", "distributive", "demorgan-meet", "demorgan-join",
            "involution", "complement-meet", "eq-char", "eq-char-dual",
            "alpha-zero", "beta-zero", "separation-0", "separation-1", "gamma4-zero",
        ]
        assert first["oml"] == parse_equation("p ^ (~p v (p ^ q)) = p ^ q")
        assert first["modular"] == parse_equation("(p ^ r) v (q ^ r) = ((p ^ r) v q) ^ r")
        assert first["eq-char-dual"] == parse_equation("(~p ^ ~q) v (p ^ q) = 1")
        assert first["separation-1"] == separation_equation(1)
        assert first["gamma4-zero"].lhs is gamma_distinct_lines(4)
        assert first["demorgan-meet"] == Equation(
            parse_term("~(p ^ q)"), parse_term("~p v ~q")
        )
        assert named_equations() is first
        with pytest.raises(TypeError):
            first["oml"] = first["modular"]
        with pytest.raises(TypeError):
            del first["modular"]


class TestTransport:
    @pytest.mark.parametrize("extra", [1, 2])
    def test_catalog_counterexamples_survive(self, extra):
        for cx in counterexample_catalog():
            moved = transport(cx.assignment, extra)
            assert moved.ambient == cx.assignment.ambient + extra
            assert not holds(cx.equation, moved), cx.label

    def test_transport_preserves_meet_and_join(self):
        # the padded map commutes with meet and join; the global complement
        # of a padded subspace drops the pad instead, so no law is asserted
        # for negation here
        from qlattice.subspaces import join

        p = random_subspace(3, 2, seed=4)
        q = random_subspace(3, 1, seed=5)
        a = transport(Assignment(3, {"p": p, "q": q}), 2)
        tp, tq = a.bindings["p"], a.bindings["q"]

        def move(s):
            return transport(Assignment(3, {"x": s}), 2).bindings["x"]

        assert meet(tp, tq) == move(meet(p, q))
        assert join(tp, tq) == move(join(p, q))

    def test_zero_extra_is_identity(self):
        a = beta_witness()
        assert transport(a, 0) is a
