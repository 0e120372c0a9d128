"""Unit and property tests for the affine algebra."""

import pytest
from hypothesis import given, strategies as st

from repro.ir.affine import (
    AffineExpr,
    MaxExpr,
    MinExpr,
    aff,
    bound_max,
    bound_min,
    const,
    simplify_bound,
    var,
)


names = st.sampled_from(["i", "j", "k", "ii", "jj", "M", "N", "K"])
coeffs = st.integers(min_value=-8, max_value=8)


@st.composite
def affine_exprs(draw):
    terms = draw(st.dictionaries(names, coeffs, max_size=4))
    offset = draw(coeffs)
    return AffineExpr(terms, offset)


@st.composite
def envs(draw):
    return {n: draw(st.integers(min_value=-20, max_value=20)) for n in
            ["i", "j", "k", "ii", "jj", "M", "N", "K"]}


class TestConstruction:
    def test_constant(self):
        e = const(7)
        assert e.is_constant and e.constant_value == 7

    def test_variable(self):
        e = var("i")
        assert not e.is_constant
        assert e.is_single_var() and e.single_var() == "i"

    def test_zero_coefficients_dropped(self):
        e = AffineExpr({"i": 0, "j": 2}, 1)
        assert e.free_vars() == frozenset({"j"})

    def test_coerce_int_str(self):
        assert aff(3) == const(3)
        assert aff("k") == var("k")
        assert aff(var("k")) is not None

    def test_coerce_rejects_bool_and_float(self):
        with pytest.raises(TypeError):
            aff(True)
        with pytest.raises(TypeError):
            aff(1.5)  # type: ignore[arg-type]

    def test_non_int_coefficient_rejected(self):
        with pytest.raises(TypeError):
            AffineExpr({"i": 1.5}, 0)  # type: ignore[dict-item]

    def test_immutable(self):
        e = var("i")
        with pytest.raises(AttributeError):
            e.offset = 3  # type: ignore[misc]


class TestAlgebra:
    def test_add_sub(self):
        e = var("i") + 2 * var("j") - 3
        assert e.coeff("i") == 1 and e.coeff("j") == 2 and e.offset == -3

    def test_add_cancels(self):
        e = var("i") - var("i")
        assert e.is_constant and e.constant_value == 0

    def test_scale(self):
        e = (var("i") + 1) * 4
        assert e.coeff("i") == 4 and e.offset == 4

    def test_scale_by_float_rejected(self):
        with pytest.raises(TypeError):
            var("i") * 1.5  # type: ignore[operator]

    def test_rsub(self):
        e = 5 - var("i")
        assert e.coeff("i") == -1 and e.offset == 5

    @given(affine_exprs(), affine_exprs(), envs())
    def test_add_matches_pointwise(self, a, b, env):
        assert (a + b).evaluate(env) == a.evaluate(env) + b.evaluate(env)

    @given(affine_exprs(), affine_exprs(), envs())
    def test_sub_matches_pointwise(self, a, b, env):
        assert (a - b).evaluate(env) == a.evaluate(env) - b.evaluate(env)

    @given(affine_exprs(), coeffs, envs())
    def test_scale_matches_pointwise(self, a, c, env):
        assert (a * c).evaluate(env) == a.evaluate(env) * c

    @given(affine_exprs())
    def test_neg_involution(self, a):
        assert -(-a) == a

    @given(affine_exprs(), affine_exprs())
    def test_add_commutes(self, a, b):
        assert a + b == b + a


class TestSubstitution:
    def test_substitute_affine(self):
        e = var("i") + var("k")
        out = e.substitute({"i": var("ii") + 4})
        assert out == var("ii") + var("k") + 4

    @given(affine_exprs(), envs())
    def test_substitution_consistent_with_eval(self, a, env):
        sub = a.substitute({"i": var("j") + 2})
        env2 = dict(env)
        env2["i"] = env["j"] + 2
        assert sub.evaluate(env) == a.evaluate(env2)

    def test_evaluate_unbound_raises(self):
        with pytest.raises(KeyError):
            var("i").evaluate({})


class TestMinMax:
    def test_min_eval(self):
        b = bound_min(var("M"), var("i") + 16)
        assert b.evaluate({"M": 10, "i": 0}) == 10
        assert b.evaluate({"M": 100, "i": 0}) == 16

    def test_max_eval(self):
        b = bound_max(0, var("i") - 5)
        assert b.evaluate({"i": 2}) == 0
        assert b.evaluate({"i": 9}) == 4

    def test_single_operand_degrades(self):
        assert bound_min(var("M")) == var("M")

    def test_duplicate_operands_collapse(self):
        assert simplify_bound(MinExpr([var("M"), var("M")])) == var("M")

    def test_substitute_through_min(self):
        b = bound_min(var("M"), var("ii") + 16)
        out = b.substitute({"ii": const(4)})
        assert isinstance(out, MinExpr)
        assert out.evaluate({"M": 100}) == 20

    def test_needs_two_operands(self):
        with pytest.raises(ValueError):
            MinExpr([var("M")])

    def test_free_vars(self):
        b = bound_min(var("M"), var("i") + 1)
        assert b.free_vars() == frozenset({"M", "i"})

    @given(affine_exprs(), affine_exprs(), envs())
    def test_min_is_pointwise_min(self, a, b, env):
        m = MinExpr([a, b])
        assert m.evaluate(env) == min(a.evaluate(env), b.evaluate(env))

    @given(affine_exprs(), affine_exprs(), envs())
    def test_max_is_pointwise_max(self, a, b, env):
        m = MaxExpr([a, b])
        assert m.evaluate(env) == max(a.evaluate(env), b.evaluate(env))


class TestPrinting:
    def test_str_simple(self):
        assert str(var("i") + 1) == "i + 1"

    def test_str_negative(self):
        assert str(var("i") - var("j")) == "i - j"

    def test_str_zero(self):
        assert str(const(0)) == "0"

    def test_str_min(self):
        assert str(bound_min(var("M"), var("i"))) in ("min(M, i)", "min(i, M)")
