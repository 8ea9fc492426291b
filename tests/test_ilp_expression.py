"""Unit tests for the linear-expression layer."""

import math

import pytest

from repro.ilp.expression import LinExpr, Variable, lin_sum


class TestVariable:
    def test_binary_bounds_are_clamped(self):
        var = Variable("b", low=-5, up=7, kind="binary")
        assert var.low == 0
        assert var.up == 1

    def test_invalid_kind_rejected(self):
        with pytest.raises(ValueError):
            Variable("x", kind="boolean")

    def test_invalid_bounds_rejected(self):
        with pytest.raises(ValueError):
            Variable("x", low=5, up=1)

    def test_solution_requires_solve(self):
        var = Variable("x")
        with pytest.raises(RuntimeError):
            _ = var.solution

    def test_solution_rounds_integers(self):
        var = Variable("x", kind="integer")
        var.value = 2.9999997
        assert var.solution == 3.0

    def test_as_bool(self):
        var = Variable("b", kind="binary")
        var.value = 1.0
        assert var.as_bool() is True
        var.value = 0.0
        assert var.as_bool() is False


class TestLinExpr:
    def test_addition_of_variables(self):
        x, y = Variable("x"), Variable("y")
        expr = x + y + 3
        assert expr.terms[x] == 1
        assert expr.terms[y] == 1
        assert expr.constant == 3

    def test_subtraction_cancels_terms(self):
        x = Variable("x")
        expr = (x + 5) - x
        assert not expr.terms
        assert expr.constant == 5

    def test_scalar_multiplication(self):
        x = Variable("x")
        expr = 3 * (2 * x + 1)
        assert expr.terms[x] == 6
        assert expr.constant == 3

    def test_negation(self):
        x = Variable("x")
        expr = -(x + 2)
        assert expr.terms[x] == -1
        assert expr.constant == -2

    def test_rsub(self):
        x = Variable("x")
        expr = 10 - x
        assert expr.terms[x] == -1
        assert expr.constant == 10

    def test_variable_product_rejected(self):
        x, y = Variable("x"), Variable("y")
        with pytest.raises(TypeError):
            _ = (x + 1) * y

    def test_evaluate_with_explicit_values(self):
        x, y = Variable("x"), Variable("y")
        expr = 2 * x + 3 * y + 1
        assert expr.evaluate({x: 1, y: 2}) == 9

    def test_evaluate_uses_solution_values(self):
        x = Variable("x")
        x.value = 4
        assert (2 * x).evaluate() == 8

    def test_evaluate_without_values_raises(self):
        x = Variable("x")
        with pytest.raises(RuntimeError):
            (x + 1).evaluate()

    def test_coerce_number(self):
        expr = LinExpr.coerce(7)
        assert not expr.terms
        assert expr.constant == 7

    def test_coerce_rejects_strings(self):
        with pytest.raises(TypeError):
            LinExpr.coerce("hello")

    def test_repr_is_readable(self):
        x = Variable("x")
        text = repr(2 * x + 1)
        assert "x" in text


class TestLinSum:
    def test_empty_sum(self):
        expr = lin_sum([])
        assert not expr.terms
        assert expr.constant == 0

    def test_mixed_sum(self):
        x, y = Variable("x"), Variable("y")
        expr = lin_sum([x, 2 * y, 5])
        assert expr.terms[x] == 1
        assert expr.terms[y] == 2
        assert expr.constant == 5

    def test_sum_merges_duplicate_variables(self):
        x = Variable("x")
        expr = lin_sum([x, x, x])
        assert expr.terms[x] == 3

    def test_cancellation_removes_term(self):
        x = Variable("x")
        expr = lin_sum([x, -1 * x])
        assert x not in expr.terms
