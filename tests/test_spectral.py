"""Numeric spectrum vs exact factor table."""

import ast
import math
import operator

import numpy as np
import pytest

from buckysob import closedform, spectral
from buckysob.polynomials import IntPolynomial
from buckysob.ratmat import RationalMatrix


@pytest.fixture(scope="module")
def num_spec(lap):
    return spectral.numeric_eigenvalues(lap)


@pytest.fixture(scope="module")
def table(p_char):
    return spectral.build_spectral_table(p_char)


def test_diagonal_matrix():
    m = RationalMatrix([[1, 0, 0], [0, 2, 0], [0, 0, 3]])
    s = spectral.numeric_eigenvalues(m)
    assert list(s.values) == [1.0, 2.0, 3.0]
    assert s.residual < 1e-12


def test_rejects_nonsymmetric():
    with pytest.raises(spectral.NonSymmetric):
        spectral.numeric_eigenvalues(RationalMatrix([[0, 1], [0, 0]]))


def test_buckyball_extreme_eigenvalues(num_spec):
    assert abs(num_spec.values[0]) <= 1e-10
    assert abs(num_spec.values[-1] - (9 + math.sqrt(5)) / 2) <= 1e-9


def test_residual_and_range(num_spec):
    assert num_spec.residual <= 1e-10
    assert all(x >= -1e-12 for x in num_spec.values)
    assert all(x < 6.0 for x in num_spec.values)  # not bipartite


def test_multiplicity_nine_at_two(num_spec):
    near_two = [x for x in num_spec.values if abs(x - 2.0) <= 1e-8]
    assert len(near_two) == 9


def test_table_multiplicities(table):
    assert tuple(table.multiplicities()) == closedform.TABLE_MULTIPLICITIES
    assert sum(table.multiplicities()) == 60


def test_table_has_sqrt13_row(table):
    root = (5 - math.sqrt(13)) / 2
    entry = min(table.entries, key=lambda e: abs(e.numeric - root))
    assert abs(entry.numeric - root) <= 1e-11
    assert entry.multiplicity == 5
    assert "13" in entry.closed_form_hint


_OPS = {ast.Add: operator.add, ast.Sub: operator.sub,
        ast.Mult: operator.mul, ast.Div: operator.truediv}


def _float_value(node):
    """A radical form in floats, from integers, + - * /, unary minus and
    sqrt alone."""
    if isinstance(node, ast.Constant) and type(node.value) is int:
        return float(node.value)
    if isinstance(node, ast.BinOp) and type(node.op) in _OPS:
        return _OPS[type(node.op)](_float_value(node.left), _float_value(node.right))
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        return -_float_value(node.operand)
    if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "sqrt" and len(node.args) == 1 and not node.keywords):
        return math.sqrt(_float_value(node.args[0]))
    raise ValueError(f"not a radical form: {ast.dump(node)}")


def test_root_hints_evaluate_to_their_roots():
    # Each printed radical form names the root it stands beside: swapping
    # two forms of one factor moves a value by more than 0.9.
    assert len(closedform.ROOT_HINTS) == 15
    for factor, _ in closedform.CHARPOLY_FACTORS:
        for idx, root in enumerate(spectral.real_roots(factor)):
            hint = closedform.ROOT_HINTS[(factor, idx)]
            value = _float_value(ast.parse(hint, mode="eval").body)
            assert abs(value - root) <= 1e-12, (str(factor), idx, hint)


def test_table_trace(table):
    trace = sum(e.multiplicity * e.numeric for e in table.entries)
    assert abs(trace - 180.0) <= 1e-8


def test_table_rejects_wrong_polynomial():
    with pytest.raises(spectral.FactorMismatch):
        spectral.build_spectral_table(IntPolynomial([0, 1]))


def test_quadratic_factor_discriminants():
    for factor, _ in closedform.CHARPOLY_FACTORS:
        if factor.degree != 2:
            continue
        c, b, a = factor.coeffs
        disc = b * b - 4 * a * c
        assert disc > 0
        assert math.isqrt(disc) ** 2 != disc


def test_cross_validate(num_spec, table):
    cv = spectral.cross_validate(num_spec, table)
    assert cv.cluster_count == 15
    assert cv.max_deviation <= 1e-8


def test_cross_validate_detects_perturbation(num_spec, table):
    values = list(num_spec.values)
    values[20] += 1e-3  # inside the multiplicity-9 cluster at 2
    bad = spectral.NumericSpectrum(values=tuple(sorted(values)),
                                   residual=num_spec.residual)
    with pytest.raises(spectral.MultiplicityMismatch):
        spectral.cross_validate(bad, table)


def test_real_roots_on_quartic():
    quartic = closedform.CHARPOLY_FACTORS[7][0]
    roots = spectral.real_roots(quartic)
    assert len(roots) == 4
    for r in roots:
        assert abs(np.polyval(quartic.coeffs[::-1], r)) < 1e-9
    s5 = math.sqrt(5)
    expected = sorted([(9 - s5 - math.sqrt(38 - 2 * s5)) / 4,
                       (9 + s5 - math.sqrt(38 + 2 * s5)) / 4,
                       (9 - s5 + math.sqrt(38 - 2 * s5)) / 4,
                       (9 + s5 + math.sqrt(38 + 2 * s5)) / 4])
    for r, e in zip(roots, expected):
        assert abs(r - e) <= 1e-11


def test_csv_exports(table):
    t = spectral.table_csv(table)
    assert len(t.strip().splitlines()) == 16
