import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from rieszcone import algebra as al
from rieszcone.algebra import SymElement


def sym(data):
    return SymElement.from_dense(np.asarray(data, dtype=float))


def random_sym(rng, r):
    x = rng.standard_normal((r, r))
    return SymElement.from_dense(0.5 * (x + x.T))


def random_cone(rng, r):
    x = rng.standard_normal((r, r))
    return SymElement.from_dense(x @ x.T + 1e-3 * np.eye(r))


# ---------------------------------------------------------------- storage


def test_packed_storage_roundtrip():
    a = np.array([[1.0, 2.0, 3.0], [2.0, 4.0, 5.0], [3.0, 5.0, 6.0]])
    x = sym(a)
    assert x.packed.shape == (6,)
    assert np.array_equal(x.dense(), a)
    back = SymElement.from_json_dict(x.to_json_dict())
    assert np.array_equal(back.dense(), a)


def test_symmetry_is_exact_after_construction():
    # entries within the 1e-12 gate are accepted, then unified bitwise
    a = np.array([[1.0, 2.0], [2.0 + 5e-13, 3.0]])
    x = SymElement.from_dense(a)
    d = x.dense()
    assert d[0, 1] == d[1, 0]


def test_rejects_asymmetric_and_nonsquare():
    with pytest.raises(al.NotSymmetricError):
        SymElement.from_dense([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(al.ShapeMismatchError):
        SymElement.from_dense(np.zeros((2, 3)))
    with pytest.raises(al.AlgebraError):
        SymElement.from_dense([[np.nan, 0.0], [0.0, 0.0]])
    with pytest.raises(al.AlgebraError):
        SymElement.from_json_dict({"r": 2, "data": [[1.0]]})


def test_shape_dimension():
    assert al.AlgebraShape(3).n == 6
    assert al.AlgebraShape(1).n == 1
    with pytest.raises(al.AlgebraError):
        al.AlgebraShape(0)


# ---------------------------------------------------------------- products


def test_inner_product_frozen_value():
    # tr(xy) for x=[[1,2],[2,0]], y=[[0,1],[1,3]]: xy=[[2,7],[0,2]], trace 4
    x = sym([[1, 2], [2, 0]])
    y = sym([[0, 1], [1, 3]])
    assert al.inner(x, y) == 4.0


def test_inner_product_matches_trace():
    rng = np.random.default_rng(7)
    for r in (1, 2, 5):
        x, y = random_sym(rng, r), random_sym(rng, r)
        assert_allclose(al.inner(x, y), np.trace(x.dense() @ y.dense()),
                        rtol=1e-13, atol=1e-13)


def test_inner_norm_is_frobenius():
    rng = np.random.default_rng(8)
    x = random_sym(rng, 4)
    assert_allclose(x.norm(), np.linalg.norm(x.dense()), rtol=1e-13)


# ---------------------------------------------------------------- spectral


def test_spectral_reflection():
    dec = al.spectral(sym([[0, 1], [1, 0]]))
    assert_allclose(dec.eigenvalues, [1.0, -1.0], atol=1e-14)
    assert_allclose(dec.reconstruct(), [[0, 1], [1, 0]], atol=1e-14)


@pytest.mark.parametrize("r", [1, 2, 3, 6])
def test_spectral_invariants(r):
    rng = np.random.default_rng(100 + r)
    for _ in range(25):
        x = random_sym(rng, r)
        dec = al.spectral(x)
        q = dec.basis
        scale = max(1.0, x.norm())
        assert np.max(np.abs(q @ q.T - np.eye(r))) < 1e-13
        assert np.max(np.abs(dec.reconstruct() - x.dense())) < 1e-12 * scale
        assert np.all(np.diff(dec.eigenvalues) <= 1e-12 * scale)


class _Refused(Exception):
    pass


def test_require_negative_definite_margin():
    # the caller picks the error type; the zero element and a zero
    # eigenvalue fail even at margin 0, and the margin is relative to the
    # Frobenius norm
    al.require_negative_definite(sym([[-1, 0.5], [0.5, -1]]), _Refused, "x")
    for bad in ([[0, 0], [0, 0]], [[-1, 0], [0, 0]], [[-1, 0], [0, 1]]):
        with pytest.raises(_Refused, match="largest eigenvalue"):
            al.require_negative_definite(sym(bad), _Refused, "x")
    thin = sym(np.diag([-1.0, -1e-3]))
    al.require_negative_definite(thin, _Refused, "x", margin=1e-4)
    with pytest.raises(_Refused):
        al.require_negative_definite(thin, _Refused, "x", margin=1e-3)


# ---------------------------------------------------------------- minors


def test_minors_frozen_values():
    assert np.array_equal(al.minors(sym(np.diag([2.0, 3.0, 4.0]))), [2, 6, 24])
    assert np.array_equal(al.minors(sym([[2, 1], [1, 1]])), [2, 1])


def test_minors_zero_pivot_falls_back():
    # leading 1x1 minor is exactly 0; the full determinant is -1
    assert np.array_equal(al.minors(sym([[0, 1], [1, 0]])), [0, -1])


@pytest.mark.parametrize("r", [2, 3, 5])
def test_minors_match_direct_determinants(r):
    rng = np.random.default_rng(23 + r)
    for _ in range(50):
        x = random_sym(rng, r)
        m = al.minors(x)
        want = [np.linalg.det(x.dense()[: k + 1, : k + 1]) for k in range(r)]
        assert_allclose(m, want, rtol=1e-9, atol=1e-12)


def test_generalized_power_frozen_values():
    # Delta_(2,1) of [[2,1],[1,1]]: 2^(2-1) * 1^1 = 2
    assert al.generalized_power(sym([[2, 1], [1, 1]]), [2, 1]) == pytest.approx(2.0)
    # on diagonal elements the power collapses to prod lambda_i^{s_i}
    assert al.generalized_power(sym(np.diag([2.0, 3.0])), [1, 1]) == pytest.approx(6.0)


def test_generalized_power_diagonal_rule():
    rng = np.random.default_rng(5)
    lam = rng.uniform(0.5, 3.0, size=4)
    s = rng.uniform(-1.0, 2.0, size=4)
    got = al.generalized_power(sym(np.diag(lam)), s)
    assert_allclose(got, np.prod(lam ** s), rtol=1e-12)


def test_generalized_power_translation():
    # Delta_{s+m} = Delta_s * Delta_m on the open cone
    rng = np.random.default_rng(6)
    x = random_cone(rng, 3)
    s = np.array([1.3, 0.4, -0.2])
    m = np.array([0.7, 0.7, 0.9])
    assert_allclose(
        al.generalized_power(x, s + m),
        al.generalized_power(x, s) * al.generalized_power(x, m),
        rtol=1e-11,
    )


def test_generalized_power_domain():
    flat = sym([[0, 1], [1, 0]])  # minors (0, -1)
    # zero minor with non-integer exponent has no real value
    with pytest.raises(al.PowerDomainError):
        al.generalized_power(flat, [0.5, 0.0])
    # nonnegative integer exponents stay exact: 0^2 * (-1)^1
    assert al.generalized_power(flat, [3.0, 1.0]) == 0.0
    assert al.generalized_power(flat, [1.0, 1.0]) == -1.0
    # zero exponent never looks at the minor
    assert al.generalized_power(flat, [0.0, 0.0]) == 1.0
    with pytest.raises(al.PowerDomainError):
        al.log_generalized_power(flat, [1.0, 1.0])


def test_log_generalized_power_consistency():
    rng = np.random.default_rng(9)
    x = random_cone(rng, 4)
    s = [2.0, 1.5, 1.0, 0.5]
    assert_allclose(al.log_generalized_power(x, s),
                    math.log(al.generalized_power(x, s)), rtol=1e-12)


