import math
import warnings

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
    assert np.array_equal(x.matrix, a)
    back = SymElement.from_json_dict(x.to_json_dict())
    assert np.array_equal(back.matrix, a)


def test_symmetry_is_exact_after_construction():
    # entries within the 1e-12 gate are accepted, then unified bitwise
    a = np.array([[1.0, 2.0], [2.0 + 5e-13, 3.0]])
    x = SymElement.from_dense(a)
    d = x.matrix
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


@pytest.mark.parametrize("obj", [[[1.0]], "2", None, {"r": 1}, {"data": [[1.0]]}])
def test_from_json_dict_refuses_anything_but_an_object_with_r_and_data(obj):
    with pytest.raises(al.AlgebraError, match="expected an object"):
        SymElement.from_json_dict(obj)


def test_rejects_empty_matrix():
    with pytest.raises(al.AlgebraError):
        SymElement.from_dense(np.zeros((0, 0)))
    with pytest.raises(al.ShapeMismatchError):
        SymElement.from_json_dict({"r": 0, "data": []})


def test_from_dense_checks_the_shape_before_the_size_and_the_entries():
    with pytest.raises(al.ShapeMismatchError, match="expected a square matrix"):
        SymElement.from_dense([[np.nan, 0.0, 1.0], [0.0, 0.0, 1.0]])
    with pytest.raises(al.AlgebraError, match="rank must be a positive integer") as exc:
        SymElement.from_dense(np.zeros((0, 0)))
    assert type(exc.value) is al.AlgebraError


def test_lower_triangle_mirrors_upper_bitwise():
    # the upper triangle wins, signed zeros included
    x = SymElement.from_dense([[1.0, -0.0, 2.0], [0.0, 3.0, 4.0 + 5e-13], [2.0, 4.0, 5.0]])
    assert np.array_equal(x.matrix, x.matrix.T)
    assert math.copysign(1.0, x.matrix[1, 0]) == -1.0
    assert x.matrix[2, 1] == 4.0 + 5e-13
    assert x.r == 3


def test_matrix_is_read_only_and_the_input_is_copied():
    a = np.array([[2.0, 1.0], [1.0, 3.0]])
    x = sym(a)
    a[0, 0] = 9.0  # the input is copied, not aliased
    with pytest.raises(ValueError):
        x.matrix[0, 0] = 9.0
    assert x.matrix[0, 0] == 2.0



def test_constructor_mirrors_upper_and_rejects_non_square():
    # the unvalidated constructor keeps the structural invariant too
    x = SymElement(np.array([[1.0, 2.0], [7.0, 3.0]]))
    assert x.matrix.tolist() == [[1.0, 2.0], [2.0, 3.0]]
    assert not x.matrix.flags.writeable
    for bad in (np.ones((2, 3)), np.ones(4), np.ones((2, 2, 2))):
        with pytest.raises(al.ShapeMismatchError):
            SymElement(bad)

# ---------------------------------------------------------------- spectral


def test_spectral_reflection():
    assert_allclose(al.spectral(sym([[0, 1], [1, 0]])), [1.0, -1.0], atol=1e-14)


@pytest.mark.parametrize("r", [1, 2, 3, 6])
def test_spectral_invariants(r):
    rng = np.random.default_rng(100 + r)
    for _ in range(25):
        x = random_sym(rng, r)
        evals = al.spectral(x)
        assert evals.shape == (r,)
        assert np.all(np.diff(evals) <= 0.0)
        assert np.array_equal(evals, np.linalg.eigvalsh(x.matrix)[::-1])


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
    # the same rules where squaring an entry underflows or overflows: the
    # norm of diag(-c, -c) is sqrt(2) c, to well within 1e-9, at every scale
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for c in (1e-310, 1e-200, 1e200):
            thin = sym(np.diag([-c, -1e-3 * c]))
            al.require_negative_definite(thin, _Refused, "x", margin=1e-4)
            with pytest.raises(_Refused):
                al.require_negative_definite(thin, _Refused, "x", margin=1e-3)
            flat = sym(-c * np.eye(2))
            al.require_negative_definite(flat, _Refused, "x", margin=(1 - 1e-9) / math.sqrt(2))
            with pytest.raises(_Refused):
                al.require_negative_definite(flat, _Refused, "x", margin=(1 + 1e-9) / math.sqrt(2))


def test_require_negative_definite_at_extreme_scale():
    # the bound is -margin times a finite norm, not -inf (or nan at margin 0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for margin in (0.0, 1e-10):
            al.require_negative_definite(sym(-1e200 * np.eye(2)), _Refused, "x", margin=margin)
        with pytest.raises(_Refused, match=r"is not below -1\.414e\+190 "):
            al.require_negative_definite(sym(1e200 * np.eye(2)), _Refused, "x", margin=1e-10)


# ------------------------------------------------ pivots as leading minors


def _minors(stack):
    """Leading principal minors of a stack, as the running products of its pivots."""
    return np.cumprod(al._pivots(np.asarray(stack, dtype=float)), axis=1)


def test_minors_frozen_values():
    assert np.array_equal(_minors(np.diag([2.0, 3.0, 4.0])[None])[0], [2, 6, 24])
    assert np.array_equal(_minors(sym([[2, 1], [1, 1]]).matrix[None])[0], [2, 1])


def test_minors_zero_pivot_falls_back():
    # the leading 1x1 minor is exactly 0, so the next entry is no pivot and reads 0
    assert al._pivots(sym([[0, 1], [1, 0]]).matrix[None]).tolist() == [[0.0, 0.0]]
    assert al._pivots(np.eye(2)[None]).tolist() == [[1.0, 1.0]]


@pytest.mark.parametrize("r", [2, 3, 5])
def test_minors_match_direct_determinants(r):
    rng = np.random.default_rng(23 + r)
    for _ in range(50):
        x = random_sym(rng, r)
        m = _minors(x.matrix[None])[0]
        want = [np.linalg.det(x.matrix[: k + 1, : k + 1]) for k in range(r)]
        assert_allclose(m, want, rtol=1e-9, atol=1e-12)


def _scalar_pivots(d):
    """The one-matrix elimination, divide before multiply, written out as a reference."""
    a = d.copy()
    for k in range(d.shape[0] - 1):
        a[k + 1:, k + 1:] -= np.outer(a[k + 1:, k], a[k, k + 1:] / a[k, k])
    return np.diagonal(a)


@pytest.mark.parametrize("r", range(1, 9))
def test_minors_of_a_stack_match_one_matrix_at_a_time_bitwise(r):
    rng = np.random.default_rng(70 + r)
    x = rng.standard_normal((40, r, r))
    for stack in (np.linalg.inv(x @ np.swapaxes(x, 1, 2) + np.eye(r)), x):
        stack = np.array([SymElement(m).matrix for m in stack])
        got = al._pivots(stack)
        assert got.shape == (40, r)
        want = np.array([_scalar_pivots(m) for m in stack])
        one = np.array([al._pivots(m[None])[0] for m in stack])
        assert got.tobytes() == want.tobytes() == one.tobytes()


@pytest.mark.parametrize("r", [1, 3, 8])
@pytest.mark.parametrize("masked", [False, True])
def test_pivots_own_their_data_in_fortran_order(r, masked):
    # an (n, r) array of its own, not a view that keeps the (r, r, n) workspace alive
    rng = np.random.default_rng(40 + r)
    x = rng.standard_normal((64, r, r))
    stack = x @ np.swapaxes(x, 1, 2) + np.eye(r)
    active = np.arange(r) % 2 == 0 if masked else None
    got = al._pivots(stack, active)
    assert got.base is None and got.flags.owndata and got.flags.writeable
    assert got.flags.f_contiguous and got.shape == (64, r)
    assert np.array_equal(got[:, 0], stack[:, 0, 0])
    if not masked:
        assert got.tobytes() == np.array([_scalar_pivots(m) for m in stack]).tobytes()
    kept = got.copy()
    got *= 2.0
    assert np.array_equal(got, 2.0 * kept)
    assert np.array_equal(al._pivots(stack, active), kept)


def test_minors_of_a_stack_fall_back_only_where_a_pivot_is_zero():
    first = [[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]]   # pivots 1 and 2 are 0
    second = [[1.0, 1.0, 0.0], [1.0, 1.0, 2.0], [0.0, 2.0, 5.0]]  # pivot 2 is 0
    third = [[0.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 1.0]]   # pivot 1 is 0
    rng = np.random.default_rng(3)
    regular = [random_cone(rng, 3).matrix for _ in range(2)]
    stack = np.array([first, regular[0], second, regular[1], third])
    got = al._pivots(stack)
    # each matrix reads 0 from its first zero pivot on; the others run to the end
    assert got[[0, 4]].tolist() == [[0.0, 0.0, 0.0]] * 2
    assert got[2].tolist() == [1.0, 0.0, 0.0]
    for i in (1, 3):
        assert got[i].tobytes() == _scalar_pivots(stack[i]).tobytes()


def test_generalized_power_frozen_values():
    # log Delta_(2,1) of [[2,1],[1,1]]: (2-1) log 2 + 1 log 1 = log 2
    assert al.log_generalized_power(sym([[2, 1], [1, 1]]), [2, 1]) == pytest.approx(
        math.log(2.0))
    # on diagonal elements the power collapses to prod lambda_i^{s_i}
    assert al.log_generalized_power(sym(np.diag([2.0, 3.0])), [1, 1]) == pytest.approx(
        math.log(6.0))


def test_generalized_power_diagonal_rule():
    rng = np.random.default_rng(5)
    lam = rng.uniform(0.5, 3.0, size=4)
    s = rng.uniform(-1.0, 2.0, size=4)
    got = al.log_generalized_power(sym(np.diag(lam)), s)
    assert_allclose(got, np.sum(s * np.log(lam)), rtol=1e-12)


def test_generalized_power_translation():
    # Delta_{s+m} = Delta_s * Delta_m on the open cone, a sum of logs
    rng = np.random.default_rng(6)
    x = random_cone(rng, 3)
    s = np.array([1.3, 0.4, -0.2])
    m = np.array([0.7, 0.7, 0.9])
    assert_allclose(
        al.log_generalized_power(x, s + m),
        al.log_generalized_power(x, s) + al.log_generalized_power(x, m),
        rtol=1e-11,
    )


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_a_log_power_past_the_float_range_is_inf_or_nan_without_a_warning():
    # 1e308 log 1e300 overflows; with 1e308 log 1e-300 beside it, the sum
    # is inf or NaN, as the order of the dot product decides
    assert al.log_generalized_power(sym([[1e300]]), [1e308]) == math.inf
    assert al.log_generalized_power(sym([[1e-300]]), [1e308]) == -math.inf
    assert not math.isfinite(
        al.log_generalized_power(sym(np.diag([1e300, 1e-300])), [1e308, 1e308]))


def test_generalized_power_domain():
    flat = sym([[0, 1], [1, 0]])  # minors (0, -1)
    # a minor that is not positive has no log power where its exponent is nonzero
    with pytest.raises(al.PowerDomainError):
        al.log_generalized_power(flat, [0.5, 0.0])
    with pytest.raises(al.PowerDomainError):
        al.log_generalized_power(flat, [1.0, 1.0])
    # minors (-1, 1): the power is defined on the open cone only, so a
    # negative pivot is refused even where its minor's exponent s_1 - s_2 is 0
    with pytest.raises(al.PowerDomainError):
        al.log_generalized_power(sym(np.diag([-1.0, -1.0])), [1.0, 1.0])


def test_generalized_power_refuses_a_parameter_of_the_wrong_length():
    for s in ([1.0], [1.0, 1.0, 1.0], [[1.0, 1.0]]):
        with pytest.raises(al.ShapeMismatchError, match="must have length 2"):
            al.log_generalized_power(sym(np.eye(2)), s)


@pytest.mark.parametrize("power", [600, -600])
def test_log_generalized_power_rescales_only_at_extreme_scale(power):
    # log Delta_s(c x) = log Delta_s(x) + (sum s) log c; at c = 2^600 a
    # minor of c x overflows, at 2^-600 one underflows to 0
    rng = np.random.default_rng(10)
    x = random_cone(rng, 4)
    s = np.array([2.0, 1.5, 1.5, 0.5])
    e = np.append(s[:-1] - s[1:], s[-1])
    m = [np.linalg.det(x.matrix[:k + 1, :k + 1]) for k in range(4)]
    plain = sum(e[k] * math.log(m[k]) for k in range(4) if e[k] != 0.0)
    assert al.log_generalized_power(x, s) == pytest.approx(plain, rel=1e-14)
    big = SymElement(2.0 ** power * x.matrix)
    with np.errstate(over="ignore", invalid="ignore"):
        m_big = np.array([np.linalg.det(big.matrix[:k + 1, :k + 1]) for k in range(4)])
    assert not (np.isfinite(m_big) & (m_big != 0.0)).all()
    want = plain + s.sum() * power * math.log(2.0)
    assert al.log_generalized_power(big, s) == pytest.approx(want, rel=1e-14)


def test_log_generalized_power_consistency():
    # sum_k (s_k - s_{k+1}) log det of the leading k x k block, by LAPACK
    rng = np.random.default_rng(9)
    x = random_cone(rng, 4)
    s = np.array([2.0, 1.5, 1.0, 0.5])
    e = np.append(s[:-1] - s[1:], s[-1])
    want = sum(e[k] * math.log(np.linalg.det(x.matrix[:k + 1, :k + 1])) for k in range(4))
    assert_allclose(al.log_generalized_power(x, s), want, rtol=1e-12)


