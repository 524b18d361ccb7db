import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.special import gammaln

from rieszcone import gindikin as gk


# ---------------------------------------------------------------- forward map


def test_s_from_u_zero():
    assert np.array_equal(gk.s_from_u([0, 0, 0]), [0, 0, 0])


def test_s_from_u_hand_traced():
    assert np.array_equal(gk.s_from_u([1, 0, 0.5]), [1, 0.5, 1])
    assert np.array_equal(
        gk.s_from_u([0, 1, 2, 0, 0, 3, 0]), [0, 1, 2.5, 1, 1, 4, 1.5]
    )


def test_s_from_u_multiplicity_scales_the_shift():
    assert np.array_equal(gk.s_from_u([1, 0, 0.5], d=2.0), [1, 1, 1.5])


def test_s_from_u_rejects_bad_input():
    with pytest.raises(gk.GindikinError):
        gk.s_from_u([1.0, -0.1])
    with pytest.raises(gk.GindikinError):
        gk.s_from_u([1.0], d=0.0)
    with pytest.raises(gk.GindikinError):
        gk.s_from_u([np.nan])


# ---------------------------------------------------------------- inverse map


def test_u_from_s_hand_traced():
    p = gk.u_from_s([1, 0.5, 1])
    assert p.u == (1.0, 0.0, 0.5)
    assert p.s == (1.0, 0.5, 1.0)


def test_u_from_s_rejection_names_first_bad_index():
    with pytest.raises(gk.NotInGindikinSetError) as exc:
        gk.u_from_s([0.5, 0.2])
    assert exc.value.index == 2
    assert exc.value.value == pytest.approx(-0.3)


def test_scalar_parameter_ladder_r3():
    """Equal components are admissible only on the half-integer ladder
    {0, 1/2, 1} and the open ray above 1."""
    for p in (0.0, 0.5, 1.0, 1.25, 2.0, 7.5):
        gk.u_from_s([p, p, p])  # must not raise
    for p in (0.25, 0.75):
        with pytest.raises(gk.NotInGindikinSetError):
            gk.u_from_s([p, p, p])


def test_scalar_parameter_ladder_scales_with_d():
    for p in (0.0, 1.0, 2.0, 2.5):
        gk.u_from_s([p, p, p], d=2.0)
    with pytest.raises(gk.NotInGindikinSetError):
        gk.u_from_s([1.5, 1.5, 1.5], d=2.0)


def test_zero_tol_snaps_near_zero_recoveries():
    s = [1.0, 0.5 - 1e-13, 1.0]
    with pytest.raises(gk.NotInGindikinSetError):
        # without snapping the second recovery is -1e-13 < 0
        gk.u_from_s(s, zero_tol=0.0)
    p = gk.u_from_s(s, zero_tol=1e-9)
    assert p.u == (1.0, 0.0, 0.5)
    with pytest.raises(gk.GindikinError):
        gk.u_from_s(s, zero_tol=-1.0)


@pytest.mark.parametrize("zero_tol", [math.nan, -math.inf, -0.5])
def test_zero_tol_must_be_a_nonnegative_number(zero_tol):
    # a NaN tolerance snaps nothing, so it would pass for 0 unless refused
    with pytest.raises(gk.GindikinError, match="zero_tol must be nonnegative"):
        gk.u_from_s([1.0, 1.0], zero_tol=zero_tol)


def test_interior_points_always_admissible():
    # every s with s_i > (i-1)d/2 componentwise must be accepted
    rng = np.random.default_rng(3)
    for _ in range(200):
        r = int(rng.integers(1, 8))
        d = float(rng.choice([0.5, 1.0, 2.0]))
        s = (np.arange(r)) * d / 2 + rng.uniform(1e-6, 4.0, size=r)
        gk.u_from_s(s, d=d)  # must not raise


@settings(deadline=None, max_examples=200)
@given(
    st.integers(1, 8),
    st.integers(0, 10**9),
    st.floats(0.25, 4.0),
)
def test_roundtrip_dyadic_exact(r, seed, dscale):
    """With u on a 1/32 grid and dyadic d every intermediate is exact, so the
    inverse recursion must reproduce u bit for bit."""
    rng = np.random.default_rng(seed)
    u = rng.integers(0, 161, size=r) / 32.0
    u[rng.random(size=r) < 0.4] = 0.0
    d = float(np.ldexp(1.0, int(np.log2(dscale))))  # 0.25, 0.5, 1, 2 or 4
    p = gk.u_from_s(gk.s_from_u(u, d=d), d=d)
    assert p.u == tuple(u)


@settings(deadline=None, max_examples=200)
@given(st.integers(1, 8), st.integers(0, 10**9))
def test_roundtrip_generic_floats(r, seed):
    rng = np.random.default_rng(seed)
    u = rng.uniform(0.0, 5.0, size=r)
    u[rng.random(size=r) < 0.4] = 0.0
    p = gk.u_from_s(gk.s_from_u(u), zero_tol=1e-12)
    assert_allclose(p.u, u, atol=1e-12)


def test_param_from_u_and_flags():
    p = gk.param_from_u([1.2, 0, 0.7, 0])
    assert p.s == (1.2, 0.5, 1.2, 1.0)
    assert p.rank_support == 2
    assert p.samplable
    assert not gk.param_from_u([1, 1], d=2.0).samplable


# ----------------------------------------------------------------- partition


def test_build_partition_hand_traced():
    part = gk.build_partition(gk.param_from_u([0, 1, 2, 0, 0, 3, 0]))
    assert part.k == 2
    assert part.starts == (1, 5)
    assert part.lengths == (2, 1)
    assert part.index_sets == ((2, 3), (6,))
    assert part.gap_sets == ((1,), (4, 5), (7,))


def test_records_are_immutable_and_keep_their_text():
    param = gk.GindikinParam(r=3, d=1.0, s=(1.0, 0.5, 1.0), u=(1.0, 0.0, 0.5))
    assert param == gk.u_from_s([1, 0.5, 1])
    part = gk.build_partition(param)
    assert part == gk.BlockPartition(
        param=param, k=2, starts=(0, 2), lengths=(1, 1), u_blocks=((1.0,), (0.5,)),
        s_blocks=((1.0, 0.5, 0.5), (0.0, 0.0, 0.5)))
    for record, name in ((param, "s"), (part, "k"), (param, "extra")):
        with pytest.raises(AttributeError):
            setattr(record, name, None)
    assert repr(part) == (
        "BlockPartition(param=GindikinParam(r=3, d=1.0, s=(1.0, 0.5, 1.0), "
        "u=(1.0, 0.0, 0.5)), k=2, starts=(0, 2), lengths=(1, 1), "
        "u_blocks=((1.0,), (0.5,)), s_blocks=((1.0, 0.5, 0.5), (0.0, 0.0, 0.5)))")
    assert json.dumps(part.to_json_dict()) == (
        '{"in_xi": true, "s": [1.0, 0.5, 1.0], "u": [1.0, 0.0, 0.5], "d": 1.0, '
        '"k": 2, "i": [0, 2], "j": [1, 1], "I": [[1], [3]], "I_prime": [[], [2], []], '
        '"u_blocks": [[1.0], [0.5]], "s_blocks": [[1.0, 0.5, 0.5], [0.0, 0.0, 0.5]]}')


def test_build_partition_single_run():
    part = gk.build_partition(gk.param_from_u([2.0, 1.5, 1.0]))
    assert part.k == 1
    assert part.starts == (0,)
    assert part.lengths == (3,)
    assert part.gap_sets == ((), ())


def test_build_partition_empty():
    part = gk.build_partition(gk.param_from_u([0.0, 0.0]))
    assert part.k == 0
    assert part.starts == ()
    assert part.u_blocks == ()
    assert part.gap_sets == ((1, 2),)


def test_index_and_gap_sets_tile_everything():
    rng = np.random.default_rng(19)
    for _ in range(100):
        r = int(rng.integers(1, 9))
        u = rng.uniform(0.1, 2.0, size=r)
        u[rng.random(size=r) < 0.5] = 0.0
        part = gk.build_partition(gk.param_from_u(u))
        seen = [i for run in part.index_sets for i in run]
        seen += [i for gap in part.gap_sets for i in gap]
        assert sorted(seen) == list(range(1, r + 1))
        assert len(part.gap_sets) == part.k + 1
        for start, length, run in zip(part.starts, part.lengths,
                                      part.index_sets):
            assert run == tuple(range(start + 1, start + length + 1))


def test_block_params_hand_traced():
    part = gk.build_partition(gk.param_from_u([0, 1, 2, 0, 0, 3, 0]))
    pairs = list(zip(part.u_blocks, part.s_blocks))
    assert pairs == [
        ((1.0, 2.5), (0, 1, 2.5, 1, 1, 1, 1)),
        ((3.0,), (0, 0, 0, 0, 0, 3, 0.5)),
    ]


def test_block_params_trailing_run_has_no_constant_tail():
    part = gk.build_partition(gk.param_from_u([1.0, 0.0]))
    pairs = list(zip(part.u_blocks, part.s_blocks))
    assert pairs == [((1.0,), (1.0, 0.5))]


def test_block_params_full_run_reproduces_s():
    u = [2.0, 0.25, 1.0, 3.0]
    part = gk.build_partition(gk.param_from_u(u))
    ((ub, sb),) = zip(part.u_blocks, part.s_blocks)
    assert ub == tuple(np.asarray(u) + 0.5 * np.arange(4))
    assert sb == part.param.s


def test_blockwise_recomposition_is_exact():
    rng = np.random.default_rng(29)
    for _ in range(300):
        r = int(rng.integers(1, 9))
        u = rng.integers(0, 65, size=r) / 16.0
        u[rng.random(size=r) < 0.5] = 0.0
        part = gk.build_partition(gk.param_from_u(u))
        total = np.zeros(r)
        for sb in part.s_blocks:
            total += np.asarray(sb)
        assert tuple(total) == part.param.s
        for ub, length in zip(part.u_blocks, part.lengths):
            # each run parameter is strictly admissible on its own block
            assert all(ub[p] > 0.5 * p - 1e-15 for p in range(length))


# --------------------------------------------------------------- gamma factor


def test_log_gamma_omega_rank_one():
    assert gk.log_gamma_omega([2.7]) == pytest.approx(gammaln(2.7), rel=1e-14)


def test_log_gamma_omega_frozen_value():
    got = gk.log_gamma_omega([2.0, 1.0])
    assert got == pytest.approx(0.5 * math.log(2 * math.pi) + 0.5 * math.log(math.pi),
                                rel=1e-14)
    assert math.exp(got) == pytest.approx(4.442882938158365, rel=1e-13)


def test_log_gamma_omega_pole():
    with pytest.raises(gk.GammaPoleError):
        gk.log_gamma_omega([1.0, 0.5])


def test_log_gamma_omega_takes_its_rank_from_s():
    # d is keyword-only: an old call that passed the rank second must not run
    # with d = 2
    with pytest.raises(TypeError):
        gk.log_gamma_omega([2.0, 1.0], 2)
    # r = 2, d = 2: (n - r) / 2 = 1 and the arguments are (2, 1)
    assert gk.log_gamma_omega([2.0, 2.0], d=2.0) == pytest.approx(math.log(2 * math.pi),
                                                                  rel=1e-14)


def test_log_gamma_omega_shift_recursion():
    # Gamma(a+1) = a Gamma(a), one coordinate at a time
    s = np.array([2.2, 1.7, 1.4])
    base = gk.log_gamma_omega(s)
    bumped = s.copy()
    bumped[1] += 1.0
    got = gk.log_gamma_omega(bumped)
    assert got - base == pytest.approx(math.log(s[1] - 0.5), rel=1e-12)


# --------------------------------------------------------------------- report


def test_membership_report_accept():
    rep = gk.membership_report(s=[1.2, 0.5, 1.2, 1.0])
    assert rep["in_xi"] is True
    assert rep["u"] == [1.2, 0.0, 0.7, 0.0]
    assert rep["k"] == 2
    assert rep["i"] == [0, 2]
    assert rep["j"] == [1, 1]
    assert rep["I_prime"] == [[], [2], [4]]
    assert rep["samplable"] is True


def test_membership_report_reject():
    rep = gk.membership_report(s=[0.5, 0.2])
    assert rep == {
        "in_xi": False,
        "s": [0.5, 0.2],
        "d": 1.0,
        "first_bad_index": 2,
        "recovered_value": pytest.approx(-0.3),
    }


def test_membership_report_wants_exactly_one_input():
    with pytest.raises(gk.GindikinError):
        gk.membership_report()
    with pytest.raises(gk.GindikinError):
        gk.membership_report(s=[1.0], u=[1.0])


# ---------------------------------------------------- reference u <-> s maps
# The maps as they were on numpy arrays, kept as the reference for the
# Python-float recursions: same values, same value types, same errors.


def _ref_vector(x, name):
    arr = np.asarray(x, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise gk.GindikinError(f"{name} must be a nonempty 1-d sequence, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise gk.GindikinError(f"{name} must be finite")
    return arr


def _ref_check_d(d):
    if not (np.isfinite(d) and d > 0):
        raise gk.GindikinError(f"multiplicity d must be a positive real, got {d!r}")


def ref_s_from_u(u, d=1.0):
    uu = _ref_vector(u, "u")
    _ref_check_d(d)
    if np.any(uu < 0):
        bad = int(np.argmax(uu < 0))
        raise gk.GindikinError(f"u must be nonnegative, got u_{bad + 1} = {uu[bad]}")
    count = np.concatenate([[0], np.cumsum(uu > 0)[:-1]])
    return uu + 0.5 * d * count


def ref_u_from_s(s, d=1.0, zero_tol=0.0):
    ss = _ref_vector(s, "s")
    _ref_check_d(d)
    if not zero_tol >= 0:
        raise gk.GindikinError(f"zero_tol must be nonnegative, got {zero_tol}")
    u = np.empty_like(ss)
    count = 0
    for i, si in enumerate(ss):
        ui = si - 0.5 * d * count
        if abs(ui) <= zero_tol:
            ui = 0.0
        if ui < 0:
            raise gk.NotInGindikinSetError(i + 1, float(ui), ss)
        u[i] = ui
        if ui > 0:
            count += 1
    return gk.GindikinParam(r=len(ss), d=float(d), s=tuple(map(float, ss)),
                            u=tuple(map(float, u)))


def _outcome(fn, *args):
    """A comparable record of a call: the value's repr, or the error raised."""
    try:
        value = fn(*args)
    except gk.GindikinError as err:
        return (type(err), str(err), getattr(err, "index", None),
                repr(getattr(err, "value", None)), repr(getattr(err, "s", None)))
    if isinstance(value, np.ndarray):
        return (type(value), value.dtype, value.shape, value.tobytes())
    return (type(value), repr(value))


def _random_vector(rng, r):
    """Dyadic, generic, tiny, huge, zero and (sometimes) negative entries."""
    pick = rng.integers(0, 6, size=r)
    v = np.where(pick == 0, rng.integers(0, 161, size=r) / 32.0, rng.uniform(0.0, 4.0, size=r))
    v = np.where(pick == 1, 0.0, v)
    v = np.where(pick == 2, rng.uniform(0.0, 1e-12, size=r), v)
    v = np.where(pick == 3, 10.0 ** rng.uniform(10, 300, size=r), v)
    if rng.random() < 0.2:
        v[rng.integers(r)] = -rng.uniform(1e-17, 3.0)
    return v


def test_maps_match_numpy_reference():
    rng = np.random.default_rng(77)
    ds = (1.0, 2.0, 0.5, 1, 4.0, 0.37)
    for _ in range(3000):
        r = int(rng.integers(1, 9))
        d = ds[int(rng.integers(len(ds)))]
        u = _random_vector(rng, r)
        assert _outcome(gk.s_from_u, u, d) == _outcome(ref_s_from_u, u, d)
        assert _outcome(gk.s_from_u, list(u), d) == _outcome(ref_s_from_u, list(u), d)
        # s near the admissible boundary, so some are rejected at each index
        s = np.abs(ref_s_from_u(np.abs(u), d)) - rng.choice([0.0, 1e-13, 0.25], size=r)
        tol = float(rng.choice([0.0, 1e-12, 0.3]))
        assert _outcome(gk.u_from_s, s, d, tol) == _outcome(ref_u_from_s, s, d, tol)
        assert _outcome(gk.u_from_s, list(s), d, tol) == _outcome(ref_u_from_s, list(s), d, tol)
    for bad in ([], [[1.0]], [1.0, np.inf], [np.nan]):
        assert _outcome(gk.s_from_u, bad) == _outcome(ref_s_from_u, bad)
        assert _outcome(gk.u_from_s, bad) == _outcome(ref_u_from_s, bad)
    for d in (0.0, -1.0, np.inf, np.nan, np.float64(2.0)):
        assert _outcome(gk.s_from_u, [1.0, 0.5], d) == _outcome(ref_s_from_u, [1.0, 0.5], d)
        assert _outcome(gk.u_from_s, [1.0, 0.5], d) == _outcome(ref_u_from_s, [1.0, 0.5], d)
    assert _outcome(gk.u_from_s, [1.0], 1.0, -1.0) == _outcome(ref_u_from_s, [1.0], 1.0, -1.0)
