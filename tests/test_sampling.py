import csv
import io
import json
import math
import threading
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy import stats
from scipy.special import gammaln

from rieszcone import cli
from rieszcone import sampling as sp
from rieszcone.algebra import SymElement
from rieszcone.gindikin import (
    GindikinError,
    build_partition,
    log_gamma_omega,
    param_from_u,
    s_from_u,
    u_from_s,
)


def nd_tilt(r, seed=0, scale=1.0):
    """A well-conditioned negative definite tilt with off-diagonal mass."""
    rng = np.random.default_rng(seed)
    q = rng.standard_normal((r, r))
    a = q @ q.T + r * np.eye(r)
    return SymElement.from_dense(-scale * a / np.trace(a) * r)


# ------------------------------------------------------------------- streams


def test_sample_stream_is_keyed_by_seed_and_index():
    a = sp.sample_stream(42, 7).random(4)
    b = sp.sample_stream(42, 7).random(4)
    c = sp.sample_stream(42, 8).random(4)
    d = sp.sample_stream(43, 7).random(4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


def test_sample_stream_keys_are_one_to_one():
    # seed and index go in as two 32-bit words each; numpy would trim a plain
    # [seed, index] to each int's own word count, and these two keys would meet
    a = sp.sample_stream(2**32 + 5, 7).random(4)
    b = sp.sample_stream(5, 1 + 7 * 2**32).random(4)
    assert not np.array_equal(a, b)


def test_sample_stream_refuses_keys_outside_64_bits():
    # refused before numpy sees them: it would raise its own OverflowError
    for seed, index in [(-1, 0), (0, 2**64), (2**64, 0), (0, -1), (True, 0), (0, 1.0),
                        (np.int64(3), 0)]:
        with pytest.raises(sp.SamplerError, match=r"in \[0, 2\*\*64\)"):
            sp.sample_stream(seed, index)
    assert sp.sample_stream(2**64 - 1, 2**64 - 1).random() >= 0.0


def test_sample_gamma_draw_budget():
    # shape >= 1 consumes one gamma draw, shape < 1 a gamma then a uniform;
    # downstream code relies on this accounting for reproducibility
    rng = sp.sample_stream(0, 0)
    sp.sample_gamma(2.5, rng, 1)
    tail_big = rng.random(3)
    rng = sp.sample_stream(0, 0)
    rng.gamma(2.5)
    assert np.array_equal(rng.random(3), tail_big)

    rng = sp.sample_stream(0, 1)
    sp.sample_gamma(0.4, rng, 1)
    tail_small = rng.random(3)
    rng = sp.sample_stream(0, 1)
    rng.gamma(1.4)
    rng.random()
    assert np.array_equal(rng.random(3), tail_small)


@pytest.mark.parametrize("shape", [0.15, 0.4, 0.97, 1.0, 2.5])
def test_sample_gamma_distribution(shape):
    rng = sp.sample_stream(123, int(shape * 100))
    draws = sp.sample_gamma(shape, rng, 4000)
    assert np.all(draws > 0)
    # fixed stream, so this p-value is deterministic
    assert stats.kstest(draws, "gamma", args=(shape,)).pvalue > 1e-4


def test_sample_gamma_rejects_nonpositive_shape():
    rng = sp.sample_stream(0, 0)
    with pytest.raises(sp.SamplerError):
        sp.sample_gamma(0.0, rng, 1)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_a_shape_below_the_smallest_reciprocal_draws_zeros_without_a_warning():
    # a plan's shapes are numpy scalars, and 1 / 1e-310 overflows as one;
    # as a Python float the exponent is inf and U ** inf is 0
    for shape in (1e-310, np.float64(1e-310)):
        assert not sp.sample_gamma(shape, sp.sample_stream(0, 0), 8).any()
    spec = sp.RieszSpec.build(u=[1e-310], count=2)
    assert not sp.sample_riesz(spec).matrices.any()


# ------------------------------------------------------------------ one run


def test_ac_block_is_positive_definite():
    # u = (0.8, 0.9, 1.0) is one full-width run, core parameter (0.8, 1.4, 2.0)
    spec = sp.RieszSpec.build(u=[0.8, 0.9, 1.0], seed=5, count=50)
    assert spec.partition.u_blocks == ((0.8, 1.4, 2.0),)
    for x in sp.sample_riesz(spec).matrices:
        assert np.array_equal(x, x.T)
        assert np.linalg.eigvalsh(x)[0] > 0


def test_ac_block_validates_inputs():
    # u = (1, 1e-300) passes admissibility; its second gamma shape, computed
    # as (1e-300 + 1/2) - 1/2, rounds to zero, so u_2 itself is used
    assert sp.RieszSpec.build(u=[1.0, 1e-300]).plans[0].shapes.tolist() == [1.0, 1e-300]
    with pytest.raises(sp.SamplerError):
        sp.RieszSpec.build(u=[1.0], theta=SymElement.from_dense(-np.eye(2)))
    with pytest.raises(sp.TiltError):
        sp.RieszSpec.build(u=[1.0, 1.0], theta=SymElement.from_dense(np.eye(2)))


def test_ac_block_determinant_is_product_of_gammas():
    # with tilt -I the Cholesky construction gives det X = prod of the
    # squared diagonal, i.e. a product of independent gamma variates whose
    # shapes are the u coordinates; check the log-determinant mean against
    # the sum of digamma values
    u = np.array([1.0, 1.5])
    n = 4000
    spec = sp.RieszSpec.build(u=u, seed=17, count=n)
    logdets = np.linalg.slogdet(sp.sample_riesz(spec).matrices)[1]
    from scipy.special import psi

    want = psi(u).sum()
    se = logdets.std(ddof=1) / math.sqrt(n)
    assert abs(logdets.mean() - want) < 5 * se


def test_singular_block_support_and_rank():
    # one run of width 2 with core parameter (1.0, 1.7), starting at index 1
    spec = sp.RieszSpec.build(u=[0.0, 1.0, 1.2, 0.0, 0.0], theta=nd_tilt(5, seed=2),
                              seed=9, count=25)
    assert spec.partition.starts == (1,)
    assert spec.partition.u_blocks == ((1.0, 1.7),)
    for x in sp.sample_riesz(spec).matrices:
        # the row and column before the run start stay identically zero
        assert np.all(x[0, :] == 0.0) and np.all(x[:, 0] == 0.0)
        ev = np.linalg.eigvalsh(x)
        assert ev[0] > -1e-10 * ev[-1]
        assert np.sum(ev > 1e-10 * ev[-1]) == 2


# --------------------------------------------------------- sampling request


def test_spec_build_and_json_roundtrip():
    spec = sp.RieszSpec.build(s=[1.2, 0.5, 1.2, 1.0], seed=11, count=3)
    assert spec.param.u == (1.2, 0.0, 0.7, 0.0)
    obj = spec.to_json_dict()
    assert obj["n"] == 3 and obj["seed"] == 11
    back = sp.RieszSpec.from_json_dict(obj)
    assert back.param == spec.param
    assert back.seed == spec.seed and back.count == spec.count
    assert np.array_equal(back.theta.matrix, spec.theta.matrix)


def test_spec_default_tilt_is_minus_identity():
    spec = sp.RieszSpec.build(u=[1.0, 1.0])
    assert np.array_equal(spec.theta.matrix, -np.eye(2))
    # serialized form must not carry negative zeros
    flat = json.dumps(spec.to_json_dict())
    assert "-0.0" not in flat


def test_spec_build_checks_zero_tol_for_u_too():
    # zero_tol snaps nothing when u is given, but a bad one is still refused
    for zero_tol in (math.nan, -1.0):
        with pytest.raises(GindikinError, match="zero_tol must be nonnegative"):
            sp.RieszSpec.build(u=[1, 1], zero_tol=zero_tol)


def test_spec_validation():
    with pytest.raises(sp.NonSamplableError):
        sp.RieszSpec.build(u=[1.0, 1.0], d=2.0)
    with pytest.raises(sp.SamplerError):
        sp.RieszSpec.build(u=[1.0], count=0)
    with pytest.raises(sp.SamplerError):
        sp.RieszSpec.build(u=[1.0], seed=1.5)
    with pytest.raises(sp.SamplerError):
        sp.RieszSpec.build()
    with pytest.raises(sp.SamplerError):
        sp.RieszSpec.build(s=[1.0], u=[1.0])
    with pytest.raises(sp.SamplerError):
        sp.RieszSpec.build(u=[1.0, 1.0], theta=SymElement.from_dense([[-1.0]]))
    for bad in ([[1.0, 0.0], [0.0, -1.0]], [[-1.0, 0.0], [0.0, 0.0]],
                [[0.0, 0.0], [0.0, 0.0]]):
        with pytest.raises(sp.TiltError):
            sp.RieszSpec.build(u=[1.0, 1.0], theta=SymElement.from_dense(bad))


def test_spec_rejects_a_tilt_the_sampler_cannot_factor():
    # -theta passes the 1e-10 relative eigenvalue margin, but its Schur
    # complement loses definiteness to roundoff; construction must refuse
    # it instead of sample_riesz failing later
    q = np.linalg.qr(np.random.default_rng(26).standard_normal((8, 8)))[0]
    n = q @ np.diag(np.logspace(-9.7, 0, 8)) @ q.T
    theta = SymElement.from_dense(-0.5 * (n + n.T))
    with pytest.raises(sp.TiltError, match="Schur complement"):
        sp.RieszSpec.build(u=[1, 0, 1, 0, 1, 0, 1, 0], theta=theta)


def test_spec_rejects_a_tilt_whose_inverse_overflows():
    # these tilts pass the eigenvalue margin, but the symmetrized inverse is
    # not finite (at 6e-309 the inverse is, but not the sum of it and its
    # transpose); construction must refuse them instead of the writers
    # meeting the draws
    for c in (1e-310, 6e-309):
        tiny = SymElement.from_dense(-c * np.eye(2))
        for u, what in (([1.0, 1.0], "Schur complement"), ([1.0, 0.0], "trailing tilt block")):
            with pytest.raises(sp.TiltError, match=f"{what} has an inverse that overflows"):
                sp.RieszSpec.build(u=u, theta=tiny)
    # a tilt of 1e200 builds, and its draws are finite and nonzero
    huge = SymElement.from_dense(-1e200 * np.eye(2))
    m = sp.sample_riesz(sp.RieszSpec.build(u=[1.0, 1.0], theta=huge, count=50)).matrices
    assert np.isfinite(m).all() and (np.diagonal(m, axis1=1, axis2=2) > 0).all()


def test_spec_rejects_a_tilt_whose_draws_would_overflow():
    # (-theta)^{-1} = 8.3e307 I and 2e307 I are finite, but a draw's diagonal
    # is that times a Gamma(1) or larger variate, and one in a few passes the
    # largest float at 1.2e-308 (one in ~4 000 at 5e-308): construction must
    # refuse both, whatever the count and whether a run has a tail
    for c in (1.2e-308, 5e-308):
        tiny = SymElement.from_dense(-c * np.eye(2))
        for u in ([1.0, 1.0], [1.0, 0.0], [0.0, 1.0]):
            with pytest.raises(sp.TiltError, match="too small for its draws"):
                sp.RieszSpec.build(u=u, theta=tiny)
    # 1e-300 and 1e200 keep sampling, and their draws are finite
    for c in (1e-300, 1e200):
        theta = SymElement.from_dense(-c * np.eye(2))
        m = sp.sample_riesz(sp.RieszSpec.build(u=[1.0, 1.0], theta=theta, count=50)).matrices
        assert np.isfinite(m).all() and (np.diagonal(m, axis1=1, axis2=2) > 0).all()


def test_spec_seed_range():
    # seeds go into the stream key as two 32-bit words, so values outside
    # [0, 2**64) have no key of their own and are refused
    for bad in (-1, 1 << 64):
        with pytest.raises(sp.SamplerError, match="seed"):
            sp.RieszSpec.build(u=[1.0], seed=bad)
    top = sp.RieszSpec.build(u=[1.0], seed=(1 << 64) - 1, count=3)
    zero = sp.RieszSpec.build(u=[1.0], seed=0, count=3)
    assert not np.array_equal(sp.sample_riesz(top).matrices,
                              sp.sample_riesz(zero).matrices)


def test_spec_gamma_shapes_are_the_runs_u():
    # a plan's shapes are u itself; (u_p + p/2) - p/2 read 0.30000000000000004
    assert sp.RieszSpec.build(u=[0.1, 0.3]).plans[0].shapes.tolist() == [0.1, 0.3]


def test_spec_json_takes_s_or_u():
    by_s = sp.RieszSpec.from_json_dict({"s": [1.2, 0.5, 1.2, 1.0], "n": 3})
    by_u = sp.RieszSpec.from_json_dict({"u": [1.2, 0, 0.7, 0], "n": 3})
    assert by_u.param == by_s.param
    assert by_u.digest() == by_s.digest()
    # a spec's own JSON carries both; it reads back to the same parameter,
    # also when it was built from a u whose round trip through s is not exact
    for built in (sp.RieszSpec.build(u=[0.1, 0.3], seed=2, count=4),
                  sp.RieszSpec.build(s=[0.1, 0.8], seed=2, count=4)):
        back = sp.RieszSpec.from_json_dict(built.to_json_dict())
        assert back.param == built.param and back.digest() == built.digest()
    assert sp.RieszSpec.build(u=[0.1, 0.3]).param != sp.RieszSpec.build(s=[0.1, 0.8]).param
    for bad in ({"n": 3}, {"s": [1.0, 1.0], "u": [1.0, 1.0]}, {"s": [1.0], "u": [1.0, 1.0]}):
        with pytest.raises(sp.SamplerError):
            sp.RieszSpec.from_json_dict(bad)


@settings(deadline=None, max_examples=200)
@given(st.integers(1, 8), st.integers(0, 2**32 - 1), st.sampled_from([0.5, 1.0, 2.0]),
       st.booleans())
def test_a_snapped_law_keeps_its_s_through_u_the_partition_and_the_spec(r, seed, d, dyadic):
    # s misses the boundary by 2^-30 at each zero u, and zero_tol = 2^-20 snaps it back:
    # the s kept is the snapped law's own, so no map downstream names another law
    rng = np.random.default_rng(seed)
    u = rng.integers(0, 161, size=r) / 32.0 if dyadic else rng.uniform(0.0, 5.0, size=r)
    u[rng.random(size=r) < 0.4] = 0.0
    s = s_from_u(u, d)
    s[u == 0.0] += rng.choice([-2.0 ** -30, 2.0 ** -30], size=r)[u == 0.0]
    param = u_from_s(s, d, zero_tol=2.0 ** -20)
    assert u_from_s(param.s, d) == param
    if dyadic:  # every sum is exact on the grid
        total = np.zeros(r)
        for block in build_partition(param).s_blocks:
            total += block
        assert tuple(total.tolist()) == param.s
    if d == 1.0:
        q, _ = np.linalg.qr(rng.standard_normal((r, r)))
        m = -(q * np.geomspace(1.0, 1e3, r)) @ q.T
        spec = sp.RieszSpec.build(s=s, theta=SymElement.from_dense(0.5 * (m + m.T)),
                                  seed=seed, count=3, zero_tol=2.0 ** -20)
        assert spec.param == param
        back = sp.RieszSpec.from_json_dict(json.loads(json.dumps(spec.to_json_dict())))
        assert back.param == param and back.digest() == spec.digest()


@settings(deadline=None, max_examples=200)
@given(st.integers(1, 8), st.integers(0, 2**32 - 1), st.booleans(), st.floats(0.0, 8.0))
def test_a_random_spec_reads_back_through_json_with_its_digest(r, seed, from_s, log_cond):
    # each u_p is 0 or log-uniform in [1e-3, 10], and the tilt's condition
    # number reaches 1e8: the spec's JSON keeps the law, the digest and every bit of theta
    rng = np.random.default_rng(seed)
    u = 10.0 ** rng.uniform(-3.0, 1.0, size=r)
    u[rng.random(size=r) < 0.3] = 0.0
    q, _ = np.linalg.qr(rng.standard_normal((r, r)))
    m = -(q * np.geomspace(1.0, 10.0 ** log_cond, r)) @ q.T
    param = {"s": s_from_u(u).tolist()} if from_s else {"u": u.tolist()}
    spec = sp.RieszSpec.build(**param, theta=SymElement.from_dense(0.5 * (m + m.T)),
                              seed=seed, count=3)
    back = sp.RieszSpec.from_json_dict(json.loads(json.dumps(spec.to_json_dict())))
    assert back.param == spec.param and back.digest() == spec.digest()
    assert back.theta.matrix.tobytes() == spec.theta.matrix.tobytes()


@settings(deadline=None, max_examples=100)
@given(st.integers(1, 8), st.integers(0, 2**32 - 1), st.floats(0.0, 8.0))
def test_random_laws_stream_finite_symmetric_chunks_that_make_up_the_batch(r, seed, log_cond):
    # each u_p is 0 or log-uniform in [1e-3, 10], and the tilt's condition
    # number reaches 1e8; two chunks, the second partial
    rng = np.random.default_rng(seed)
    u = 10.0 ** rng.uniform(-3.0, 1.0, size=r)
    u[rng.random(size=r) < 0.3] = 0.0
    q, _ = np.linalg.qr(rng.standard_normal((r, r)))
    m = -(q * np.geomspace(1.0, 10.0 ** log_cond, r)) @ q.T
    spec = sp.RieszSpec.build(u=u.tolist(), theta=SymElement.from_dense(0.5 * (m + m.T)),
                              seed=seed, count=sp.CHUNK + 37)
    chunks = list(sp.sample_chunks(spec))
    for chunk in chunks:
        assert np.isfinite(chunk).all()
        assert chunk.tobytes() == np.ascontiguousarray(chunk.swapaxes(1, 2)).tobytes()
    batch = sp.sample_riesz(spec).matrices
    assert np.concatenate(chunks).tobytes() == batch.tobytes()


@settings(deadline=None, max_examples=200)
@given(st.integers(1, 8), st.integers(0, 2**32 - 1), st.floats(0.0, 8.0))
def test_the_runs_means_placed_at_their_starts_sum_to_the_closed_form_mean(r, seed, log_cond):
    # E[X] = t diag(s) t^T with t t^T = (-theta)^{-1} (Gindikin), for each u_p 0 or
    # log-uniform in [1e-3, 10] and tilts of condition up to 1e8.  Over 1 000 such
    # laws the relative error, in the Frobenius norm, stayed below 1.24 eps cond^2,
    # and reached 6.2e-5 at cond 10^7.6 (it grows from the plans' Schur complements);
    # the bound is ten times that
    rng = np.random.default_rng(seed)
    u = 10.0 ** rng.uniform(-3.0, 1.0, size=r)
    u[rng.random(size=r) < 0.3] = 0.0
    q, _ = np.linalg.qr(rng.standard_normal((r, r)))
    cond = 10.0 ** log_cond
    m = -(q * np.geomspace(1.0, cond, r)) @ q.T
    spec = sp.RieszSpec.build(u=u.tolist(), theta=SymElement.from_dense(0.5 * (m + m.T)))
    got = np.zeros((r, r))
    for plan in spec.plans:
        got[plan.start:, plan.start:] += sp._run_mean(
            plan.core_chol, plan.coupling, plan.noise_chol,
            plan.shapes + 0.5 * np.arange(plan.width))
    t = np.linalg.cholesky(np.linalg.inv(-spec.theta.matrix))
    want = (t * spec.param.s) @ t.T
    bound = 12.4 * np.finfo(float).eps * cond ** 2
    assert np.linalg.norm(got - want) <= bound * np.linalg.norm(want)


def test_spec_json_reads_exactly_the_keys_it_writes():
    spec = sp.RieszSpec.build(u=[1.2, 0.0, 0.7], theta=nd_tilt(3), seed=5, count=4)
    obj = spec.to_json_dict()
    assert sp.RieszSpec.from_json_dict(obj).digest() == spec.digest()
    # every key it writes is read, each on its own beside the parameter
    for key in obj:
        assert sp.RieszSpec.from_json_dict({"u": obj["u"], key: obj[key]}).param == spec.param
    # and no other key: each of these would be dropped unread
    for key in ("N", "R", "zero_tol", "count", "workers", "partition", "spec", ""):
        with pytest.raises(sp.SamplerError, match="does not write"):
            sp.RieszSpec.from_json_dict({**obj, key: obj["n"]})
    # "r" is read as a check: the JSON integer len(s), and nothing else
    for r in (2, 4, 3.0, "3", True, None):
        with pytest.raises(sp.SamplerError, match='"r"'):
            sp.RieszSpec.from_json_dict({**obj, "r": r})


def test_spec_json_requires_integers():
    base = {"s": [1.0, 1.0], "seed": 3, "n": 2}
    assert sp.RieszSpec.from_json_dict(base).count == 2
    for key, value in (("n", 2.9), ("n", 2.0), ("n", "2"), ("n", True),
                       ("seed", 1.7), ("seed", "3"), ("seed", -1)):
        with pytest.raises(sp.SamplerError):
            sp.RieszSpec.from_json_dict({**base, key: value})


# ------------------------------------------------------------ batch sampling


def test_sample_riesz_bitwise_reproducible():
    spec = sp.RieszSpec.build(s=[1.2, 0.5, 1.2, 1.0], theta=nd_tilt(4),
                              seed=3, count=40)
    a = sp.sample_riesz(spec).matrices
    b = sp.sample_riesz(spec).matrices
    assert np.array_equal(a, b)


def test_sample_riesz_workers_do_not_change_bits():
    # two chunk boundaries and a partial last chunk; every chunk is drawn on
    # the calling thread, so the worker count must not change a bit
    spec = sp.RieszSpec.build(u=[0.9, 0.0, 1.3], theta=nd_tilt(3, seed=4),
                              seed=21, count=2 * sp.CHUNK + 7)
    one = sp.sample_riesz(spec, workers=1).matrices
    for w in (2, 3, 7):
        assert np.array_equal(sp.sample_riesz(spec, workers=w).matrices, one)


def test_sample_riesz_streams_are_per_index():
    # sample i depends only on (seed, i // CHUNK), and a partial chunk is a
    # truncated full one, so a longer run extends a shorter one without
    # disturbing the prefix; the short run ends part-way through chunk 1
    n_short, n_long = sp.CHUNK + 3, 2 * sp.CHUNK + 7
    short = sp.sample_riesz(sp.RieszSpec.build(u=[1.1, 0.6], seed=8, count=n_short))
    long = sp.sample_riesz(sp.RieszSpec.build(u=[1.1, 0.6], seed=8, count=n_long))
    assert np.array_equal(short.matrices, long.matrices[:n_short])
    other = sp.sample_riesz(sp.RieszSpec.build(u=[1.1, 0.6], seed=9, count=n_short))
    assert not np.array_equal(short.matrices, other.matrices)


def test_sample_riesz_draws_are_exactly_symmetric():
    # SymElement packs the upper triangle and the CLI writes it, so a draw
    # must equal its transpose bit for bit; two runs (widths 2 and 3) with
    # coupling tails, under a rotated tilt of condition number 1e3
    rng = np.random.default_rng(12)
    q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
    theta = SymElement.from_dense(-(q * np.geomspace(1e-3, 1.0, 6)) @ q.T)
    spec = sp.RieszSpec.build(u=[1.5, 0.8, 0.0, 1.2, 0.6, 1.1], theta=theta,
                              seed=4, count=2 * sp.CHUNK + 7)
    m = sp.sample_riesz(spec, workers=2).matrices
    assert np.array_equal(m, m.swapaxes(1, 2))


def _reference_draw_sum(plans, rng, out):
    """A plain copy of ``_draw_sum``: each run's products as one product over
    the chunk's draws side by side, the runs' factors side by side in one
    stack S, one Gram product S S^T, and the index arrays built afresh."""
    n, r = len(out), out.shape[-1]
    s = np.zeros((n, r, sum(plan.width for plan in plans)))
    col = 0
    for plan in plans:
        g, o, z = sp._draw_block(plan, rng, n)
        w, tail = plan.width, plan.tail
        t = np.zeros((w, n, w))
        t[np.arange(w), :, np.arange(w)] = np.sqrt(g).T
        if w > 1:
            rows, cols = np.tril_indices(w, -1)
            t[rows, :, cols] = (o * np.sqrt(0.5)).T
        m = np.empty((w + tail, n, w))
        m[:w] = (plan.core_chol @ t.reshape(w, n * w)).reshape(w, n, w)
        if tail:
            z = np.ascontiguousarray(z.swapaxes(0, 1)).reshape(tail, n * w)
            m[w:] = (plan.coupling.T @ m[:w].reshape(w, n * w)
                     + plan.noise_chol @ z).reshape(tail, n, w)
        s[:, plan.start:, col:col + w] = m.swapaxes(0, 1)
        col += w
    out[...] = s @ np.ascontiguousarray(s.swapaxes(1, 2))
    rows, cols = np.triu_indices(r, 1)
    out[:, cols, rows] = out[:, rows, cols]


@pytest.mark.parametrize("u, cond, scale", [
    ([0.7], 1.0, 1.0),
    ([1.0, 1e-300], 1.0, 1.0),
    ([0.5, 0.0], 10.0, 1.0),
    ([0.3, 0.9, 1.4], 1e8, 1.0),
    ([1.2, 0.0, 0.7, 0.0], 1e3, 1e-150),
    ([0.0, 2.5, 0.2, 0.0, 1.1], 1e5, 1e150),
    ([0.4, 0.0, 0.0, 3.0, 0.9, 0.0], 1e8, 1.0),
    ([0.6, 1.7, 0.0, 0.1, 0.0, 2.2, 0.8], 1e2, 1.0),
    ([1.5, 0.8, 0.0, 1.2, 0.6, 0.9, 0.0, 0.0], 10.0, 1.0),
    ([0.9, 0.0, 0.0], 1e4, 1.0),
    ([1.3, 0.6, 0.0], 1e2, 1.0),
    ([1.1, 0.8, 1.6, 0.0], 1e6, 1e-100),
], ids=["r1", "r2_tiny_u", "r2_half", "r3", "r4", "r5", "r6", "r7", "r8",
        "r3_w1_tail2", "r3_w2_tail1", "r4_w3_tail1"])
def test_draw_sum_keeps_the_reference_bits(u, cond, scale):
    # the sampler's bits must stay those of the plain copy above; which
    # kernel OpenBLAS runs is chosen on the CPU at hand, so this is checked
    # where the tests run.  Two chunks, the second partial; shapes below 1,
    # u_p = 1e-300, and rotated tilts of condition up to 1e8 at scales
    # 1e-150..1e150.  numpy picks its BLAS call by the operands' shapes, so
    # the runs (width, tail) cover every shape that sampling._each_draw
    # meets: width 1 with tail 0, 1 and >= 2 (r1, r2_half, r3_w1_tail2),
    # widths 2 and 3 with tail 1 (r3_w2_tail1, r4_w3_tail1), width >= 2
    # with tail >= 2 (r5, r8) and with tail 0 (r3, r7)
    r = len(u)
    q = np.linalg.qr(np.random.default_rng(r).standard_normal((r, r)))[0]
    neg = (q * np.geomspace(1.0, cond, r)) @ q.T
    theta = SymElement.from_dense(-0.5 * scale * (neg + neg.T))
    spec = sp.RieszSpec.build(u=u, theta=theta, seed=r, count=sp.CHUNK + 37)
    want = np.empty((2 * sp.CHUNK, r, r))
    for c in range(2):
        _reference_draw_sum(spec.plans, sp.sample_stream(spec.seed, c),
                            want[c * sp.CHUNK:(c + 1) * sp.CHUNK])
    got = sp.sample_riesz(spec).matrices
    assert got.tobytes() == want[:spec.count].tobytes()


def test_draw_sum_keeps_the_reference_bits_on_random_laws():
    # one chunk of each of 60 seeded random laws at r = 1..8, on rotated tilts
    # of condition up to 1e4; the sweep must meet every operand shape class
    # of sampling._each_draw's products (width 1 or >= 2, tail 0, 1 or >= 2)
    rng = np.random.default_rng(19)
    classes = set()
    for k in range(60):
        r = int(rng.integers(1, 9))
        u = rng.integers(0, 4097, size=r) / 1024.0
        u[rng.random(r) < 0.4] = 0.0
        q = np.linalg.qr(rng.standard_normal((r, r)))[0]
        neg = (q * np.geomspace(1.0, 10.0 ** rng.uniform(0.0, 4.0), r)) @ q.T
        spec = sp.RieszSpec.build(u=list(u), theta=SymElement.from_dense(-0.5 * (neg + neg.T)),
                                  seed=k, count=sp.CHUNK)
        classes |= {(min(p.width, 2), min(p.tail, 2)) for p in spec.plans}
        want = np.empty((sp.CHUNK, r, r))
        _reference_draw_sum(spec.plans, sp.sample_stream(spec.seed, 0), want)
        got = sp.sample_riesz(spec).matrices
        assert got.tobytes() == want.tobytes(), f"law {k}: u = {u.tolist()}"
    assert classes == {(w, tail) for w in (1, 2) for tail in (0, 1, 2)}


def _run_shape_laws(r):
    """u vectors at rank r whose runs have width 1 or tail 0: one full-width
    run, a run that ends at index r after p leading zeros, a lone width-1 run
    at p, and a width-1 run at p beside a width-1 run at the last index."""
    yield [1.0 + k / 7 for k in range(r)]
    for p in range(r):
        yield [0.0] * p + [0.4 + k / 5 for k in range(r - p)]
        yield [0.0] * p + [0.6 + p / 3] + [0.0] * (r - p - 1)
        if p < r - 2:
            yield [0.0] * p + [0.3] + [0.0] * (r - p - 2) + [1.7]


def test_draw_sum_keeps_the_reference_bits_on_every_run_shape():
    # the sampler has one path for every run: a run of width 1 and a run with
    # tail 0 go through the same products as any other, with zero-size
    # operands, and must give the bits of the branched plain copy above.
    # Every such law at r = 1..8, one chunk on a rotated tilt of condition
    # 1e3 and one on -2.5 I, whose off-diagonal zeros are negative
    classes = set()
    for r in range(1, 9):
        q = np.linalg.qr(np.random.default_rng(r).standard_normal((r, r)))[0]
        neg = (q * np.geomspace(1.0, 1e3, r)) @ q.T
        for theta in (SymElement.from_dense(-0.5 * (neg + neg.T)), SymElement(-2.5 * np.eye(r))):
            for u in _run_shape_laws(r):
                spec = sp.RieszSpec.build(u=u, theta=theta, seed=r, count=sp.CHUNK)
                classes |= {(min(p.width, 2), min(p.tail, 1)) for p in spec.plans}
                want, got = np.empty((2, sp.CHUNK, r, r))
                _reference_draw_sum(spec.plans, sp.sample_stream(spec.seed, 0), want)
                sp._draw_sum(spec.plans, sp.sample_stream(spec.seed, 0), got)
                assert got.tobytes() == want.tobytes(), f"u = {u}, theta = {theta}"
    assert classes == {(1, 0), (2, 0), (1, 1)}


def test_sample_riesz_zero_parameter_is_point_mass_at_zero():
    batch = sp.sample_riesz(sp.RieszSpec.build(u=[0.0, 0.0, 0.0], count=7))
    assert np.array_equal(batch.matrices, np.zeros((7, 3, 3)))


def test_sample_riesz_rank_matches_support():
    spec = sp.RieszSpec.build(u=[1.2, 0.0, 0.7, 0.0], theta=nd_tilt(4, seed=6),
                              seed=2, count=300)
    batch = sp.sample_riesz(spec)
    ev = np.linalg.eigvalsh(batch.matrices)
    ranks = np.sum(ev > 1e-8 * ev[:, -1:], axis=1)
    assert np.all(ranks == 2)
    assert np.all(ev[:, 0] > -1e-10 * ev[:, -1])


def test_batch_accessors_agree():
    spec = sp.RieszSpec.build(u=[1.0, 0.5], seed=5, count=6)
    batch = sp.sample_riesz(spec)
    assert len(batch) == 6
    assert_allclose(batch.mean(), batch.matrices.mean(axis=0), atol=0)


def test_batch_refuses_a_stack_of_the_wrong_shape():
    spec = sp.RieszSpec.build(u=[1.0, 0.5], seed=5, count=6)
    for shape in [(5, 2, 2), (6, 3, 3), (6, 2), (6, 2, 2, 1)]:
        with pytest.raises(sp.SamplerError, match="matrix stack has shape"):
            sp.SampleBatch(spec, np.zeros(shape))


def test_rank_one_law_matches_gaussian_oracle():
    """For s = (1/2, 1/2, 1/2) under tilt theta the draw is z z^T with
    z ~ N(0, (-2 theta)^{-1}); compare sample mean entrywise."""
    theta = nd_tilt(3, seed=13)
    spec = sp.RieszSpec.build(s=[0.5, 0.5, 0.5], theta=theta, seed=77,
                              count=30000)
    batch = sp.sample_riesz(spec, workers=2)
    cov = 0.5 * np.linalg.inv(-theta.matrix)
    got = batch.mean()
    se = batch.matrices.std(axis=0, ddof=1) / math.sqrt(len(batch))
    assert np.all(np.abs(got - cov) < 5 * se)


def test_mean_under_unit_tilt_is_diagonal_s():
    spec = sp.RieszSpec.build(u=[0.8, 0.0, 1.1], seed=31, count=30000)
    batch = sp.sample_riesz(spec, workers=2)
    want = np.diag(spec.param.s)
    se = batch.matrices.std(axis=0, ddof=1) / math.sqrt(len(batch))
    se[se == 0] = 1e-12
    assert np.all(np.abs(batch.mean() - want) < 5 * se)


def test_sample_riesz_rejects_bad_worker_count():
    spec = sp.RieszSpec.build(u=[1.0], count=2)
    for workers in (0, True):
        with pytest.raises(sp.SamplerError):
            sp.sample_riesz(spec, workers=workers)
        with pytest.raises(sp.SamplerError):
            sp.sample_chunks(spec, workers=workers)


# ------------------------------------------------------------------- density


def test_log_density_rank_one_matches_gamma():
    # in rank one the measure is the Gamma(s) law with the e^{-x} factor
    # stripped, so log f(x) = gamma logpdf + x
    for s, x in [(0.7, 0.3), (2.0, 1.7), (5.5, 4.0)]:
        got = sp.log_density_ac([s], SymElement.from_dense([[x]]))
        want = stats.gamma.logpdf(x, s) + x
        assert got == pytest.approx(want, rel=1e-12)


def test_log_density_diagonal_frozen_value():
    # s = (2, 1.5): shifted exponent (0.5, 0), normalizer sqrt(2 pi)*Gamma(2)*Gamma(1)
    x = SymElement.from_dense(np.diag([4.0, 9.0]))
    got = sp.log_density_ac([2.0, 1.5], x)
    want = 0.5 * math.log(4.0) - 0.5 * math.log(2 * math.pi)
    assert got == pytest.approx(want, rel=1e-12)


def test_log_density_is_translation_consistent():
    rng = np.random.default_rng(41)
    m = rng.standard_normal((3, 3))
    x = SymElement.from_dense(m @ m.T + 0.5 * np.eye(3))
    s = np.array([2.0, 1.8, 1.6])
    # bumping every exponent by 1 multiplies the density by det(x)/c
    lo = sp.log_density_ac(s, x)
    hi = sp.log_density_ac(s + 1.0, x)
    from rieszcone.gindikin import log_gamma_omega

    want = math.log(np.linalg.det(x.matrix))
    want -= log_gamma_omega(s + 1.0) - log_gamma_omega(s)
    assert hi - lo == pytest.approx(want, rel=1e-10)


@pytest.mark.parametrize("c", [1e200, 1e-200])
def test_log_density_at_extreme_scales(c):
    # log p(c x) = log p(x) + sum_k (s_k - (r+1)/2) log c; at these scales a
    # leading minor of c x overflows or underflows, and neither may refuse
    # the point or warn
    rng = np.random.default_rng(43)
    m = rng.standard_normal((3, 3))
    x = m @ m.T + 0.5 * np.eye(3)
    s = np.array([2.0, 1.8, 1.6])
    want = sp.log_density_ac(s, SymElement.from_dense(x)) + (s - 2.0).sum() * math.log(c)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = sp.log_density_ac(s, SymElement.from_dense(c * x))
    assert got == pytest.approx(want, rel=1e-13)
    with pytest.raises(sp.SamplerError, match="not in the open cone"):
        sp.log_density_ac(s, SymElement.from_dense(c * np.diag([1.0, 1.0, -1.0])))


def test_log_density_where_entries_span_past_the_float_range():
    # Delta_2 = 1e600 and Delta_3 = 1e300 are past the float range, but no
    # pivot is; with s = (3, 3, 3, 3) the shifted exponents are all 1/2
    s = [3.0, 3.0, 3.0, 3.0]
    want = -log_gamma_omega(s)
    x = SymElement.from_dense(np.diag([1e300, 1e300, 1e-300, 1e-300]))
    assert sp.log_density_ac(s, x) == pytest.approx(want, rel=1e-14)
    # a coupled pair: a_12^2 = 2.5e599 overflows, a_12 (a_12 / a_11) does not
    x = SymElement.from_dense([[1e300, 5e299, 0, 0], [5e299, 1e300, 0, 0],
                               [0, 0, 1e-300, 0], [0, 0, 0, 1e-300]])
    assert sp.log_density_ac(s, x) == pytest.approx(want + 0.5 * math.log(0.75),
                                                    rel=1e-14)


def test_log_density_refusals():
    x2 = SymElement.from_dense(np.eye(2))
    with pytest.raises(sp.NonSamplableError, match="no density"):
        sp.log_density_ac([0.5, 0.5], x2)  # singular parameter
    # u_2 = 1e-10: a density without a tolerance, none once zero_tol snaps it to 0
    assert math.isfinite(sp.log_density_ac([1.0, 0.5 + 1e-10], x2))
    with pytest.raises(sp.NonSamplableError, match="no density"):
        sp.log_density_ac([1.0, 0.5 + 1e-10], x2, zero_tol=1e-9)
    with pytest.raises(sp.SamplerError):
        sp.log_density_ac([1.0, 1.0], SymElement.from_dense(np.diag([1.0, 0.0])))
    with pytest.raises(sp.SamplerError):
        sp.log_density_ac([1.0, 1.0, 1.0], x2)


# -------------------------------------------------------------------- output


def test_write_ndjson_layout():
    spec = sp.RieszSpec.build(s=[1.0, 0.5], seed=1, count=3)
    batch = sp.sample_riesz(spec)
    buf = io.StringIO()
    sp.write_ndjson(spec, sp.sample_chunks(spec), buf)
    lines = buf.getvalue().splitlines()
    assert len(lines) == 4
    header = json.loads(lines[0])
    assert header["spec"]["s"] == [1.0, 0.5]
    assert header["partition"]["k"] == 1
    for i, line in enumerate(lines[1:]):
        el = SymElement.from_json_dict(json.loads(line))
        assert np.array_equal(el.matrix, batch.matrices[i])


# The writers as they were before output was streamed, kept as the reference:
# one SymElement and json.dumps per draw, and csv.writer with one
# repr per value.  The streamed writers must reproduce their bytes exactly.


def _ref_header(spec):
    return {"spec": spec.to_json_dict(), "partition": spec.partition.to_json_dict()}


def ref_ndjson(spec, matrices):
    lines = [json.dumps(_ref_header(spec), separators=(",", ":"))]
    for m in matrices:
        el = SymElement(m)
        lines.append(json.dumps(el.to_json_dict(), separators=(",", ":")))
    return "".join(line + "\n" for line in lines)


def ref_json(spec, matrices):
    doc = dict(_ref_header(spec),
               samples=[SymElement(m).to_json_dict() for m in matrices])
    return json.dumps(doc, indent=2) + "\n"


def ref_csv(spec, matrices):
    rows, cols = np.triu_indices(spec.param.r)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow([f"x_{i + 1}_{j + 1}" for i, j in zip(rows, cols)])
    for row in matrices[:, rows, cols]:
        writer.writerow([repr(float(v)) for v in row])
    return buf.getvalue()


REF_WRITERS = {"ndjson": ref_ndjson, "json": ref_json, "csv": ref_csv}


def rotated_tilt(r, seed, lo=0.5, hi=5.0):
    """Dense tilt whose -theta has eigenvalues spread over [lo, hi]."""
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((r, r)))
    lam = np.sort(rng.uniform(lo, hi, r))
    lam[0], lam[-1] = lo, hi
    neg = (q * lam) @ q.T
    return -0.5 * (neg + neg.T)


WIDE_R8_U = [1.5, 0.8, 0.0, 1.2, 0.6, 0.9, 0.0, 0.0]
WIDE_R8_THETA = json.dumps({"r": 8, "data": rotated_tilt(8, 5).tolist()})

# (u, theta as CLI JSON or None, seed, workers): r = 1, the README law and a
# wide r = 8 law under a rotated tilt, each over two chunk boundaries
WRITER_CASES = {
    "r1": ([0.7], None, 3, 1),
    "readme": ([1.2, 0.0, 0.7, 0.0], None, 42, 1),
    "wide_r8_w1": (WIDE_R8_U, WIDE_R8_THETA, 9, 1),
    "wide_r8_w2": (WIDE_R8_U, WIDE_R8_THETA, 9, 2),
}


@pytest.mark.parametrize("fmt", sorted(REF_WRITERS))
@pytest.mark.parametrize("case", sorted(WRITER_CASES))
def test_cli_output_matches_reference_writers(tmp_path, capsys, case, fmt):
    u, theta, seed, workers = WRITER_CASES[case]
    n = 2 * sp.CHUNK + 7
    path = tmp_path / f"draws.{fmt}"
    argv = ["sample", "--u", ",".join(map(repr, u)), "--n", str(n),
            "--seed", str(seed), "--workers", str(workers),
            "--format", fmt, "--out", str(path)]
    if theta is not None:
        argv += ["--theta", theta]
    assert cli.main(argv) == 0
    capsys.readouterr()
    spec = sp.RieszSpec.build(
        u=u, theta=None if theta is None else SymElement.from_json_dict(json.loads(theta)),
        seed=seed, count=n)
    want = REF_WRITERS[fmt](spec, sp.sample_riesz(spec).matrices)
    assert path.read_bytes() == want.encode()


WRITERS = {"ndjson": sp.write_ndjson, "json": sp.write_json, "csv": sp.write_csv}


def edge_chunk():
    """Two symmetric 3 x 3 draws whose entries stress float formatting."""
    upper = [[5e-324, 1e-7, 1e16, 1e22, -0.0, 0.1 + 0.2],   # repr of 0.1 + 0.2 has 17 digits
             [2.0, -1.5e-300, 123456789.125, 1e-5, 0.0, 1.7976931348623157e308]]
    rows, cols = np.triu_indices(3)
    chunk = np.empty((2, 3, 3))
    chunk[:, rows, cols] = upper
    chunk[:, cols, rows] = upper
    return chunk


@pytest.mark.parametrize("fmt", sorted(WRITERS))
def test_writers_match_reference_on_edge_floats(fmt):
    spec = sp.RieszSpec.build(u=[1.0, 1.0, 1.0], count=4)
    chunk = edge_chunk()
    buf = io.StringIO()
    # two chunks, so the join between chunks is covered too
    WRITERS[fmt](spec, [chunk, chunk[::-1]], buf)
    assert buf.getvalue() == REF_WRITERS[fmt](spec, np.concatenate([chunk, chunk[::-1]]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("fmt", sorted(WRITERS))
def test_writers_refuse_non_finite_draws(fmt, bad):
    spec = sp.RieszSpec.build(u=[1.0, 1.0, 1.0], count=4)
    chunk = edge_chunk()
    chunk[1, 0, 2] = chunk[1, 2, 0] = bad
    with pytest.raises(sp.SamplerError, match="draw 3 has a non-finite entry"):
        WRITERS[fmt](spec, [edge_chunk(), chunk], io.StringIO())


# r = 1 is the one-field draw in every format; n = 1, CHUNK, CHUNK + 1
# and SLICE + 1 put a draw on each edge of a chunk and of a writer's slice
@pytest.mark.parametrize("n", [1, sp.SLICE + 1, sp.CHUNK, sp.CHUNK + 1])
@pytest.mark.parametrize("u", [[0.7], [1.2, 0.0, 0.7, 0.0]], ids=["r1", "readme"])
@pytest.mark.parametrize("fmt", sorted(WRITERS))
def test_writers_match_reference_at_chunk_and_slice_edges(fmt, u, n):
    spec = sp.RieszSpec.build(u=u, seed=13, count=n)
    buf = io.StringIO()
    WRITERS[fmt](spec, sp.sample_chunks(spec), buf)
    assert buf.getvalue() == REF_WRITERS[fmt](spec, sp.sample_riesz(spec).matrices)


@pytest.mark.parametrize("fmt", sorted(WRITERS))
def test_writers_refuse_a_non_finite_draw_past_a_slice_edge(fmt):
    # the bad draw sits in the second slice of the second chunk: the error
    # names it, and nothing of its chunk is written
    spec = sp.RieszSpec.build(u=[1.2, 0.0, 0.7, 0.0], seed=13, count=2 * sp.CHUNK)
    first, second = sp.sample_chunks(spec)
    second = second.copy()
    second[sp.SLICE + 1, 3, 2] = second[sp.SLICE + 1, 2, 3] = np.nan
    buf = io.StringIO()
    with pytest.raises(sp.SamplerError,
                       match=f"draw {sp.CHUNK + sp.SLICE + 1} has a non-finite entry"):
        WRITERS[fmt](spec, [first, second], buf)
    want = REF_WRITERS[fmt](spec, first)
    tail = "\n  ]\n}\n" if fmt == "json" else ""
    assert buf.getvalue() + tail == want


class _NullSink:
    def write(self, text):
        pass


@pytest.mark.parametrize("fmt", ["ndjson", "csv"])
def test_writer_memory_is_bounded_by_its_slices(fmt):
    # writing two full chunks at r = 16 may peak at no more than twice one
    # chunk's text (ndjson 0.9, csv 1.4 with 128-draw slices), hold next to
    # nothing while the next chunk is drawn, and keep nothing: one gather
    # over a whole chunk peaks at 3.6 (ndjson) and 5.7 (csv), a slice's
    # strings held into the next draw read 0.6 of the text, and a cached
    # per-field index of Python ints stays behind
    spec = sp.RieszSpec.build(u=[1.0] * 16, seed=1, count=2 * sp.CHUNK)
    chunks = list(sp.sample_chunks(spec))
    held = []

    def watched():
        for chunk in chunks:
            held.append(tracemalloc.get_traced_memory()[0])
            yield chunk

    # the traced write is the first at r = 16, so it would also build a cache
    tracemalloc.start()
    try:
        WRITERS[fmt](spec, watched(), _NullSink())
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    one = io.StringIO()
    WRITERS[fmt](spec, chunks[:1], one)
    text = len(one.getvalue())
    assert peak <= 2 * text, f"peak {peak} B for {text} B of text per chunk"
    assert max(held) <= 0.1 * text, f"{held} B held while drawing"
    assert kept <= 0.01 * text, f"{kept} B kept after writing"


def test_sample_chunks_are_invariant_and_make_up_the_batch():
    # six chunks, the last one partial, drawn with three workers and with one
    spec = sp.RieszSpec.build(u=[0.9, 0.0, 1.3], theta=nd_tilt(3, seed=4),
                              seed=21, count=5 * sp.CHUNK + 7)
    one = list(sp.sample_chunks(spec, workers=1))
    three = list(sp.sample_chunks(spec, workers=3))
    assert [len(c) for c in one] == [sp.CHUNK] * 5 + [7]
    assert len(three) == len(one)
    assert all(a.tobytes() == b.tobytes() for a, b in zip(one, three))
    batch = sp.sample_riesz(spec, workers=2).matrices
    assert np.concatenate(one).tobytes() == batch.tobytes()


def test_draws_run_on_the_calling_thread(monkeypatch):
    seen = []
    draw_sum = sp._draw_sum

    def recording(*args):
        seen.append(threading.get_ident())
        draw_sum(*args)

    monkeypatch.setattr(sp, "_draw_sum", recording)
    spec = sp.RieszSpec.build(u=[0.9, 0.0, 1.3], theta=nd_tilt(3, seed=4),
                              seed=21, count=5 * sp.CHUNK + 7)
    sp.sample_riesz(spec, workers=4)
    assert seen == [threading.get_ident()] * 6
