import csv
import io
import json
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import stats
from scipy.special import gammaln

from rieszcone import cli
from rieszcone import sampling as sp
from rieszcone.algebra import SymElement
from rieszcone.gindikin import param_from_u


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


def test_sample_gamma_draw_budget():
    # shape >= 1 consumes one gamma draw, shape < 1 a gamma then a uniform;
    # downstream code relies on this accounting for reproducibility
    rng = sp.sample_stream(0, 0)
    sp.sample_gamma(2.5, rng)
    tail_big = rng.random(3)
    rng = sp.sample_stream(0, 0)
    rng.gamma(2.5)
    assert np.array_equal(rng.random(3), tail_big)

    rng = sp.sample_stream(0, 1)
    sp.sample_gamma(0.4, rng)
    tail_small = rng.random(3)
    rng = sp.sample_stream(0, 1)
    rng.gamma(1.4)
    rng.random()
    assert np.array_equal(rng.random(3), tail_small)


@pytest.mark.parametrize("shape", [0.15, 0.4, 0.97, 1.0, 2.5])
def test_sample_gamma_distribution(shape):
    rng = sp.sample_stream(123, int(shape * 100))
    draws = np.array([sp.sample_gamma(shape, rng) for _ in range(4000)])
    assert np.all(draws > 0)
    # fixed stream, so this p-value is deterministic
    assert stats.kstest(draws, "gamma", args=(shape,)).pvalue > 1e-4


def test_sample_gamma_rejects_nonpositive_shape():
    rng = sp.sample_stream(0, 0)
    with pytest.raises(sp.SamplerError):
        sp.sample_gamma(0.0, rng)


# ------------------------------------------------------------------ one run


def test_ac_block_is_positive_definite():
    # u = (0.8, 0.9, 1.0) is one full-width run, core parameter (0.8, 1.4, 2.0)
    spec = sp.RieszSpec.build(u=[0.8, 0.9, 1.0], seed=5, count=50)
    assert spec.partition.u_blocks == ((0.8, 1.4, 2.0),)
    for x in sp.sample_riesz(spec).matrices:
        assert np.array_equal(x, x.T)
        assert np.linalg.eigvalsh(x)[0] > 0


def test_ac_block_validates_inputs():
    # the core parameters of a run are validated when the spec is built:
    # u = (1, 1e-300) passes admissibility, but its second gamma shape
    # (1e-300 + 1/2) - 1/2 rounds to zero
    with pytest.raises(sp.SamplerError, match="gamma shape"):
        sp.RieszSpec.build(u=[1.0, 1e-300])
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
    assert np.array_equal(back.theta.dense(), spec.theta.dense())


def test_spec_default_tilt_is_minus_identity():
    spec = sp.RieszSpec.build(u=[1.0, 1.0])
    assert np.array_equal(spec.theta.dense(), -np.eye(2))
    # serialized form must not carry negative zeros
    flat = json.dumps(spec.to_json_dict())
    assert "-0.0" not in flat


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


def test_spec_seed_range():
    # seeds key Philox directly, so values outside [0, 2**64) would alias
    for bad in (-1, 1 << 64):
        with pytest.raises(sp.SamplerError, match="seed"):
            sp.RieszSpec.build(u=[1.0], seed=bad)
    top = sp.RieszSpec.build(u=[1.0], seed=(1 << 64) - 1, count=3)
    zero = sp.RieszSpec.build(u=[1.0], seed=0, count=3)
    assert not np.array_equal(sp.sample_riesz(top).matrices,
                              sp.sample_riesz(zero).matrices)


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
    # two chunk boundaries and a partial last chunk, so the workers really
    # split the chunks between them
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


def test_rank_one_law_matches_gaussian_oracle():
    """For s = (1/2, 1/2, 1/2) under tilt theta the draw is z z^T with
    z ~ N(0, (-2 theta)^{-1}); compare sample mean entrywise."""
    theta = nd_tilt(3, seed=13)
    spec = sp.RieszSpec.build(s=[0.5, 0.5, 0.5], theta=theta, seed=77,
                              count=30000)
    batch = sp.sample_riesz(spec, workers=2)
    cov = 0.5 * np.linalg.inv(-theta.dense())
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
    with pytest.raises(sp.SamplerError):
        sp.sample_riesz(spec, workers=0)


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

    want = math.log(np.linalg.det(x.dense()))
    want -= log_gamma_omega(s + 1.0, 3) - log_gamma_omega(s, 3)
    assert hi - lo == pytest.approx(want, rel=1e-10)


def test_log_density_refusals():
    x2 = SymElement.from_dense(np.eye(2))
    with pytest.raises(sp.SamplerError, match="no Lebesgue density"):
        sp.log_density_ac([0.5, 0.5], x2)  # singular parameter
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
        assert np.array_equal(el.dense(), batch.matrices[i])


# The writers as they were before output was streamed, kept as the reference:
# one SymElement, dense() and json.dumps per draw, and csv.writer with one
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


def test_sample_chunks_are_invariant_and_make_up_the_batch():
    # six chunks, the last one partial, so three workers refill the queue
    spec = sp.RieszSpec.build(u=[0.9, 0.0, 1.3], theta=nd_tilt(3, seed=4),
                              seed=21, count=5 * sp.CHUNK + 7)
    one = list(sp.sample_chunks(spec, workers=1))
    three = list(sp.sample_chunks(spec, workers=3))
    assert [len(c) for c in one] == [sp.CHUNK] * 5 + [7]
    assert len(three) == len(one)
    assert all(a.tobytes() == b.tobytes() for a, b in zip(one, three))
    batch = sp.sample_riesz(spec, workers=2).matrices
    assert np.concatenate(one).tobytes() == batch.tobytes()
