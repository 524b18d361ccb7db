import dataclasses
import gc
import hashlib
import importlib.util
import json
import math
import pathlib
import subprocess
import sys
import tracemalloc
import weakref

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.special import roots_genlaguerre, roots_jacobi

from rieszcone import algebra, cli, sampling as sp, verify as vf
from rieszcone.algebra import SymElement
from rieszcone.gindikin import (
    build_partition,
    param_from_u,
    s_from_u,
    u_from_s,
)
from rieszcone.sampling import RieszSpec, sample_riesz


def sym(data):
    return SymElement.from_dense(np.asarray(data, dtype=float))


OFFDIAG_TILT = sym([[-1.0, 0.3], [0.3, -1.5]])


# ------------------------------------------------------------ exact transform


def test_laplace_exact_frozen_values():
    assert vf.laplace_exact([1.0, 1.0], sym(-np.eye(2))) == pytest.approx(1.0)
    # (-theta)^{-1} = diag(1/2, 1/4): 0.5^(2-1) * (0.5*0.25)^1
    got = vf.laplace_exact([2.0, 1.0], sym(np.diag([-2.0, -4.0])))
    assert got == pytest.approx(0.0625, rel=1e-13)


def test_laplace_exact_rejections():
    with pytest.raises(vf.TiltError):
        vf.laplace_exact([1.0, 1.0], sym(np.diag([-1.0, 0.0])))
    with pytest.raises(vf.VerifyError):
        vf.laplace_exact([1.0, 1.0, 1.0], sym(-np.eye(2)))
    from rieszcone.gindikin import NotInGindikinSetError

    with pytest.raises(NotInGindikinSetError):
        vf.laplace_exact([0.5, 0.2], sym(-np.eye(2)))


@pytest.mark.parametrize("power", [600, -600])
def test_log_laplace_exact_scale_identity_at_extreme_scale(power):
    # log Delta_s((-c theta)^{-1}) = log Delta_s((-theta)^{-1}) - (sum s) log c;
    # at c = 2^600 a minor of the inverse underflows to 0, at 2^-600 one
    # overflows, so the value must come from the pivots, never the minors
    rng = np.random.default_rng(12)
    a = rng.standard_normal((4, 4))
    theta = sym(-(a @ a.T + 0.5 * np.eye(4)))
    scaled = SymElement(2.0 ** power * theta.matrix)
    y = np.linalg.inv(-scaled.matrix)
    with np.errstate(over="ignore", invalid="ignore"):
        m = np.array([np.linalg.det(y[:k, :k]) for k in range(1, 5)])
    assert not (np.isfinite(m) & (m != 0.0)).all()
    for s in ([1.0, 1.5, 2.0, 2.5], [1.2, 0.5, 1.2, 1.0]):
        want = vf.log_laplace_exact(s, theta) - sum(s) * power * math.log(2.0)
        assert vf.log_laplace_exact(s, scaled) == pytest.approx(want, rel=1e-14)


def test_log_laplace_exact_where_the_inverse_overflows():
    # (-theta)^{-1} = 1e310 I is past the largest float, so the value
    # log Delta_2 = 620 ln 10 must come without forming the inverse
    theta = SymElement(-1e-310 * np.eye(2))
    assert not np.isfinite(np.linalg.inv(-theta.matrix)).all()
    assert vf.log_laplace_exact([1.0, 1.0], theta) == pytest.approx(
        620.0 * math.log(10.0), rel=1e-14)
    # the variance guard 2 zeta - theta = -5e-309 I has such an inverse too
    # (a theta that small has draws that overflow, and no spec holds one):
    # 1 + rho = (1 + 5e-9)^4 / (16 (5e-9)^2) leaves 2 000 draws worth 8e-13
    spec = RieszSpec.build(s=[1.0, 1.0], theta=SymElement(-1e-300 * np.eye(2)),
                           count=2000)
    zeta = SymElement((-5e-301 - 2.5e-309) * np.eye(2))
    assert not np.isfinite(np.linalg.inv(spec.theta.matrix - 2.0 * zeta.matrix)).all()
    with pytest.raises(vf.VarianceGuardError, match="worth 8e-13"):
        vf.laplace_mc_chunks(spec, iter(()), zeta)


@pytest.mark.parametrize("cond", [1e6, 1e9])
def test_log_laplace_exact_under_ill_conditioned_tilts(cond):
    # L(c theta) / L(theta) = c^(-sum s) at any tilt; an inverse of -theta
    # would square its condition number, and at 1e9 lose the third digit
    q, _ = np.linalg.qr(np.random.default_rng(26).standard_normal((8, 8)))
    m = q @ np.diag(np.logspace(0, math.log10(cond), 8)) @ q.T
    theta = SymElement(-0.5 * (m + m.T))
    s = RieszSpec.build(u=[1.0] * 8).param.s
    got = (vf.log_laplace_exact(s, SymElement(1.1 * theta.matrix))
           - vf.log_laplace_exact(s, theta))
    assert got == pytest.approx(-sum(s) * math.log(1.1), rel=1e-7)


def _diag_json(c, r):
    return json.dumps({"r": r, "data": (c * np.eye(r)).tolist()})


def test_verify_cli_at_extreme_tilt_scales(capsys):
    # Delta_4 of 1e-100 I underflows to 0: the closed form still reaches the
    # variance guard, which refuses the probe (exit 3) without a traceback
    code = cli.main(["verify", "--u", "1,1,1,1", "--n", "2000",
                     "--zeta", _diag_json(-1e100, 4)])
    out, err = capsys.readouterr()
    assert code == 3 and out == ""
    assert len(err.splitlines()) == 1 and "too few effective draws" in err
    # at 1e-200 and 1e200 the minors overflow or underflow; the report is
    # that of the unit scale (s = (1, 1.5), so the ratio is 1.25^-2.5)
    reports = []
    for c in (1.0, 1e-200, 1e200):
        code = cli.main(["verify", "--u", "1,1", "--n", "20000",
                         "--theta", _diag_json(-c, 2), "--zeta", _diag_json(-1.25 * c, 2)])
        out, err = capsys.readouterr()
        assert code == 0 and err == ""
        reports.append(json.loads(out))
    for report in reports:
        assert report["pass"] is True
        assert report["exact"] == pytest.approx(1.25 ** -2.5, rel=1e-12)
        assert report["z"] == pytest.approx(reports[0]["z"], rel=1e-6)


# the upper triangle of zeta = -sym(Q diag(logspace(0, 18, 8)) Q^T), with Q
# from the QR of default_rng(0).standard_normal((8, 8)), row by row
_NEAR_SINGULAR_ZETA = [
    "-0x1.529d377d68a73p+50", "0x1.9568252e34959p+50", "0x1.43b71918cdd28p+50",
    "-0x1.20bbc782b8985p+52", "-0x1.722b194151ac3p+51", "-0x1.b3ef5f9613fa2p+47",
    "0x1.45138141024b8p+51", "0x1.b941c39e11e2cp+50", "-0x1.0cc386b3d5f3fp+55",
    "-0x1.424de80b7804cp+55", "0x1.ab0421fbc0281p+56", "0x1.74d70bdcccda4p+56",
    "0x1.db397d9e337e1p+48", "-0x1.bcf0392347782p+55", "-0x1.eeda4b77b94e5p+55",
    "-0x1.851b8482d5cb6p+55", "0x1.0090a884adbaap+57", "0x1.c22cd68b008f0p+56",
    "0x1.d556e6b60557dp+48", "-0x1.0af41e6d90c98p+56", "-0x1.2b23dbae9ee08p+56",
    "-0x1.537246188887bp+58", "-0x1.28cfaa78ec516p+58", "-0x1.6587678f6da7ep+50",
    "0x1.618812a031b35p+57", "0x1.8a1c4083534efp+57", "-0x1.046b108abd815p+58",
    "-0x1.0e8a85c36bb20p+50", "0x1.34d0c2e5d51ffp+57", "0x1.5a1bcdb7094fep+57",
    "-0x1.28fb7fecb4238p+45", "0x1.82fcb0076ef44p+49", "0x1.5827d8a852186p+49",
    "-0x1.7051c0bfa4c16p+56", "-0x1.99ed85b1f1cbcp+56", "-0x1.cc1ef46341563p+56",
]


def test_verify_cli_refuses_a_nearly_singular_zeta(capsys):
    # zeta passes the eigenvalue check, but it is too close to singular for
    # positive elimination pivots: a tilt error (exit 3), not a traceback
    zeta = np.zeros((8, 8))
    zeta[np.triu_indices(8)] = [float.fromhex(h) for h in _NEAR_SINGULAR_ZETA]
    zeta = SymElement(zeta)
    assert algebra.spectral(zeta)[0] < -1.0
    code = cli.main(["verify", "--u", "1,1,1,1,1,1,1,1", "--n", "2000",
                     "--zeta", json.dumps(zeta.to_json_dict())])
    out, err = capsys.readouterr()
    assert code == 3 and out == ""
    assert len(err.splitlines()) == 1 and "too close to singular" in err
    # the line names the matrix at fault and numbers the pivot in its own order
    assert "zeta is too close to singular" in err
    assert "index 1 has pivot" in err


def _oracle_battery_inputs():
    """The benchmark's oracle battery inputs at seed 0, operations 0-3."""
    path = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    battery = workloads.OracleBattery(seed=0, tmpdir=None)
    return [battery.inputs(i) for i in range(4)]


# laplace_exact at those inputs, operations 0-3, r=32 then r=48 in each
_BATTERY_EXACT = [
    "0x1.6f48adeee01aap-26", "0x1.987c3f997689cp-20",
    "0x1.0b5a864c78091p+2", "0x1.671646b79a1c1p+20",
    "0x1.5c48324392109p+11", "0x1.8408255d733dep+6",
    "0x1.49e5cf9ea0f59p+3", "0x1.f77399253f50fp-6",
]


def test_laplace_exact_at_large_rank_is_frozen_bitwise():
    big = [b for inp in _oracle_battery_inputs() for b in inp["big"]]
    for b, want in zip(big, _BATTERY_EXACT, strict=True):
        theta = SymElement.from_dense(b["theta"])
        spec = RieszSpec.build(u=b["u"], theta=theta)
        assert vf.laplace_exact(spec.param.s, theta) == float.fromhex(want)


def test_admissibility_round_trips_are_frozen():
    # the battery's 8 000 u -> s -> u round trips and partitions, operations
    # 0-3: every field of each record, its repr and its JSON echo, hashed
    digest = hashlib.sha256()
    for inp in _oracle_battery_inputs():
        for u in inp["us"]:
            part = build_partition(u_from_s(s_from_u(u)))
            digest.update(f"{part!r}\n{json.dumps(part.to_json_dict())}\n".encode())
    assert digest.hexdigest() == (
        "2fc5adf80ba1ddf14eae05f79ba4d0bde4ef87081b5d094d9070b1a3d3dd2583")


# ----------------------------------------------------------------- mc checker


def test_laplace_mc_agrees_with_closed_form():
    spec = RieszSpec.build(s=[0.5, 0.5], theta=sym(-0.5 * np.eye(2)),
                           seed=4, count=20000)
    batch = sample_riesz(spec, workers=2)
    rep = vf.laplace_mc(batch, sym(-0.75 * np.eye(2)))
    assert rep.exact == pytest.approx(2.0 / 3.0, rel=1e-12)
    assert rep.passed and abs(rep.z) <= 4.0
    assert rep.n == 20000
    payload = rep.to_json_dict()
    assert payload["pass"] is True and payload["z"] == rep.z


def test_laplace_mc_at_the_tilt_itself_is_exact():
    spec = RieszSpec.build(u=[1.0, 0.4], theta=OFFDIAG_TILT, seed=1, count=50)
    rep = vf.laplace_mc(sample_riesz(spec), OFFDIAG_TILT)
    assert rep.exact == 1.0 and rep.estimate == 1.0
    assert rep.stderr == 0.0 and rep.z == 0.0 and rep.passed


def test_laplace_mc_variance_guard():
    spec = RieszSpec.build(u=[1.0, 1.0], seed=0, count=10)  # theta = -I
    batch = sample_riesz(spec)
    with pytest.raises(vf.VarianceGuardError):
        vf.laplace_mc(batch, sym(-0.4 * np.eye(2)))  # 2 zeta - theta = 0.2 I
    with pytest.raises(vf.VarianceGuardError):
        vf.laplace_mc(batch, sym(-0.5 * np.eye(2)))  # exactly singular guard
    with pytest.raises(vf.VerifyError):
        vf.laplace_mc(batch, sym(-np.eye(3)))


def test_laplace_mc_threshold_is_respected():
    spec = RieszSpec.build(u=[1.0], seed=2, count=500)
    rep = vf.laplace_mc(sample_riesz(spec), sym([[-1.3]]), z_threshold=1e-300)
    assert not rep.passed  # any z of an ordinary size fails a tiny threshold


def test_laplace_mc_refuses_before_reading_a_chunk():
    class Untouchable:
        def __iter__(self):
            return self

        def __next__(self):
            raise AssertionError("a refused probe read a chunk")

    spec = RieszSpec.build(s=[50.0, 50.0], theta=sym(-0.5 * np.eye(2)), count=20000)
    with pytest.raises(vf.VarianceGuardError, match="effective draws"):
        vf.laplace_mc_chunks(spec, Untouchable(), sym(-0.3 * np.eye(2)))
    with pytest.raises(vf.VarianceGuardError, match="finite weight variance"):
        vf.laplace_mc_chunks(spec, Untouchable(), sym(-0.2 * np.eye(2)))
    # a threshold that no report could pass, or that is not a number, at the
    # tilt itself, a probe every guard accepts
    for bad in (math.nan, -1.0, 0.0, math.inf, "4", True, None):
        with pytest.raises(vf.VerifyError, match="z_threshold must be a finite number"):
            vf.laplace_mc_chunks(spec, Untouchable(), spec.theta, z_threshold=bad)


def test_laplace_mc_refuses_a_ratio_past_the_largest_float_before_reading_a_chunk():
    # s = (5e5, 5e5), theta = -I, zeta = -0.99928 I: the ratio is
    # 0.99928^-1e6, about e^720.3, while log(1 + rho) is about 0.52
    def untouchable():
        raise AssertionError("a refused probe read a chunk")
        yield

    spec = RieszSpec.build(s=[5e5, 5e5], count=2)
    with pytest.raises(vf.VerifyError, match=r"ratio is exp\(720\.2\d*\), past the largest"):
        vf.laplace_mc_chunks(spec, untouchable(), sym(-0.99928 * np.eye(2)))


def test_laplace_mc_refuses_chunks_that_are_not_the_spec_draws():
    # the ESS guard judged spec.count draws; a short or empty stream must not
    # be scored (empty used to divide by zero, three draws used to pass)
    spec = RieszSpec.build(s=[1.0, 1.0], count=5000)
    zeta = sym(-1.1 * np.eye(2))
    three = sample_riesz(RieszSpec.build(s=[1.0, 1.0], count=3)).matrices
    for chunks in (iter(()), iter([three])):
        with pytest.raises(vf.VerifyError, match="5000"):
            vf.laplace_mc_chunks(spec, chunks, zeta)


def test_laplace_mc_effective_sample_floor():
    # s = (1, 1), theta = -I, zeta = c theta: 1 + rho = (c^2 / (2c - 1))^2,
    # 3.24 at c = 3, so 3 240 draws leave 1 000 effective ones
    zeta = sym(-3.0 * np.eye(2))
    one_plus_rho = (9.0 / 5.0) ** 2
    for n, refused in ((3230, True), (3250, False)):
        spec = RieszSpec.build(s=[1.0, 1.0], count=n)
        assert (n / one_plus_rho < vf.ESS_FLOOR) == refused
        if refused:
            with pytest.raises(vf.VarianceGuardError):
                vf.laplace_mc_chunks(spec, iter(()), zeta)
        else:
            assert vf.laplace_mc(sample_riesz(spec), zeta).n == n


def test_a_laplace_probe_checks_each_fact_once(wide_r8_batch, monkeypatch):
    # theta was checked when the spec was built and 2 zeta - theta is the
    # variance guard, which with theta makes -zeta positive definite too, so
    # a probe runs one eigenvalue check and reads s from the spec
    calls = {"spectral": 0, "u_from_s": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(algebra, "spectral", counted("spectral", algebra.spectral))
    monkeypatch.setattr(vf, "u_from_s", counted("u_from_s", vf.u_from_s))
    zeta = SymElement(1.1 * wide_r8_batch.spec.theta.matrix)
    assert vf.laplace_mc(wide_r8_batch, zeta, z_threshold=5.0).passed
    assert calls == {"spectral": 1, "u_from_s": 0}


def test_laplace_mc_checks_the_law_that_zero_tol_snaps_to():
    # u_2 = -1e-10 is snapped to 0 when the spec is built, and s_2 to 1/2 with
    # it, so the probe's closed form is that of the law drawn
    spec = RieszSpec.build(s=[1.0, 0.4999999999], zero_tol=1e-9, count=20)
    assert spec.param.u == (1.0, 0.0) and spec.param.s == (1.0, 0.5)
    report = vf.laplace_mc(sample_riesz(spec), sym(-1.1 * np.eye(2)))
    assert report.passed and report.exact == 1.1 ** -1.5


def test_log_laplace_exact_is_finite_where_the_transform_overflows():
    # Delta_s(4 I) = 4^800, about e^1109, is past the largest float
    theta = sym(-0.25 * np.eye(2))
    assert vf.log_laplace_exact([400.0, 400.0], theta) == pytest.approx(
        800.0 * math.log(4.0), rel=1e-14)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("s, scale, value", [([1e308], 1e300, "-inf"),
                                             ([1e308, 1e308], 1e-300, "inf")])
def test_log_laplace_exact_refuses_a_value_past_the_float_range(s, scale, value):
    with pytest.raises(vf.VerifyError,
                       match=f"^the log transform at tilt is {value}, past the float range$"):
        vf.log_laplace_exact(s, sym(-scale * np.eye(len(s))))


def test_laplace_exact_refuses_a_value_past_the_largest_float():
    # Delta_s(10 I) = 10^1600, about e^3684.1: the error gives the log value
    theta = sym(-0.1 * np.eye(4))
    with pytest.raises(vf.VerifyError, match=r"exp\(3684\.1\d*\).*log_laplace_exact"):
        vf.laplace_exact([400.0] * 4, theta)
    assert vf.log_laplace_exact([400.0] * 4, theta) == pytest.approx(
        1600.0 * math.log(10.0), rel=1e-14)


@pytest.mark.parametrize("entry, value", [((2, 2), math.inf), ((2, 2), math.nan),
                                          ((0, 3), math.inf)],
                         ids=["inf_diagonal", "nan_diagonal", "inf_off_diagonal"])
def test_laplace_mc_fails_a_draw_with_a_non_finite_entry(wide_r8_batch, entry, value):
    # draw 17 of the verify_wide_r8 operation-0 batch with one bad entry: an
    # inf diagonal entry gives that draw an exponent of -inf below the tilt,
    # and so an ordinary-looking d = -1, unless the exponent is checked
    m = wide_r8_batch.matrices.copy()
    i, j = entry
    m[17, i, j] = m[17, j, i] = value
    batch = sp.SampleBatch(wide_r8_batch.spec, m)
    theta = wide_r8_batch.spec.theta.matrix
    for c in (1.1, 1.3):
        assert vf.laplace_mc(wide_r8_batch, sym(c * theta), z_threshold=5.0).passed
        rep = vf.laplace_mc(batch, sym(c * theta), z_threshold=5.0)
        assert not rep.passed and math.isnan(rep.z)


# ----------------------------------------------------------------- quadrature


def test_quadrature_reproduces_gamma_integral():
    got = math.exp(vf._log_quadrature_r2([2.0, 1.0], sym(-np.eye(2)))[1])
    assert got == pytest.approx(4.442882938158365, rel=1e-8)


@pytest.mark.parametrize("s", [(0.8, 0.8), (2.0, 1.0), (1.4, 0.9)])
@pytest.mark.parametrize("theta", [(-1.0, -1.0, 0.0), (-0.6, -2.0, 0.4)])
def test_quadrature_matches_closed_form(s, theta):
    t11, t22, t12 = theta
    err = vf.quadrature_check_r2(list(s), sym([[t11, t12], [t12, t22]]))
    assert err <= 1e-6


def test_quadrature_handles_a_badly_scaled_diagonal():
    # one diagonal entry ten times the other
    assert vf.quadrature_check_r2([2.0, 1.0], sym(np.diag([-0.1, -1.0]))) <= 1e-6


def _random_r2_laws(count=40, seed=2026):
    """(s, theta) pairs: diagonal e^{U(-3,3)}, correlation up to 0.8."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        d = np.exp(rng.uniform(-3.0, 3.0, 2))
        off = rng.uniform(0.0, 0.8) * math.sqrt(d[0] * d[1]) * rng.choice([-1.0, 1.0])
        s = [rng.uniform(0.1, 6.0), rng.uniform(0.51, 6.0)]
        yield s, sym([[-d[0], off], [off, -d[1]]])


def test_quadrature_sweep_of_random_tilts():
    for s, theta in _random_r2_laws():
        assert vf.quadrature_check_r2(s, theta) <= 1e-6, (s, theta)


GRID_TILT = np.array([[-1.5, -0.4], [-0.4, -1.0]])  # the self-test grid's rotated tilt


def _grid_r2_laws():
    """The self-test's 3 x 3 grid of (s, theta)."""
    return [(s, sym(t)) for s in ([2.0, 1.0], [2.0, 2.0], [1.5, 0.8])
            for t in (-np.eye(2), np.diag([-1.0, -2.0]), GRID_TILT)]


def test_cached_gauss_rules_change_no_bit(monkeypatch):
    # the self-test's 3 x 3 grid, then the random sweep above
    laws = _grid_r2_laws() + list(_random_r2_laws())
    cached = [vf.quadrature_check_r2(s, theta) for s, theta in laws]
    # every rule again, now from the cache, and every rule fresh
    assert [vf.quadrature_check_r2(s, theta) for s, theta in laws] == cached
    monkeypatch.setattr(vf, "_gauss_rule", vf._gauss_rule.__wrapped__)
    assert [vf.quadrature_check_r2(s, theta) for s, theta in laws] == cached


@pytest.mark.parametrize("n", [12, 24, 48, 96, 192])
def test_gauss_rules_match_scipy(n):
    # scipy's rule constructors are the test-only reference
    for a in (-0.9, -0.7, -0.5, 0.0, 0.5, 1.0, 3.0, 5.0):
        for jacobi, ref in ((False, roots_genlaguerre(n, a)),
                            (True, roots_jacobi(n, a, a))):
            nodes, weights = vf._gauss_rule(jacobi, n, a)
            weights = weights * ref[1].sum()  # the rule's weights sum to 1
            if jacobi:
                assert_allclose(nodes, ref[0], rtol=0.0, atol=1e-13)
            else:
                assert_allclose(nodes, ref[0], rtol=1e-10, atol=0.0)
            big = ref[1] > 1e-10 * ref[1].max()
            assert_allclose(weights[big], ref[1][big], rtol=1e-8, atol=0.0)


def test_selftest_runs_without_scipy():
    # the full quadrature grid builds every rule it needs from numpy alone
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys\n"
         "from rieszcone import verify\n"
         "verify.run_selftest(r_values=(2,))\n"
         "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_gauss_rules_are_cached_read_only():
    vf._gauss_rule.cache_clear()
    vf.quadrature_check_r2([2.0, 1.0], sym(-np.eye(2)))
    first = vf._gauss_rule.cache_info()
    assert first.hits == 0 and first.misses > 0
    vf.quadrature_check_r2([2.0, 1.0], sym(-np.eye(2)))
    again = vf._gauss_rule.cache_info()
    assert again.misses == first.misses and again.hits == first.misses
    for jacobi in (False, True):
        for a in vf._gauss_rule(jacobi, 12, 1.0):
            with pytest.raises(ValueError):
                a[0] = 0.0


LARGE_SCALE_ROWS = [
    # the Laguerre masses Gamma(s_i) are past the largest float, or their
    # product is: the rule's nodes sit too far from the integrand to converge
    ((200.0, 200.0), 1.0, False),
    ((171.5, 2.0), 1.0, False),
    ((150.0, 150.0), 1.0, False),
    # and at a size past any rule, every weighted node underflows
    ((1e6, 1e6), 1.0, False),
    # the same overflow at a size that converges, and rates whose powers
    # underflow or overflow on their own
    ((100.0, 100.0), 1.0, True),
    ((5.0, 5.0), 1e100, True),
    ((5.0, 5.0), 1e-100, True),
    ((60.0, 60.0), 1e10, True),
    # tilts whose entries' products under- or overflow, -c I and c times the grid's
    # rotated tilt: the correlation and sqrt(a c) are taken from square roots
    *[((2.0, 2.0), c, True) for c in (1e200, 1e-200, 1e300, 1e-300)],
    *[(s, c * GRID_TILT, True) for c in (1e200, 1e-200, 1e300, 1e-300)
      for s in ((2.0, 2.0), (1.5, 0.8))],
    # s past what the rules resolve: the Laguerre diagonal 2k + s - 1 has lost its
    # steps, or a node over its rate is past the largest float; unrefused, each
    # reads a false discrepancy of 1.0 or warns of an overflow
    *[(s, scale, False) for s in ((1e50, 2.0), (2.0, 1e50), (1e300, 1e300))
      for scale in (1.0, GRID_TILT)],
    ((1e8, 2.0), 1e-300, False),
    ((2.0, 1e8), 1e-300, False),
]


def _scaled_tilt(scale):
    """A ``LARGE_SCALE_ROWS`` tilt: -scale I for a number, else the matrix itself."""
    return sym(-scale * np.eye(2) if np.ndim(scale) == 0 else scale)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("s, scale, converges", LARGE_SCALE_ROWS, ids=lambda v: (
    f"grid{-v[1, 1]:g}" if isinstance(v, np.ndarray) else None))
def test_quadrature_at_large_scales_is_a_verdict_or_a_refusal(s, scale, converges):
    # taken on a linear scale, the first eight rows ended in an OverflowError, a NaN,
    # or an overflow warning and a refusal after every node count; with rho taken
    # from the product theta11 theta22 and sqrt(a c) from the product a c, the last
    # twelve raised a ZeroDivisionError, warned of an overflow, or lost the coupling
    # term and read a discrepancy of 0.2
    theta = _scaled_tilt(scale)
    if converges:
        assert vf.quadrature_check_r2(list(s), theta) <= 1e-6
    else:
        with pytest.raises(vf.QuadratureError):
            vf.quadrature_check_r2(list(s), theta)


def _full_tensor_log_quadrature_r2(s, theta):
    """``verify._log_quadrature_r2`` on valid input, its residual formed at each node
    count as one (n, n, n) tensor: the reference that its slabs reproduce bit for bit."""
    s1, s2 = float(s[0]), float(s[1])
    td = theta.matrix
    t11, t22, t12 = float(td[0, 0]), float(td[1, 1]), float(td[0, 1])
    rho = abs(t12) / (math.sqrt(-t11) * math.sqrt(-t22))
    lam_a = 0.5 * (1.0 - rho) * -t11
    lam_c = 0.5 * (1.0 - rho) * -t22
    alpha = s2 - 1.5
    log_scale = ((2.0 * alpha + 1.5) * math.log(2.0) - s1 * math.log(lam_a)
                 - s2 * math.log(lam_c) + math.lgamma(s1) + math.lgamma(s2)
                 + 2.0 * math.lgamma(alpha + 1.0) - math.lgamma(2.0 * alpha + 2.0))
    prev, n = None, vf.QUAD_N_START
    while n <= vf.QUAD_N_MAX:
        xa, wa = vf._gauss_rule(False, n, s1 - 1.0)
        xc, wc = vf._gauss_rule(False, n, s2 - 1.0)
        v, wv = vf._gauss_rule(True, n, alpha)
        a, c = xa / lam_a, xc / lam_c
        root_ac = np.multiply.outer(np.sqrt(a), np.sqrt(c))
        f = np.multiply.outer(root_ac, 2.0 * t12 * v)
        f += ((t11 + lam_a) * a)[:, None, None] + ((t22 + lam_c) * c)[None, :, None]
        peak = float(f.max())
        f -= peak
        with np.errstate(under="ignore"):
            np.exp(f, out=f)
        log_total = log_scale + peak + math.log(float(wa @ (f @ wv) @ wc))
        if prev is not None and abs(math.expm1(prev - log_total)) <= vf.QUAD_RTOL:
            return (s1, s2), log_total
        prev, n = log_total, 2 * n
    raise vf.QuadratureError("the reference did not converge")


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_quadrature_slabs_match_the_full_tensor_bit_for_bit():
    # the peak is taken on an (n, n) grid at the largest coupling weight, and the
    # residual is contracted a slab of a-nodes at a time; each node's residual and
    # each a-row's contraction over v are the same floating-point operations as in
    # the one tensor, so (s, log integral) keeps every bit
    laws = _grid_r2_laws() + list(_random_r2_laws())
    laws += [(list(s), _scaled_tilt(scale)) for s, scale, converges in LARGE_SCALE_ROWS
             if converges]
    for s, theta in laws:
        assert vf._log_quadrature_r2(s, theta) == _full_tensor_log_quadrature_r2(s, theta), (
            s, theta.matrix.tolist())


def test_quadrature_checks_an_integral_past_the_largest_float():
    # the integral is about 1e1000: the check compares it with the closed form as logs
    theta = sym(-1e-100 * np.eye(2))
    assert vf._log_quadrature_r2([5.0, 5.0], theta)[1] > vf._LOG_MAX
    assert vf.quadrature_check_r2([5.0, 5.0], theta) <= 1e-6


def test_quadrature_refuses_a_nearly_singular_correlation():
    # rho = 0.99: the rule must give up, not return a number, after every node count
    # up to QUAD_N_MAX in O(n^2) memory (one (n, n, n) tensor would be 54 MiB at n = 192)
    tracemalloc.start()
    try:
        with pytest.raises(vf.QuadratureError):
            vf.quadrature_check_r2([1.5, 1.2], sym([[-1.0, -0.99], [-0.99, -1.0]]))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


def test_quadrature_rejections(monkeypatch):
    with pytest.raises(vf.VerifyError):
        vf.quadrature_check_r2([0.0, 1.0], sym(-np.eye(2)))
    with pytest.raises(vf.VerifyError):
        vf.quadrature_check_r2([1.0, 0.5], sym(-np.eye(2)))
    with pytest.raises(vf.TiltError):
        vf.quadrature_check_r2([1.0, 1.0], sym(np.eye(2)))
    with pytest.raises(vf.VerifyError):
        vf.quadrature_check_r2([1.0, 1.0, 1.0], sym(-np.eye(3)))
    monkeypatch.setattr(vf, "QUAD_N_MAX", vf.QUAD_N_START)
    with pytest.raises(vf.QuadratureError):
        # a single rule evaluation can never certify convergence
        vf.quadrature_check_r2([1.0, 1.0], sym(-np.eye(2)))


def test_sampler_mean_matches_the_closed_form():
    """Dual-route check: the first moments of the rank-2 law from the sampler
    against the closed form E[X] = t diag(s) t^T, t t^T = (-theta)^{-1}."""
    s = [1.4, 0.9]
    theta = OFFDIAG_TILT
    t = np.linalg.cholesky(np.linalg.inv(-theta.matrix))
    mean = (t * s) @ t.T
    want = np.array([mean[0, 0], mean[0, 1], mean[1, 1]])
    batch = sample_riesz(RieszSpec.build(s=s, theta=theta, seed=14,
                                         count=20000), workers=2)
    mc = batch.matrices
    draws = np.stack([mc[:, 0, 0], mc[:, 0, 1], mc[:, 1, 1]], axis=1)
    se = draws.std(axis=0, ddof=1) / math.sqrt(len(mc))
    assert np.all(np.abs(draws.mean(axis=0) - want) < 5 * se)


# ------------------------------------------------------------- identity suite


@pytest.mark.parametrize("r", [2, 3, 4, 5, 6])
def test_identity_suite_passes(r):
    reports = vf.identity_suite(r, trials=60, seed=0)
    assert [rep.name for rep in reports] == list(vf.IDENTITY_NAMES)
    for rep in reports:
        assert rep.passed, f"{rep.name}: {rep.max_rel_error:.3e}"
        assert rep.r == r and rep.trials == 60


def test_identity_suite_is_deterministic():
    a = vf.identity_suite(3, trials=40, seed=5)
    b = vf.identity_suite(3, trials=40, seed=5)
    assert [x.max_rel_error for x in a] == [y.max_rel_error for y in b]


def test_identity_suite_needs_rank_two():
    with pytest.raises(vf.VerifyError):
        vf.identity_suite(1)
    # and a whole number of trials, at least one, refused before numpy sees them
    for trials in (0, -1, 2.5, True):
        with pytest.raises(vf.VerifyError, match="trials >= 1"):
            vf.identity_suite(3, trials=trials)
    # and a seed as the sampler takes one, an integer in [0, 2**64)
    for seed in ("3", True, 2**70, 2**64, -1, 1.5, None):
        with pytest.raises(vf.VerifyError, match=r"seed in \[0, 2\*\*64\)"):
            vf.identity_suite(3, trials=2, seed=seed)
    assert len(vf.identity_suite(2, trials=2, seed=2**64 - 1)) == len(vf.IDENTITY_NAMES)


def _failed(r):
    return {rep.name for rep in vf.identity_suite(r, trials=20, seed=0) if not rep.passed}


def test_identity_suite_catches_a_support_pass_that_ignores_the_mask(monkeypatch):
    # negative control: eliminating at the inactive index divides by its
    # residual, a rounding error, and garbles every later pivot
    true_pivots = algebra._pivots
    monkeypatch.setattr(algebra, "_pivots", lambda sym, active=None: true_pivots(sym))
    for r in (3, 4, 5):
        assert "support_pivots" in _failed(r)


_CONE_IDENTITIES = {"pivot_schur", "pivot_reversal", "triangular_equivariance"}


def test_identity_suite_catches_an_elimination_that_skips_its_last_step(monkeypatch):
    # negative control: the last pivot left as the Schur complement against all
    # but the index before it; no split level reads the tilted last pivot
    true_pivots = algebra._pivots

    def skip_last(sym, active=None):
        if active is not None:
            return true_pivots(sym, active)
        keep = [*range(sym.shape[1] - 2), sym.shape[1] - 1]
        last = true_pivots(sym[:, keep][:, :, keep])[:, -1:]
        return np.concatenate([true_pivots(sym)[:, :-1], last], axis=1)

    monkeypatch.setattr(algebra, "_pivots", skip_last)
    for r in (3, 4, 5):
        assert _failed(r) & _CONE_IDENTITIES == {"pivot_schur", "pivot_reversal"}


def test_identity_suite_catches_scaled_pivots(monkeypatch):
    # negative control: a relative error of 1e-6, a thousand times the tolerance
    true_pivots = algebra._pivots
    monkeypatch.setattr(algebra, "_pivots",
                        lambda sym, active=None: true_pivots(sym, active) * (1.0 + 1e-6))
    for r in (3, 4, 5):
        assert _CONE_IDENTITIES <= _failed(r)


def test_identity_suite_catches_a_closed_form_that_drops_the_reversal(monkeypatch):
    # negative control: the package side of pivot_reversal eliminates y where it
    # should eliminate J y J; the flipped stack is the one view with negative strides
    true_pivots = algebra._pivots

    def unflipped(sym, active=None):
        if sym.strides[1] < 0:
            sym = sym[:, ::-1, ::-1]
        return true_pivots(sym, active)

    monkeypatch.setattr(algebra, "_pivots", unflipped)
    for r in (3, 4, 5):
        assert _failed(r) & _CONE_IDENTITIES == {"pivot_reversal"}


@pytest.mark.parametrize("column, want", [
    (0, {"triangular_equivariance"}),
    (-1, {"pivot_schur", "pivot_reversal"}),
], ids=["first", "last"])
def test_identity_suite_reads_each_cone_column_it_checks(monkeypatch, column, want):
    # negative control: one pivot column scaled by 1 + 1e-6 fails exactly the
    # cone identities that read it: pivot_schur and pivot_reversal read columns
    # 1..r-1, triangular_equivariance columns 0..r-2
    true_pivots = algebra._pivots

    def one_scaled(sym, active=None):
        pivots = true_pivots(sym, active).copy()
        if active is None:
            pivots[:, column] *= 1.0 + 1e-6
        return pivots

    monkeypatch.setattr(algebra, "_pivots", one_scaled)
    for r in (3, 4, 5):
        assert _failed(r) & _CONE_IDENTITIES == want


def _scaled_draws(factor):
    def draw_sum(true_draw_sum, plans, rng, out):
        true_draw_sum(plans, rng, out)
        out *= factor
    return draw_sum


def _runs_reversed(true_draw_sum, plans, rng, out):
    true_draw_sum(plans[::-1], rng, out)


def _patch_draw_sum(monkeypatch, fault):
    true_draw_sum = sp._draw_sum
    monkeypatch.setattr(sp, "_draw_sum", lambda *args: fault(true_draw_sum, *args))


@pytest.mark.parametrize("fault", [_scaled_draws(1.0 + 1e-6), _runs_reversed],
                         ids=["scaled", "runs_reversed"])
def test_identity_suite_catches_a_faulty_draw_sum(monkeypatch, fault):
    # negative control: the draws must be the runs' factors, drawn in plan
    # order from the stream and placed at their starts, to rounding
    _patch_draw_sum(monkeypatch, fault)
    for r in (3, 4, 5):
        assert "run_placement" in _failed(r)


def test_identity_suite_reports_a_draw_off_the_cone(monkeypatch):
    # negated draws are not positive definite on their active block: the suite
    # reports them as failures rather than raise
    _patch_draw_sum(monkeypatch, _scaled_draws(-1.0))
    reports = {rep.name: rep for rep in vf.identity_suite(4, trials=20, seed=0)}
    assert {name for name, rep in reports.items() if not rep.passed} == {
        "run_placement", "support_pivots"}
    assert reports["support_pivots"].max_rel_error == math.inf


def _negated_below_the_cut(true_draw_sum, plans, rng, out):
    true_draw_sum(plans, rng, out)
    out *= -1.0
    idle = np.ones(out.shape[-1], dtype=bool)
    for plan in plans:
        idle[plan.start:plan.start + plan.width] = False
    out[:, idle, idle] *= 1.0 + 1e-3


def test_identity_suite_catches_a_negative_inactive_diagonal(monkeypatch):
    # negative control: negated draws whose inactive diagonals sit a further
    # 1e-3 |x_qq| below 0 leave a residual of about 1e-3 x_qq; as a share of
    # the signed x_qq it would read -9.99e-4 and pass
    _patch_draw_sum(monkeypatch, _negated_below_the_cut)
    for r in (3, 4, 5):
        reports = {rep.name: rep for rep in vf.identity_suite(r, trials=20, seed=0)}
        residual = reports["support_residual"]
        assert not residual.passed
        assert residual.max_rel_error == pytest.approx(1e-3 / (1.0 + 1e-3), rel=1e-6)


def test_identity_suite_catches_a_run_that_starts_one_index_early(monkeypatch):
    # negative control: a second run at l instead of l + 1 puts draws on the
    # index that u leaves empty, so its residual is of the order of x_ll
    true_plan = sp._plan_block

    def early(theta, start, width, shapes):
        return true_plan(theta, start - (start > 0), width, shapes)

    monkeypatch.setattr(sp, "_plan_block", early)
    for r in (3, 4, 5):
        assert "support_residual" in _failed(r)


def _noise_scaled(plan, theta):
    return dataclasses.replace(plan, noise_chol=math.sqrt(2.0) * plan.noise_chol)


def _square_coupling_transposed(plan, theta):
    if plan.width != plan.tail:
        return plan
    return dataclasses.replace(plan, coupling=plan.coupling.T)


def _shapes_raised(plan, theta):
    return dataclasses.replace(plan, shapes=plan.shapes + 0.05)


def _schur_sign_flipped(plan, theta):
    if not plan.tail:
        return plan
    sub = theta[plan.start:, plan.start:]
    w = plan.width
    eta = sub[:w, :w] - sub[:w, w:] @ np.linalg.inv(-sub[w:, w:]) @ sub[w:, :w]
    return dataclasses.replace(plan, core_chol=np.linalg.cholesky(np.linalg.inv(-eta)))


@pytest.mark.parametrize("fault, identity", [
    (_noise_scaled, "factor_gram"),
    (_square_coupling_transposed, "factor_gram"),
    (_schur_sign_flipped, "bartlett_pivots"),
    (_shapes_raised, "plan_mean"),
])
def test_identity_suite_catches_broken_plans(monkeypatch, fault, identity):
    # negative control: a plan with a wrong constant must trip the identity
    # that checks it; at r = 4 the run at 0 of width 2 has a square coupling
    true_plan = sp._plan_block

    def broken(theta, start, width, shapes):
        return fault(true_plan(theta, start, width, shapes), theta)

    monkeypatch.setattr(sp, "_plan_block", broken)
    failed = {rep.name for rep in vf.identity_suite(4, trials=10, seed=0)
              if not rep.passed}
    assert identity in failed


# ----------------------------------------------------------- batch diagnostics


def test_rank_profile_reads_the_support():
    spec = RieszSpec.build(u=[1.2, 0.0, 0.7, 0.0], seed=10, count=400)
    batch = sample_riesz(spec)
    prof = vf.rank_profile(batch, expected=2)
    assert prof.passed
    assert prof.counts == {2: 400}
    assert prof.frac_expected == 1.0 and prof.frac_at_most == 1.0
    # demanding full rank must fail: mass sits strictly below it
    low = vf.rank_profile(batch, expected=1)
    assert not low.passed and low.frac_at_most == 0.0
    assert vf.rank_profile(batch, expected=4).frac_at_most == 1.0


def test_rank_profile_refuses_a_non_integer_expected():
    batch = sample_riesz(RieszSpec.build(u=[1.2, 0.0, 0.7, 0.0], seed=10, count=50))
    # an integer outside 0..r is a failing profile
    for expected in (-1, 5):
        assert not vf.rank_profile(batch, expected=expected).passed
    # anything else is refused, as a counts array must not be indexed with it
    for expected in (2.0, 2.5, -1.0, True, np.int64(2), "2", None):
        with pytest.raises(vf.VerifyError, match="integer rank"):
            vf.rank_profile(batch, expected=expected)


def test_rank_profile_and_psd_check_read_one_chunked_elimination(monkeypatch):
    spec = RieszSpec.build(u=[1.2, 0.0, 0.7, 0.0], seed=12, count=700)
    batch = sample_riesz(spec)
    mask = np.array([True, False, True, False])
    pivots = algebra._pivots
    calls = []

    def counted(stack, active=None):
        calls.append((stack.shape, None if active is None else active.tolist()))
        return pivots(stack, active)

    def refused(a):
        raise AssertionError("a verdict took a spectrum")

    monkeypatch.setattr(algebra, "_pivots", counted)
    monkeypatch.setattr(np.linalg, "eigvalsh", refused)
    prof = vf.rank_profile(batch, expected=2)
    ok, worst = vf.psd_check(batch)
    assert prof.passed and prof.counts == {2: 700}
    assert ok and worst <= vf.SUPPORT_TOL
    # one call per chunk, for both verdicts together
    assert calls == [((sp.CHUNK, 4, 4), mask.tolist()),
                     ((700 - sp.CHUNK, 4, 4), mask.tolist())]


def _log_spaced_tilt(rng, r, cond):
    """theta = -Q diag(logspace(0, log10 cond, r)) Q^T, Q a random rotation."""
    q = np.linalg.qr(rng.standard_normal((r, r)))[0]
    return SymElement(-(q * np.logspace(0.0, math.log10(cond), r)) @ q.T)


@pytest.mark.parametrize("u, cond", [((0.3, 0.9, 1.4), 10.0),
                                     ((1.2, 0.0, 0.7, 0.0), 1e9)])
def test_rank_profile_passes_small_shapes_and_ill_conditioned_tilts(u, cond):
    # exact laws that a singular-value cut failed: Gamma(0.3) pivots far
    # below the largest singular value, and residuals of a condition-1e9 tilt
    for seed in range(3):
        theta = _log_spaced_tilt(np.random.default_rng(seed), len(u), cond)
        batch = sample_riesz(RieszSpec.build(u=list(u), theta=theta, seed=seed, count=5000))
        assert vf.rank_profile(batch, expected=int(np.count_nonzero(u))).passed, seed
        assert vf.psd_check(batch)[0], seed


def _wide_r8_batch(op):
    """Operation ``op`` of the verify_wide_r8 benchmark workload at seed 0."""
    rng = np.random.default_rng([0, op])
    q = np.linalg.qr(rng.standard_normal((8, 8)))[0]
    lam = np.sort(rng.uniform(0.5, 5.0, 8))
    lam[0], lam[-1] = 0.5, 5.0
    neg = (q * lam) @ q.T
    spec = RieszSpec.build(u=[1.5, 0.8, 0.0, 1.2, 0.6, 0.9, 0.0, 0.0],
                           theta=sym(-0.5 * (neg + neg.T)),
                           seed=int(rng.integers(0, 1 << 63)), count=5000)
    return sample_riesz(spec)


@pytest.fixture(scope="module")
def wide_r8_batch():
    return _wide_r8_batch(0)


@pytest.mark.parametrize("op", [809, 2907])
def test_support_verdicts_need_the_pivot_growth_term(op, monkeypatch):
    # one draw of each has an active pivot near 1e-15..1e-13 x_pp (a small gamma
    # variate), which magnifies the rounding in a later inactive residual to
    # 1e-2 (809) and 7e-4 (2907) x_pp, past SUPPORT_TOL: these exact draws pass
    # the rank and PSD verdicts only through the cut's pivot-growth term
    batch = _wide_r8_batch(op)
    assert vf.rank_profile(batch, expected=5).passed
    assert vf.psd_check(batch)[0]
    # without the growth term that draw counts one rank too high
    monkeypatch.setattr(vf, "GROWTH_TOL", 0.0)
    assert not vf.rank_profile(sp.SampleBatch(batch.spec, batch.matrices), expected=5).passed


def _shift(m, sign):
    norms = np.linalg.norm(m, axis=(1, 2))
    m += sign * 1e-6 * norms[:, None, None] * np.eye(m.shape[1])


def _noise_at_inactive_6(m):
    e = 1e-3 * np.linalg.norm(m, axis=(1, 2))[:, None] * \
        np.random.default_rng(6).standard_normal(m.shape[:2])
    m[:, 6, :] += e
    m[:, :, 6] += e


def _negative_diagonal(m):
    m[17, 3, 3] = -m[17, 3, 3]


def _set_entry(i, j, value):
    """Mutation: entries (i, j) and (j, i) of draw 17 set to ``value``."""
    def mutate(m):
        m[17, i, j] = m[17, j, i] = value
    return mutate


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("mutate, psd_ok, rank_ok", [
    (lambda m: _shift(m, 1.0), True, False),
    (lambda m: _shift(m, -1.0), False, False),
    (_noise_at_inactive_6, False, False),
    (_negative_diagonal, False, None),
    (_set_entry(0, 1, np.nan), False, False),
    (_set_entry(3, 3, np.inf), False, False),
    # u_6 = u_7 = 0: the elimination never reads this entry
    (_set_entry(6, 7, np.inf), False, False),
], ids=["plus_eps_identity", "minus_eps_identity", "noise_at_inactive_6",
        "negative_diagonal", "nan_entry", "inf_diagonal", "inf_between_inactive"])
def test_support_verdicts_catch_mutated_draws(wide_r8_batch, mutate, psd_ok, rank_ok):
    assert vf.rank_profile(wide_r8_batch, expected=5).passed
    assert vf.psd_check(wide_r8_batch)[0]
    m = wide_r8_batch.matrices.copy()
    mutate(m)
    tampered = sp.SampleBatch(wide_r8_batch.spec, m)
    ok, worst = vf.psd_check(tampered)
    assert ok == psd_ok
    # the worst ratio is inf exactly when some draw is not finite
    assert (worst == math.inf) == (not np.isfinite(m).all())
    if rank_ok is not None:
        assert vf.rank_profile(tampered, expected=5).passed == rank_ok


def _reference_verdicts(batch, expected):
    """``rank_profile`` and ``psd_check`` with every (count, r) array of the whole
    batch in C order and the cut computed per verdict: (rank report, ok, worst ratio)."""
    active = np.asarray(batch.spec.param.u) > 0.0
    d = np.empty(batch.matrices.shape[:2])
    for i in range(0, len(batch), sp.CHUNK):
        d[i:i + sp.CHUNK] = algebra._pivots(batch.matrices[i:i + sp.CHUNK], active)
    x = np.diagonal(batch.matrices, axis1=1, axis2=2)
    cut = np.ones_like(d)
    np.cumprod(np.divide(x, d, out=cut, where=active & (d > 0.0)), axis=1, out=cut)
    cut = (cut * vf.GROWTH_TOL + vf.SUPPORT_TOL) * x
    ranks = np.where(active, d > 0.0, np.abs(d) > cut).sum(axis=1)
    counts = {int(k): int(v) for k, v in zip(*np.unique(ranks, return_counts=True))}
    n = len(ranks)
    frac_expected = float((ranks == expected).sum() / n)
    frac_at_most = float((ranks <= expected).sum() / n)
    profile = vf.RankProfile(
        expected=expected, n=n, counts=counts,
        frac_expected=frac_expected, frac_at_most=frac_at_most,
        passed=bool(frac_at_most == 1.0 and frac_expected >= 0.999))
    ok = not ((d < -cut).any() or (x < 0.0).any())
    worst = -np.minimum(d, x).min(axis=1) / np.maximum(np.abs(x).max(axis=1), vf._TINY)
    return profile, ok, float(worst.max())


@pytest.mark.parametrize("mutate", [
    None,
    lambda m: _shift(m, 1.0),
    lambda m: _shift(m, -1.0),
    _noise_at_inactive_6,
    _negative_diagonal,
], ids=["sampled", "plus_eps_identity", "minus_eps_identity", "noise_at_inactive_6",
        "negative_diagonal"])
def test_support_verdicts_match_the_c_order_reference(wide_r8_batch, mutate):
    # the fold over Fortran-order chunks, with the cut shared by both verdicts,
    # changes no count, no verdict and no bit of the ratio
    m = wide_r8_batch.matrices.copy()
    if mutate is not None:
        mutate(m)
    profile, ok, worst = _reference_verdicts(sp.SampleBatch(wide_r8_batch.spec, m), 5)
    batch = sp.SampleBatch(wide_r8_batch.spec, m)
    assert vf.rank_profile(batch, expected=5) == profile
    got_ok, got_worst = vf.psd_check(batch)
    assert got_ok == ok and got_worst.hex() == worst.hex()


def test_support_fold_of_streamed_chunks_matches_the_batch_verdicts():
    # the fold takes sample_chunks' output as it is, last partial chunk included
    spec = RieszSpec.build(u=[1.2, 0.0, 0.7, 0.0], seed=8, count=3 * sp.CHUNK + 5)
    hist, finite, psd, worst = vf._support_fold(np.array([True, False, True, False]),
                                                sp.sample_chunks(spec))
    batch = sample_riesz(spec)
    profile = vf.rank_profile(batch, expected=2)
    ok, batch_worst = vf.psd_check(batch)
    assert {k: v for k, v in enumerate(hist.tolist()) if v} == profile.counts == {2: len(batch)}
    assert finite and profile.passed
    assert psd == ok is True and worst.hex() == batch_worst.hex()


def test_psd_check_fails_a_zero_pivot_over_a_nonzero_column():
    # [[0, 1], [1, 0]] has eigenvalues -1 and 1: its first pivot is exactly
    # zero, but the column below it is not, which no PSD matrix allows
    batch = sp.SampleBatch(RieszSpec.build(u=[1.0, 1.0], count=1),
                           np.array([[[0.0, 1.0], [1.0, 0.0]]]))
    assert vf.psd_check(batch) == (False, math.inf)
    assert algebra._pivots(batch.matrices, np.array([True, True])).tolist() == [[-np.inf, 0.0]]


def test_a_zero_active_pivot_lowers_the_counted_rank():
    # the entries past an exactly zero pivot are no pivots, and must not
    # count toward a rank
    draws = np.zeros((2, 3, 3))
    draws[1] = np.diag([0.0, 2.0, 3.0])
    batch = sp.SampleBatch(RieszSpec.build(u=[1.0, 1.0, 1.0], count=2), draws)
    assert vf.rank_profile(batch, expected=3).counts == {0: 2}
    assert vf.psd_check(batch)[0]


def test_support_verdicts_pass_a_leading_inactive_index():
    # x_00 = 0 exactly in every draw: the cut must multiply, never divide
    batch = sample_riesz(RieszSpec.build(u=[0.0, 1.0, 1.0], seed=5, count=2000))
    assert np.all(batch.matrices[:, 0, :] == 0.0)
    prof = vf.rank_profile(batch, expected=2)
    assert prof.passed and prof.counts == {2: 2000}
    assert vf.psd_check(batch)[0]


def test_support_cut_goes_with_its_batch():
    # the cache is weak-keyed: a collected batch takes its folded verdicts with it
    batch = sample_riesz(RieszSpec.build(u=[1.2, 0.0, 0.7, 0.0], seed=2, count=600))
    assert vf.psd_check(batch)[0]
    key, hist = weakref.ref(batch), weakref.ref(vf._SUPPORT[batch][0])
    del batch
    gc.collect()
    assert key() is None and hist() is None


def test_sample_batch_stack_is_read_only():
    spec = RieszSpec.build(u=[1.0, 0.5], count=3)
    stack = np.ones((3, 2, 2))
    batch = sp.SampleBatch(spec, stack)
    with pytest.raises(ValueError):
        batch.matrices[0, 0, 0] = 2.0
    # the caller's own array stays writable
    assert stack.flags.writeable and not batch.matrices.flags.writeable
    drawn = sample_riesz(spec)
    with pytest.raises(ValueError):
        drawn.matrices[0] = 0.0


def test_psd_check():
    spec = RieszSpec.build(u=[1.0, 0.5], seed=3, count=50)
    batch = sample_riesz(spec)
    ok, worst = vf.psd_check(batch)
    assert ok and worst <= 1e-9
    tampered = sp.SampleBatch(RieszSpec.build(u=[1.0, 0.5], count=1),
                              np.array([[[1.0, 0.0], [0.0, -0.5]]]))
    ok, worst = vf.psd_check(tampered)
    assert not ok and worst > 0.1


# ----------------------------------------------------------------- aggregated


def test_run_selftest_smoke_scale():
    out = vf.run_selftest(r_values=(2,), trials=40, seed=0)
    assert out["pass"] is True
    assert set(out["sections"]) == {
        "identities", "admissibility", "quadrature", "rank_one_law",
        "generic_singular_law", "determinism",
    }
    for name, sec in out["sections"].items():
        assert sec["pass"], name
    assert out["elapsed_s"] < 30.0


def test_run_selftest_reports_a_raising_section(monkeypatch, capsys):
    law = vf._selftest_law

    def broken(seed, n, s, c, probes):
        if len(s) == 4:  # the generic singular law
            raise ValueError("operands could not be broadcast together")
        return law(seed, n, s, c, probes)

    monkeypatch.setattr(vf, "_selftest_law", broken)
    out = vf.run_selftest(r_values=(2,), trials=10, seed=4)
    sec = out["sections"]["generic_singular_law"]
    assert out["pass"] is False
    assert sec["pass"] is False and sec["seed"] == 4
    assert sec["error"] == "ValueError: operands could not be broadcast together"
    assert 0.0 <= sec["elapsed_s"] <= out["elapsed_s"]
    # the other sections still ran, and passed
    assert all(other["pass"] for name, other in out["sections"].items()
               if name != "generic_singular_law")
    code = cli.main(["selftest", "--r", "2", "--trials", "10"])
    captured = capsys.readouterr()
    assert code == 1 and "self-test FAIL" in captured.err
    report = json.loads(captured.out)
    assert report["pass"] is False
    assert report["sections"]["generic_singular_law"]["error"].startswith("ValueError: ")


def test_selftest_admissibility_grid_fails_on_a_crash(monkeypatch):
    # only a rejection reads as "not admissible": a crash at a point that is
    # not admissible anyway must fail the section, not pass it
    from rieszcone import gindikin

    real = gindikin.u_from_s

    def crashing(s, *args, **kwargs):
        if np.array_equal(np.asarray(s, dtype=float), [0.25] * 3):
            raise TypeError("unsupported operand")
        return real(s, *args, **kwargs)

    monkeypatch.setattr(vf, "u_from_s", crashing)
    monkeypatch.setattr(gindikin, "u_from_s", crashing)
    out = vf.run_selftest(r_values=(2,), trials=10, seed=0)
    sec = out["sections"]["admissibility"]
    assert out["pass"] is False and sec["pass"] is False
    assert sec["error"] == "TypeError: unsupported operand"


def _faulty_roundtrip(monkeypatch):
    # u comes back with u_1 one larger, s consistent with it
    real = vf.u_from_s

    def shifted(s, *args, **kwargs):
        u = np.array(real(s, *args, **kwargs).u)
        u[0] += 1.0
        return param_from_u(u)

    monkeypatch.setattr(vf, "u_from_s", shifted)


def _faulty_recomposition(monkeypatch):
    # the last run's length-r parameter is one too large in every entry
    real = vf.build_partition

    def skewed(param):
        part = real(param)
        if not part.k:
            return part
        last = tuple(x + 1.0 for x in part.s_blocks[-1])
        return part._replace(s_blocks=part.s_blocks[:-1] + (last,))

    monkeypatch.setattr(vf, "build_partition", skewed)


def _faulty_identity(monkeypatch):
    monkeypatch.setattr(vf, "_IDENTITIES", [
        (name, (lambda case: 1.0) if name == "plan_mean" else check)
        for name, check in vf._IDENTITIES])


@pytest.mark.parametrize("fault, section, want", [
    (_faulty_roundtrip, "admissibility", {"roundtrip_exact": False, "recomposition_exact": True}),
    (_faulty_recomposition, "admissibility",
     {"roundtrip_exact": True, "recomposition_exact": False}),
    (_faulty_identity, "identities", {"failed": ["plan_mean"]}),
], ids=["roundtrip", "recomposition", "identity"])
def test_selftest_fails_on_a_faulty_step(fault, section, want, monkeypatch, capsys):
    fault(monkeypatch)
    code = cli.main(["selftest", "--trials", "5"])
    captured = capsys.readouterr()
    assert code == 1 and "self-test FAIL" in captured.err
    sec = json.loads(captured.out)["sections"][section]
    assert sec["pass"] is False
    # the identity section flags its failures per rank, here r = 2..6
    for flags in (sec["max_rel_err"].values() if section == "identities" else [sec]):
        assert {key: flags.get(key) for key in want} == want


def test_selftest_sections_report_seed_and_time():
    out = vf.run_selftest(r_values=(2,), trials=40, seed=3)
    for name, sec in out["sections"].items():
        # the quadrature section draws nothing, so it names no seed
        assert sec.get("seed") == (None if name == "quadrature" else 3), name
        assert 0.0 <= sec["elapsed_s"] <= out["elapsed_s"], name
    # a section replays alone from its seed
    alone = vf._selftest_identities((2,), 40, 3)
    ident = dict(out["sections"]["identities"])
    del ident["elapsed_s"]
    assert alone == ident
