import contextlib
import csv
import errno
import hashlib
import io
import json
import math
import os
import stat
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rieszcone import cli, sampling, verify
from rieszcone.sampling import CHUNK, RieszSpec


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    return code, json.loads(out), err


THETA_2 = '{"r": 2, "data": [[-1.0, 0.3], [0.3, -1.5]]}'


# --------------------------------------------------------------------- check


def test_check_accepts_and_reports_partition(capsys):
    code, rep, _ = run_json(capsys, "check", "--s", "1.2,0.5,1.2,1.0")
    assert code == 0
    assert rep["in_xi"] is True
    assert rep["u"] == [1.2, 0.0, 0.7, 0.0]
    assert rep["k"] == 2 and rep["j"] == [1, 1]
    assert rep["samplable"] is True


def test_check_rejects_with_diagnostics(capsys):
    code, rep, _ = run_json(capsys, "check", "--s", "0.5,0.2")
    assert code == 2
    assert rep["in_xi"] is False
    assert rep["first_bad_index"] == 2
    assert rep["recovered_value"] == pytest.approx(-0.3)


def test_check_u_input_and_other_multiplicity(capsys):
    code, rep, _ = run_json(capsys, "check", "--u", "1,0,2", "--d", "2")
    assert code == 0
    assert rep["samplable"] is False
    assert rep["s"] == [1.0, 1.0, 3.0]


def test_check_zero_tol_flag(capsys):
    noisy = f"1.0,{0.5 - 1e-13!r},1.0"
    code, _, _ = run(capsys, "check", "--s", noisy)
    assert code == 2
    capsys.readouterr()
    code, rep, _ = run_json(capsys, "check", "--s", noisy, "--zero-tol", "1e-9")
    assert code == 0 and rep["u"] == [1.0, 0.0, 0.5]
    # s_2 is snapped with u_2: the report names the law drawn, and its blocks sum to it
    assert rep["s"] == [1.0, 0.5, 1.0]
    assert rep["s_blocks"] == [[1.0, 0.5, 0.5], [0.0, 0.0, 0.5]]


@pytest.mark.parametrize("argv", [
    ("check",),                                  # neither --s nor --u
    ("check", "--s", "1", "--u", "1"),           # both
    ("check", "--s", "1,oops"),                  # unparsable list
    ("verify", "--s", "1,1"),                    # missing required --zeta
    ("sample", "--s", "1,1", "--format", "tsv"),
    ("frobnicate",),
    (),
    ("sample", "--s", "1,1", "--workers", "0"),
    ("sample", "--s", "1,1", "--workers", "2.5"),
    ("verify", "--s", "1,1", "--zeta", THETA_2, "--workers", "0"),
    ("verify", "--s", "1,1", "--zeta", THETA_2, "--workers", "-1"),
    ("sample", "--s", "1,1", "--seed", "-1"),
    ("sample", "--s", "1,1", "--seed", str(1 << 64)),
    ("selftest", "--trials", "0"),
    ("selftest", "--trials", "-3"),
    ("selftest", "--r", "1"),
    ("selftest", "--seed", "-1"),
    ("verify", "--s", "1,1", "--zeta", THETA_2, "--n", "1"),
])
def test_usage_errors_exit_64(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(list(argv))
    assert exc.value.code == 64


I_2 = '{"r": 2, "data": [[1.0, 0.0], [0.0, 1.0]]}'
I_3 = '{"r": 3, "data": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]}'
NEG_I_3 = '{"r": 3, "data": [[-1, 0, 0], [0, -1, 0], [0, 0, -1]]}'
NAN_2 = '{"r": 2, "data": [[NaN, 0.0], [0.0, -1.0]]}'
INF_2 = '{"r": 2, "data": [[-1.0, 0.0], [0.0, -Infinity]]}'
TORN_2 = '{"r": 2, "data": [[-1.0, 0.0], [0.0, -1.0]'


def _diag_json(c, r):
    return json.dumps({"r": r, "data": (c * np.eye(r)).tolist()})


def _spec_with_theta(data):
    return {"s": [1.0, 1.0], "theta": {"r": len(data), "data": data}}


# one row per documented rejection; a dict (as JSON) or bytes stand for a
# --spec file holding them
@pytest.mark.parametrize("argv, code", [
    (("sample", "--spec", _spec_with_theta([[-1.0, 0.5], [0.0, -1.0]])), 3),
    (("sample", "--spec", _spec_with_theta([[math.nan, 0.0], [0.0, -1.0]])), 3),
    (("sample", "--spec", _spec_with_theta([[-1.0, 0.0], [0.0, -math.inf]])), 3),
    (("sample", "--spec", _spec_with_theta(np.diag([-1.0] * 3).tolist())), 3),
    (("sample", "--spec", {"s": [1.0, 1.0], "theta": {"r": 2, "data": {}}}), 3),
    (("sample", "--spec", {"s": []}), 2),
    (("sample", "--spec", {"s": [1.0, math.nan]}), 2),
    (("sample", "--spec", {"s": [1.0, 1.0], "d": None}), 64),
    (("sample", "--spec", b'\xff{"s": [1.0, 1.0]}'), 64),
    (("sample", "--spec", b'{"s": [1.0, 1.0], "theta": ' + b"[" * 10**5), 64),
    (("sample", "--s", "1,1", "--theta", '{"r": 2, "data": ' + "[" * 10**5), 3),
    (("check", "--s", "1,nan"), 2),
    (("sample", "--s", "1,nan"), 2),
    (("verify", "--s", "1,nan", "--zeta", THETA_2), 2),
    (("density", "--s", "1,nan", "--x", I_2), 2),
    (("density", "--s", "2,1.5", "--d", "nan", "--x", I_2), 2),
    (("density", "--s", "2,1.5", "--zero-tol", "-1", "--x", I_2), 2),
    (("sample", "--s", "1,1", "--theta", NAN_2), 3),
    (("sample", "--s", "1,1", "--theta", INF_2), 3),
    (("sample", "--s", "1,1", "--theta", TORN_2), 3),
    (("sample", "--s", "1,1", "--theta", NEG_I_3), 3),
    (("sample", "--s", "1,1", "--theta", '{"r": 2, "data": {}}'), 3),
    (("verify", "--s", "1,1", "--zeta", NAN_2), 3),
    (("verify", "--s", "1,1", "--zeta", INF_2), 3),
    (("verify", "--s", "1,1", "--zeta", TORN_2), 3),
    (("verify", "--s", "1,1", "--zeta", NEG_I_3), 3),
    (("sample", "--s", ""), 64),
    (("verify", "--s", "1,1", "--zeta", THETA_2, "--seed", "-1"), 64),
    (("sample", "--s", "1,1", "--n", "0"), 64),
    # a --spec file fixes the whole spec: no flag may stand beside it
    (("sample", "--spec", {"s": [1.0, 1.0]}, "--theta", THETA_2), 64),
    (("sample", "--spec", {"s": [1.0, 1.0]}, "--n", "7"), 64),
    (("sample", "--spec", {"s": [1.0, 1.0]}, "--seed", "9"), 64),
    (("sample", "--spec", {"s": [1.0, 1.0]}, "--d", "1"), 64),
    (("sample", "--spec", {"s": [1.0, 1.0]}, "--zero-tol", "0"), 64),
    # a NaN tolerance would snap nothing and pass for 0
    (("check", "--s", "1,1", "--zero-tol", "nan"), 2),
    (("sample", "--s", "1,1", "--zero-tol", "nan"), 2),
    (("verify", "--s", "1,1", "--zeta", THETA_2, "--zero-tol", "nan"), 2),
    (("density", "--s", "2,1.5", "--zero-tol", "nan", "--x", I_2), 2),
    # the tolerance is checked whether the parameter comes as s or as u
    (("check", "--u", "1,1", "--zero-tol", "nan"), 2),
    (("check", "--u", "1,1", "--zero-tol", "-1"), 2),
    (("sample", "--u", "1,1", "--zero-tol", "nan", "--n", "1"), 2),
    # a tilt whose inverse overflows is refused before the header is written
    (("sample", "--u", "1,1", "--n", "2", "--theta", _diag_json(-1e-310, 2)), 3),
    # so is one whose draws would overflow (here at about draw 4 000)
    (("sample", "--u", "1,1", "--n", "20000", "--theta", _diag_json(-5e-308, 2)), 3),
    # JSON true is no rank, though Python's bool is an int
    (("sample", "--u", "1", "--n", "2", "--theta", '{"r": true, "data": [[-1.0]]}'), 3),
    # a log Gamma_Omega past the largest float: lgamma overflows, or the sum does
    (("density", "--s", "1e306", "--x", '{"r":1,"data":[[1]]}'), 2),
    (("density", "--s", "1.3e305,1.3e305,1.3e305", "--x", I_3), 2),
    # the parser's rules: one of --s, --u (sample: or --spec), never two
    (("sample", "--n", "2"), 64),
    (("sample", "--spec", {"s": [1.0, 1.0]}, "--s", "1,1"), 64),
    (("sample", "--spec", {"s": [1.0, 1.0]}, "--u", "1,1"), 64),
    (("verify", "--s", "1,1", "--u", "1,1", "--zeta", THETA_2), 64),
    # density loads --x before log_density_ac validates --s
    (("density", "--s", "1,nan", "--x", "not-a-matrix"), 64),
])
def test_rejections_exit_with_their_documented_code(capsys, tmp_path, argv, code):
    argv = list(argv)
    for i, arg in enumerate(argv):
        if isinstance(arg, (dict, bytes)):
            argv[i] = str(tmp_path / "spec.json")
            (tmp_path / "spec.json").write_bytes(
                arg if isinstance(arg, bytes) else json.dumps(arg).encode())
    try:
        got = cli.main(argv)
    except SystemExit as exc:
        got = exc.code
    out, err = capsys.readouterr()
    assert got == code and out == ""
    if code != 64:
        assert len(err.splitlines()) == 1 and err.startswith(f"rieszcone {argv[0]}: ")


# -------------------------------------------------------------------- sample


def test_sample_ndjson_stdout(capsys):
    code, out, _ = run(capsys, "sample", "--s", "0.5,0.5", "--n", "1000",
                       "--seed", "7")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 1001
    header = json.loads(lines[0])
    assert header["spec"]["n"] == 1000 and header["spec"]["seed"] == 7
    assert header["partition"]["j"] == [1]
    for line in lines[1:]:
        m = np.array(json.loads(line)["data"])
        ev = np.linalg.eigvalsh(m)
        assert ev[-1] > 0 and np.sum(ev > 1e-8 * ev[-1]) == 1


def test_sample_is_byte_deterministic(capsys):
    # two chunk boundaries and a partial last chunk, drawn with --workers 4
    # and without
    args = ("sample", "--u", "1.2,0,0.7,0", "--n", str(2 * CHUNK + 7), "--seed", "3",
            "--theta", '{"r":4,"data":[[-1,0,0,0],[0,-1,0,0],[0,0,-2,0.5],[0,0,0.5,-2]]}')
    code, first, _ = run(capsys, *args)
    assert code == 0
    for extra in ((), ("--workers", "4")):
        code, again, _ = run(capsys, *args, *extra)
        assert code == 0 and again == first


def test_sample_csv_output(capsys, tmp_path):
    out_file = tmp_path / "draws.csv"
    code, out, err = run(capsys, "sample", "--s", "1.0,1.0", "--n", "5",
                         "--seed", "2", "--format", "csv", "--out", str(out_file))
    assert code == 0
    assert out == ""
    assert "wrote 5 samples" in err
    lines = out_file.read_text().splitlines()
    assert lines[0] == "x_1_1,x_1_2,x_2_2"
    assert len(lines) == 6
    # repr round-trips every float exactly
    cells = [float(v) for v in lines[1].split(",")]
    assert all(math.isfinite(v) for v in cells)


def test_sample_json_format(capsys):
    code, doc, _ = run_json(capsys, "sample", "--u", "0,0,0", "--n", "4",
                            "--format", "json")
    assert code == 0
    assert doc["partition"]["k"] == 0
    assert len(doc["samples"]) == 4
    assert all(all(v == 0.0 for row in s["data"] for v in row)
               for s in doc["samples"])


def test_sample_spec_file_roundtrip(capsys, tmp_path):
    spec_file = tmp_path / "spec.json"
    spec_file.write_text(json.dumps({
        "s": [1.0, 1.0], "seed": 5, "n": 8,
        "theta": json.loads(THETA_2),
    }))
    code, from_file, _ = run(capsys, "sample", "--spec", str(spec_file))
    assert code == 0
    code, from_flags, _ = run(capsys, "sample", "--s", "1.0,1.0", "--seed", "5",
                              "--n", "8", "--theta", THETA_2)
    assert code == 0
    assert from_file == from_flags


def test_sample_spec_file_errors(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(SystemExit) as exc:
        cli.main(["sample", "--spec", str(bad)])
    assert exc.value.code == 64

    rejected = tmp_path / "rejected.json"
    rejected.write_text(json.dumps({"s": [0.5, 0.2]}))
    code, _, err = run(capsys, "sample", "--spec", str(rejected))
    assert code == 2 and "u_2" in err

    tilted = tmp_path / "tilted.json"
    tilted.write_text(json.dumps({
        "s": [1.0, 1.0], "theta": {"r": 2, "data": [[1.0, 0.0], [0.0, 1.0]]},
    }))
    code, _, err = run(capsys, "sample", "--spec", str(tilted))
    assert code == 3

    with pytest.raises(SystemExit) as exc:
        cli.main(["sample", "--spec", str(rejected), "--s", "1,1"])
    assert exc.value.code == 64

    # seed and n must be JSON integers in range, never truncated or masked
    for key, value in (("n", 2.9), ("seed", 1.7), ("seed", -1), ("seed", 1 << 64)):
        odd = tmp_path / "odd.json"
        odd.write_text(json.dumps({"s": [1.0, 1.0], key: value}))
        with pytest.raises(SystemExit) as exc:
            cli.main(["sample", "--spec", str(odd)])
        assert exc.value.code == 64, (key, value)


def test_sample_spec_file_with_u(capsys, tmp_path):
    spec_file = tmp_path / "spec.json"
    spec_file.write_text(json.dumps({"u": [1.2, 0, 0.7, 0], "seed": 5, "n": 8}))
    code, from_file, _ = run(capsys, "sample", "--spec", str(spec_file))
    assert code == 0
    code, from_flags, _ = run(capsys, "sample", "--u", "1.2,0,0.7,0", "--seed", "5",
                              "--n", "8")
    assert code == 0 and from_file == from_flags
    # neither, or both naming different parameters, is a usage error
    for obj in ({"seed": 5, "n": 8}, {"s": [1.0, 1.0], "u": [1.0, 1.0], "n": 8},
                {"s": [1.0, 1.0], "u": {}}, {"s": [1.0, 1.0], "u": [-1.0, 1.0]}):
        spec_file.write_text(json.dumps(obj))
        with pytest.raises(SystemExit) as exc:
            cli.main(["sample", "--spec", str(spec_file)])
        assert exc.value.code == 64, obj
    # a parameter that is not a list of numbers is refused like any bad one
    for obj in ({"u": {}}, {"s": {}}):
        spec_file.write_text(json.dumps(obj))
        code, out, err = run(capsys, "sample", "--spec", str(spec_file))
        assert code == 2 and out == "" and "sequence of numbers" in err, obj


def test_sample_spec_file_with_a_key_it_would_drop_exits_64(capsys, tmp_path):
    # each of these was read as another request: "N" as n = 1, "zero_tol" as
    # no snap, an "r" of 3 as the rank of s; a JSON true or 2.0 is no rank
    spec_file = tmp_path / "spec.json"
    for obj in ({"s": [1, 1], "N": 5000}, {"s": [1, 1], "zero_tol": 0.5},
                {"s": [1, 1], "r": 3}, {"s": [1, 1], "r": 2.0}, {"u": [1], "r": True}):
        spec_file.write_text(json.dumps(obj))
        with pytest.raises(SystemExit) as exc:
            cli.main(["sample", "--spec", str(spec_file)])
        assert exc.value.code == 64, obj
        assert "bad spec file" in capsys.readouterr().err, obj
    # an "r" that is len(s), as every header's spec holds, is read
    spec_file.write_text(json.dumps({"s": [1, 1], "r": 2, "n": 3}))
    code, out, _ = run(capsys, "sample", "--spec", str(spec_file))
    assert code == 0 and len(out.splitlines()) == 4


def test_sample_tiny_u_is_sampled(capsys):
    # u_2 = 1e-300 is admissible; its gamma shape no longer rounds to 0
    code, out, _ = run(capsys, "sample", "--u", "1,1e-300", "--n", str(CHUNK + 3))
    assert code == 0
    draws = [np.array(json.loads(line)["data"]) for line in out.splitlines()[1:]]
    assert len(draws) == CHUNK + 3
    assert all(np.all(np.isfinite(m)) and np.array_equal(m, m.T) for m in draws)


def test_sample_readme_law_bytes_are_pinned(capsys):
    # sha256 of these bytes since the sampler's streams became SFC64 and its
    # draws one Gram product per chunk; the product sums in gemm, so the
    # bits hold for one BLAS summation order (CI checks them on one thread)
    code, out, _ = run(capsys, "sample", "--u", "1.2,0,0.7,0", "--n", "1100",
                       "--seed", "42")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "232a42c10fd0a648f0394575a3d9c38eed3c35358f7c712378273a80fe5c20ec")


def test_sample_flag_defaults_are_unchanged(capsys):
    # sample's spec flags default to None so that --spec can refuse them;
    # left out, they still mean --n 100 --seed 0 --d 1 --zero-tol 0
    code, bare, _ = run(capsys, "sample", "--u", "1.2,0,0.7,0")
    assert code == 0
    code, spelled, _ = run(capsys, "sample", "--u", "1.2,0,0.7,0", "--n", "100",
                           "--seed", "0", "--d", "1", "--zero-tol", "0")
    assert code == 0 and bare == spelled and len(bare.splitlines()) == 101


def test_sample_spec_beside_a_flag_names_it(capsys, tmp_path):
    spec_file = tmp_path / "spec.json"
    spec_file.write_text(json.dumps({"s": [1.0, 1.0], "n": 2}))
    with pytest.raises(SystemExit) as exc:
        cli.main(["sample", "--spec", str(spec_file), "--n", "7", "--zero-tol", "0"])
    assert exc.value.code == 64
    assert "mutually exclusive with --n, --zero-tol" in capsys.readouterr().err


def test_sample_theta_from_file(capsys, tmp_path):
    theta_file = tmp_path / "theta.json"
    theta_file.write_text(THETA_2)
    code, via_file, _ = run(capsys, "sample", "--s", "1,1", "--n", "3",
                            "--theta", str(theta_file))
    assert code == 0
    code, inline, _ = run(capsys, "sample", "--s", "1,1", "--n", "3",
                          "--theta", THETA_2)
    assert via_file == inline


def test_sample_rejections(capsys):
    code, _, err = run(capsys, "sample", "--s", "0.25,0.25", "--n", "2")
    assert code == 2
    code, _, err = run(capsys, "sample", "--u", "1,1", "--d", "2", "--n", "2")
    assert code == 2
    code, _, err = run(capsys, "sample", "--s", "1,1", "--theta", "nonsense")
    assert code == 3 and "theta" in err
    code, _, err = run(capsys, "sample", "--s", "1,1",
                       "--theta", '{"r":2,"data":[[0.0,0],[0,0.0]]}')
    assert code == 3


@pytest.mark.parametrize("fmt", ["ndjson", "json", "csv"])
def test_sample_memory_does_not_grow_with_n(capsys, tmp_path, fmt):
    # output is streamed a chunk at a time, so ten times the draws may not
    # need more than half again the memory
    def peak(n):
        tracemalloc.start()
        try:
            code = cli.main(["sample", "--u", "1.2,0,0.7,0", "--n", str(n), "--seed", "5",
                             "--format", fmt, "--out", str(tmp_path / f"draws.{fmt}")])
            return code, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(4 * CHUNK)  # the first run in a process also allocates lazy set-up
    code_small, small = peak(4 * CHUNK)
    code_large, large = peak(40 * CHUNK)
    capsys.readouterr()
    assert code_small == code_large == 0
    assert large <= 1.5 * small, f"peak {large} B at n={40 * CHUNK}, {small} B at n={4 * CHUNK}"


def test_sample_memory_does_not_grow_with_workers(capsys, tmp_path):
    # draws run on the calling thread, so sixteen workers may not need more
    # than half again the memory of one
    def peak(workers):
        tracemalloc.start()
        try:
            code = cli.main(["sample", "--u", "1.2,0,0.7,0", "--n", str(40 * CHUNK),
                             "--seed", "5", "--workers", str(workers),
                             "--out", str(tmp_path / "draws.ndjson")])
            return code, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(1)  # the first run in a process also allocates lazy set-up
    code_one, one = peak(1)
    code_many, many = peak(16)
    capsys.readouterr()
    assert code_one == code_many == 0
    assert many <= 1.5 * one, f"peak {many} B with 16 workers, {one} B with 1"


def test_sample_stats_line_leaves_output_unchanged(capsys, tmp_path):
    n = 2 * CHUNK + 7
    args = ["sample", "--u", "1.2,0,0.7,0", "--n", str(n), "--seed", "11", "--workers", "2"]
    code, plain, _ = run(capsys, *args)
    assert code == 0
    code, with_stats, err = run(capsys, *args, "--stats")
    assert code == 0 and with_stats == plain
    stats = json.loads(err.strip().splitlines()[-1])
    spec = RieszSpec.build(u=[1.2, 0.0, 0.7, 0.0], seed=11, count=n)
    canonical = json.dumps(spec.to_json_dict(), sort_keys=True, separators=(",", ":"))
    assert stats["spec_digest"] == hashlib.sha256(canonical.encode()).hexdigest()
    assert (stats["n"], stats["chunk"], stats["chunks"], stats["workers"]) == (n, CHUNK, 3, 2)
    assert stats["draw_s"] >= 0 and stats["write_s"] >= 0 and stats["draws_per_s"] > 0

    files = []
    for extra in ([], ["--stats"]):
        path = tmp_path / f"out{len(files)}.csv"
        code, out, _ = run(capsys, *args, "--format", "csv", "--out", str(path), *extra)
        assert code == 0 and out == ""
        files.append(path.read_bytes())
    assert files[0] == files[1]


def test_sample_non_finite_draw_exits_1(capsys, monkeypatch, tmp_path):
    def bad_chunks(spec, workers=1):
        good = np.ones((CHUNK, spec.param.r, spec.param.r))
        yield good[:min(CHUNK, spec.count - 1)]
        bad = np.ones((1, spec.param.r, spec.param.r))
        bad[0, 0, 0] = np.nan
        yield bad

    monkeypatch.setattr(cli, "sample_chunks", bad_chunks)
    code, _, err = run(capsys, "sample", "--s", "1,1", "--n", "3")
    assert code == 1
    assert "draw 2 has a non-finite entry" in err

    # --out is all or nothing: a refused draw after a written chunk leaves
    # no file behind, and an existing file keeps its bytes
    path = tmp_path / "draws.ndjson"
    code, _, err = run(capsys, "sample", "--s", "1,1", "--n", str(CHUNK + 1),
                       "--out", str(path))
    assert code == 1 and f"draw {CHUNK} has a non-finite entry" in err
    assert list(tmp_path.iterdir()) == []
    path.write_bytes(b"old bytes\n")
    code, _, _ = run(capsys, "sample", "--s", "1,1", "--n", str(CHUNK + 1),
                     "--out", str(path))
    assert code == 1
    assert list(tmp_path.iterdir()) == [path] and path.read_bytes() == b"old bytes\n"


def test_sample_out_that_cannot_be_opened_exits_64(capsys, monkeypatch, tmp_path):
    def no_draws(spec, workers=1):
        raise AssertionError("drew samples for an --out that cannot be written")

    monkeypatch.setattr(cli, "sample_chunks", no_draws)
    for bad in (tmp_path / "missing" / "draws.ndjson", tmp_path):
        with pytest.raises(SystemExit) as exc:
            cli.main(["sample", "--s", "1,1", "--n", "3", "--out", str(bad)])
        assert exc.value.code == 64
        err = capsys.readouterr().err
        assert err.splitlines()[-1].startswith(f"rieszcone: error: cannot open --out {bad}")
    assert list(tmp_path.iterdir()) == []


def test_sample_out_at_a_symlink_loop_or_a_link_to_a_directory_exits_64(
        capsys, monkeypatch, tmp_path):
    def no_draws(spec, workers=1):
        raise AssertionError("drew samples for an --out that cannot be written")

    monkeypatch.setattr(cli, "sample_chunks", no_draws)
    loop, back = tmp_path / "loop", tmp_path / "back"
    loop.symlink_to(back)
    back.symlink_to(loop)
    folder, link = tmp_path / "folder", tmp_path / "to-folder"
    folder.mkdir()
    link.symlink_to(folder)
    for path, reason in ((loop, errno.ELOOP), (link, errno.EISDIR)):
        with pytest.raises(SystemExit) as exc:
            cli.main(["sample", "--s", "1,1", "--n", "3", "--out", str(path)])
        assert exc.value.code == 64
        err = capsys.readouterr().err
        assert err.splitlines()[-1] == (
            f"rieszcone: error: cannot open --out {path}: {os.strerror(reason)}")
    assert sorted(tmp_path.iterdir()) == sorted([loop, back, folder, link])
    assert loop.is_symlink() and back.is_symlink() and list(folder.iterdir()) == []


def test_sample_out_that_cannot_be_renamed_into_place_exits_64(capsys, monkeypatch, tmp_path):
    path = tmp_path / "draws.ndjson"
    path.write_bytes(b"old bytes\n")

    def refused(src, dst):
        raise OSError(errno.EACCES, os.strerror(errno.EACCES))

    monkeypatch.setattr(os, "replace", refused)
    with pytest.raises(SystemExit) as exc:
        cli.main(["sample", "--s", "1,1", "--n", "3", "--out", str(path)])
    assert exc.value.code == 64
    err = capsys.readouterr().err
    assert err.splitlines()[-1].startswith(f"rieszcone: error: cannot open --out {path}")
    assert list(tmp_path.iterdir()) == [path] and path.read_bytes() == b"old bytes\n"


def test_sample_out_keeps_symlink_and_mode(capsys, tmp_path):
    code, expected, _ = run(capsys, "sample", "--s", "1,1", "--n", "5")
    target = tmp_path / "draws.ndjson"
    target.write_bytes(b"old bytes\n")
    target.chmod(0o640)
    link = tmp_path / "link.ndjson"
    link.symlink_to(target)
    code, _, _ = run(capsys, "sample", "--s", "1,1", "--n", "5", "--out", str(link))
    assert code == 0
    assert link.is_symlink() and link.resolve() == target
    assert target.read_text() == expected
    assert target.stat().st_mode & 0o777 == 0o640
    assert sorted(tmp_path.iterdir()) == [target, link]


def test_sample_out_to_a_device_writes_in_place(capsys):
    before = os.stat(os.devnull)
    code, _, _ = run(capsys, "sample", "--s", "1,1", "--n", "5", "--out", os.devnull)
    after = os.stat(os.devnull)
    assert code == 0
    assert stat.S_ISCHR(after.st_mode) and after.st_ino == before.st_ino


def test_tilt_the_sampler_cannot_factor_exits_3(capsys, tmp_path):
    # passes the eigenvalue margin, but its Schur complement is not
    # numerically negative definite (see the sampling tests)
    q = np.linalg.qr(np.random.default_rng(26).standard_normal((8, 8)))[0]
    n = q @ np.diag(np.logspace(-9.7, 0, 8)) @ q.T
    theta = tmp_path / "theta.json"
    theta.write_text(json.dumps({"r": 8, "data": (-0.5 * (n + n.T)).tolist()}))
    u = "1,0,1,0,1,0,1,0"
    code, out, err = run(capsys, "sample", "--u", u, "--theta", str(theta), "--n", "3")
    assert code == 3 and out == "" and "Schur complement" in err
    code, out, err = run(capsys, "verify", "--u", u, "--theta", str(theta),
                         "--zeta", str(theta), "--n", "3")
    assert code == 3 and out == "" and "Schur complement" in err


# -------------------------------------------------------------------- verify


def test_verify_passes_against_closed_form(capsys):
    code, rep, _ = run_json(capsys, "verify", "--s", "0.5,0.5",
                            "--theta", '{"r":2,"data":[[-0.5,0],[0,-0.5]]}',
                            "--zeta", '{"r":2,"data":[[-0.75,0],[0,-0.75]]}',
                            "--n", "4000", "--seed", "1")
    assert code == 0
    assert rep["pass"] is True
    assert rep["exact"] == pytest.approx(2.0 / 3.0, rel=1e-12)
    assert abs(rep["z"]) <= 4.0


def test_verify_zeta_equal_theta_is_trivially_exact(capsys):
    code, rep, _ = run_json(capsys, "verify", "--u", "1.0,0.4",
                            "--zeta", '{"r":2,"data":[[-1,0],[0,-1]]}',
                            "--n", "50")
    assert code == 0 and rep["z"] == 0.0 and rep["stderr"] == 0.0


def test_verify_variance_guard_exits_3(capsys):
    code, _, err = run(capsys, "verify", "--s", "1,1",
                       "--zeta", '{"r":2,"data":[[-0.4,0],[0,-0.4]]}',
                       "--n", "50")
    assert code == 3 and "variance" in err.lower()


@pytest.mark.parametrize("argv", [
    # effective sample sizes 6e-22 and 1e-11 of the requested draws
    ["--s", "50,50", "--theta", _diag_json(-0.5, 2), "--zeta", _diag_json(-0.3, 2),
     "--n", "20000"],
    ["--s", "400,400", "--zeta", _diag_json(-1.25, 2), "--n", "2000"],
    # 2 zeta - theta = 0.2 I: infinite weight variance
    ["--s", "50,50", "--zeta", _diag_json(-0.4, 2), "--n", "20000"],
])
def test_verify_refuses_probes_with_too_few_effective_draws(capsys, argv):
    code, out, err = run(capsys, "verify", *argv)
    assert code == 3 and out == ""
    assert err.startswith("rieszcone verify: ") and len(err.splitlines()) == 1
    assert "variance" in err


def test_verify_ratio_past_the_largest_float_exits_3(capsys):
    # the ratio 0.99928^-1e6 is about e^720.3: refused before any draw
    code, out, err = run(capsys, "verify", "--s", "500000,500000", "--n", "2",
                         "--zeta", _diag_json(-0.99928, 2))
    assert code == 3 and out == ""
    assert err == ("rieszcone verify: the transform ratio is exp(720.259), "
                   "past the largest float\n")


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_verify_log_transform_past_the_float_range_exits_3(capsys, monkeypatch):
    # log Delta_s((-theta)^{-1}) = -1e308 log 1e300 is past the float range:
    # one stderr line, not a warning and a report of NaN, before any chunk is read
    def no_chunks(spec, workers=1):
        raise AssertionError("read a chunk")
        yield

    monkeypatch.setattr(cli, "sample_chunks", no_chunks)
    code, out, err = run(capsys, "verify", "--s", "1e308", "--theta", _diag_json(-1e300, 1),
                         "--zeta", _diag_json(-1.1e300, 1), "--n", "2000")
    assert code == 3 and out == ""
    assert err == "rieszcone verify: the log transform at theta is -inf, past the float range\n"


def _no_chunks(spec, workers=1):
    raise AssertionError("read a chunk")
    yield


def _guard_argv(s, theta, zeta, n):
    return lambda: ["verify", "--s", ",".join(map(str, s)), "--n", str(n),
                    "--theta", _diag_json(-theta, len(s)), "--zeta", _diag_json(-zeta, len(s))]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("argv, line", [
    # 2 zeta overflows at zeta_22 = -1.7e308, but the guard zeta - theta/2 does not:
    # the probe's own refusal
    (lambda: ["verify", "--u", "1,1", "--n", "600",
              "--zeta", '{"r":2,"data":[[-1,0],[0,-1.7e308]]}'],
     "too few effective draws: the weights' relative variance is exp(1064) - 1, so 600 "
     "draws are worth 0, below ESS_FLOOR = 1000"),
    # at r = 480, s_k = 3.8e305, theta = -2.2 I and zeta = 0.8 theta each log transform
    # is finite and the draws' scale is inside the headroom, but sum(s) log 2 is not:
    # log1p rho, about 1.2e307, cannot be formed in floats
    (_guard_argv([3.8e305] * 480, 2.2, 0.8 * 2.2, 2),
     "the weights' log(1 + rho) sums terms of size inf, past what floats resolve"),
    # rounding in terms near 1e119 swamps log1p rho: at zeta one ulp from theta it read
    # -1.8e103, and exp(1.8e103) raised an OverflowError
    (_guard_argv([1e115, 1e119], 5.0, 5.000000000000001, 600),
     "the weights' log(1 + rho) sums terms of size 3.53e+119, past what floats resolve"),
], ids=["zeta_near_the_largest_float", "sum_s_log_2_past_the_float_range",
        "rounding_swamps_log1p_rho"])
def test_verify_guard_at_extreme_scales_exits_3_with_one_line(capsys, monkeypatch, argv, line):
    # one stderr line, no warning, before any chunk is read
    monkeypatch.setattr(cli, "sample_chunks", _no_chunks)
    code, out, err = run(capsys, *argv())
    assert code == 3 and out == ""
    assert err == f"rieszcone verify: {line}\n"


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_verify_whose_rounding_reads_log1p_rho_far_below_0_reads_its_draws(capsys):
    # s = 1e10 at a tilt of condition 5e9, and zeta = (1 + 1e-6) theta: rho is about
    # 0.03, but rounding read log(1 + rho) near -1 800, and exp(1 800) raised an
    # OverflowError.  rho >= 0, so the guard reads it as 0 and the draws are read;
    # the same rounding in the log ratio still decides the report, which is not checked
    theta = np.array([[-65860763.17760214, -431165709.8217592, -372485169.2567593],
                      [-431165709.8217592, -2825652306.504397, -2440905358.3368545],
                      [-372485169.2567593, -2440905358.3368545, -2108557641.9961195]])
    code, out, err = run(capsys, "verify", "--s", "1e10,1e10,1e10", "--n", "600",
                         "--theta", json.dumps({"r": 3, "data": theta.tolist()}),
                         "--zeta", json.dumps({"r": 3, "data": ((1 + 1e-6) * theta).tolist()}))
    assert code in (0, 1) and err == ""
    assert json.loads(out)["n"] == 600


def test_verify_at_large_s_reports_finite_numbers(capsys):
    # the transforms themselves overflow a float here, their ratio does not
    code, out, err = run(capsys, "verify", "--s", "400,400",
                         "--theta", _diag_json(-0.25, 2), "--zeta", _diag_json(-0.26, 2),
                         "--n", "20000")
    assert code in (0, 1) and err == ""
    rep = json.loads(out)
    assert all(math.isfinite(rep[k]) for k in ("exact", "estimate", "stderr", "z"))


def test_verify_stdout_is_the_library_report(capsys):
    from rieszcone.algebra import SymElement
    from rieszcone.sampling import sample_riesz
    from rieszcone.verify import laplace_mc

    n = 2 * CHUNK + 7
    theta = [[-1.0, 0.2, 0.0, 0.1], [0.2, -1.3, 0.0, 0.0],
             [0.0, 0.0, -0.9, 0.3], [0.1, 0.0, 0.3, -1.2]]
    zeta = (1.2 * np.asarray(theta)).tolist()
    spec = RieszSpec.build(u=[1.2, 0.0, 0.7, 0.0], theta=SymElement.from_dense(theta),
                           seed=3, count=n)
    report = laplace_mc(sample_riesz(spec), SymElement.from_dense(zeta))
    want = json.dumps(report.to_json_dict(), indent=2) + "\n"
    for workers in ("1", "3"):
        code, out, _ = run(capsys, "verify", "--u", "1.2,0,0.7,0",
                           "--theta", json.dumps({"r": 4, "data": theta}),
                           "--zeta", json.dumps({"r": 4, "data": zeta}),
                           "--n", str(n), "--seed", "3", "--workers", workers)
        assert code == 0 and out == want


def test_verify_memory_does_not_grow_with_n(capsys):
    # the draws are folded a chunk at a time, so ten times the draws may not
    # need more than half again the memory (the benchmark's r = 8 law)
    def peak(n):
        tracemalloc.start()
        try:
            code = cli.main(["verify", "--u", "1.5,0.8,0,1.2,0.6,0.9,0,0",
                             "--zeta", _diag_json(-1.1, 8), "--n", str(n), "--seed", "5",
                             "--workers", "2"])
            return code, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(4 * CHUNK)  # the first run in a process also allocates lazy set-up
    code_small, small = peak(4 * CHUNK)
    code_large, large = peak(40 * CHUNK)
    capsys.readouterr()
    assert code_small == code_large == 0
    assert large <= 1.5 * small, f"peak {large} B at n={40 * CHUNK}, {small} B at n={4 * CHUNK}"


def test_verify_bad_zeta_exits_3(capsys):
    code, _, err = run(capsys, "verify", "--s", "1,1", "--zeta", "bogus",
                       "--n", "10")
    assert code == 3
    code, _, err = run(capsys, "verify", "--s", "1,1",
                       "--zeta", '{"r":3,"data":[[-1,0,0],[0,-1,0],[0,0,-1]]}',
                       "--n", "10")
    assert code == 3



def test_verify_s_snapped_by_zero_tol_checks_the_snapped_law(capsys):
    # u_2 = -1e-10 is snapped to 0, and s_2 with it: the closed form is that of
    # s = (1, 0.5), the law drawn, so the ratio at -1.1 I is 1.1^-1.5
    code, rep, _ = run_json(capsys, "verify", "--s", "1,0.4999999999",
                            "--zero-tol", "1e-9",
                            "--zeta", '{"r":2,"data":[[-1.1,0],[0,-1.1]]}',
                            "--n", "20")
    assert code == 0 and rep["pass"] is True
    assert rep["exact"] == 1.1 ** -1.5

# ------------------------------------------------------------------- density


def test_density_value(capsys):
    code, rep, _ = run_json(capsys, "density", "--s", "2.0,1.5",
                            "--x", '{"r":2,"data":[[4.0,0.0],[0.0,9.0]]}')
    assert code == 0
    want = 0.5 * math.log(4.0) - 0.5 * math.log(2 * math.pi)
    assert rep["log_density"] == pytest.approx(want, rel=1e-12)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_density_whose_log_power_is_past_the_float_range_exits_2(capsys):
    # (2.5e305 - 1) log 5e-324 is past the float range: one line, no warning
    code, out, err = run(capsys, "density", "--s", "2.5e305", "--x", _diag_json(5e-324, 1))
    assert code == 2 and out == ""
    assert err == "rieszcone density: log density -inf at x: past the largest float\n"


def test_density_refuses_singular_parameter(capsys):
    code, _, err = run(capsys, "density", "--s", "0.5,0.5",
                       "--x", '{"r":2,"data":[[1.0,0.0],[0.0,1.0]]}')
    assert code == 2 and "no density" in err


def test_density_refuses_a_parameter_that_zero_tol_makes_singular(capsys):
    # u_2 = 1e-10 is snapped to 0, so there is no density; without the
    # tolerance the same s has one
    x = '{"r":2,"data":[[1.0,0.0],[0.0,1.0]]}'
    code, _, err = run(capsys, "density", "--s", "1,0.5000000001", "--zero-tol", "1e-9",
                       "--x", x)
    assert code == 2 and "no density" in err
    code, _, _ = run(capsys, "density", "--s", "1,0.5000000001", "--x", x)
    assert code == 0


def test_density_off_cone_point_fails(capsys):
    code, _, err = run(capsys, "density", "--s", "2.0,1.5",
                       "--x", '{"r":2,"data":[[1.0,0.0],[0.0,-1.0]]}')
    assert code == 1


def test_density_usage_errors(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["density", "--x", '{"r":1,"data":[[1.0]]}'])
    assert exc.value.code == 64
    with pytest.raises(SystemExit) as exc:
        cli.main(["density", "--s", "2.0,1.5", "--x", "not-a-matrix"])
    assert exc.value.code == 64


def test_each_request_fact_is_derived_once(capsys, monkeypatch):
    # a spec's partition is built at construction and kept; density leaves
    # u to log_density_ac
    calls = []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapper

    for mod, name in ((sampling, "build_partition"), (sampling, "u_from_s"), (cli, "u_from_s"),
                      (verify, "u_from_s")):
        if hasattr(mod, name):
            monkeypatch.setattr(mod, name, counted(name, getattr(mod, name)))
    spec = RieszSpec.build(u=[1.2, 0.0, 0.7, 0.0], count=3)
    assert spec.partition is spec.partition
    sampling.write_ndjson(spec, sampling.sample_chunks(spec), io.StringIO())
    assert calls == ["build_partition"]
    calls.clear()
    code, _, _ = run(capsys, "density", "--s", "2.0,1.5", "--x", I_2)
    assert code == 0 and calls == ["u_from_s"]
    # verify derives u once, when it builds the spec, and the probe reads its s
    calls.clear()
    code, _, _ = run(capsys, "verify", "--s", "1,0.4999999999", "--zero-tol", "1e-9",
                     "--zeta", '{"r":2,"data":[[-1.1,0],[0,-1.1]]}', "--n", "20")
    assert code == 0 and calls == ["u_from_s", "build_partition"]


def test_density_rejects_other_multiplicities(capsys):
    code, _, err = run(capsys, "density", "--s", "2.0,2.0", "--d", "2",
                       "--x", '{"r":2,"data":[[1.0,0.0],[0.0,1.0]]}')
    assert code == 2


# ------------------------------------------------------------------ selftest


def test_selftest_smoke(capsys):
    code, out, err = run(capsys, "selftest", "--r", "2", "--trials", "50")
    assert code == 0
    summary = json.loads(out)
    assert summary["pass"] is True
    assert len(summary["sections"]["quadrature"]["points"]) == 9
    assert "self-test PASS" in err


# ------------------------------------------------------------- parser reuse


def _outcome(capsys, argv):
    """(exit code, stdout, stderr) of one ``main`` call, a usage exit included;
    the timings of a ``--stats`` line are dropped, the rest of it kept."""
    try:
        code = cli.main(list(argv))
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    if "--stats" in argv:
        *lines, stats = err.splitlines()
        stats = json.loads(stats)
        for key in ("draw_s", "write_s", "draws_per_s"):
            del stats[key]
        err = lines + [stats]
    return code, out, err


def test_a_reused_parser_leaks_no_state(capsys, tmp_path):
    assert cli._build_parser() is cli._build_parser()
    spec_file = tmp_path / "spec.json"
    spec_file.write_text(json.dumps({"u": [1.2, 0, 0.7, 0], "seed": 5, "n": 8}))
    runs = [
        ("sample", "--s", "1,1", "--n", "0"),
        ("sample", "--spec", str(spec_file)),
        ("sample", "--u", "1.2,0,0.7,0", "--stats"),
        ("check", "--s", "1.0,0.5"),
        ("verify", "--s", "0.5,0.5", "--zeta", '{"r":2,"data":[[-1.5,0],[0,-1.5]]}',
         "--n", "500"),
    ]
    alone = []
    for argv in runs:
        cli._build_parser.cache_clear()
        alone.append(_outcome(capsys, argv))
    in_sequence = [_outcome(capsys, argv) for argv in runs]
    assert [code for code, _, _ in alone] == [64, 0, 0, 0, 0]
    assert in_sequence == alone


# ------------------------------------------------------------- console script


def test_import_does_not_load_scipy():
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, rieszcone; print('scipy' in sys.modules)"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0 and proc.stdout.strip() == "False"


@pytest.mark.parametrize("n, lines_read", [(1, 0), (200_000, 1)])
def test_sample_into_a_closed_pipe_exits_1(n, lines_read):
    # as `rieszcone sample ... | head -1` does: the reader goes away, either
    # mid-stream or before the final flush of fully buffered output
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    proc = subprocess.Popen(
        [sys.executable, "-m", "rieszcone.cli", "sample", "--u", "1,1", "--n", str(n)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    for _ in range(lines_read):
        proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait() == 1
    assert len(err.splitlines()) == 1 and err.startswith("rieszcone sample: ")
    assert "Broken pipe" in err and "Traceback" not in err


ENOSPC_LINE = f"[Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}"


class _FullDisk(io.StringIO):
    """A stdout on a full disk: every write fails with ENOSPC."""

    def write(self, text):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


@pytest.mark.parametrize("argv", [
    ("sample", "--u", "1,1", "--n", "10"),
    ("check", "--s", "1,1"),
    ("selftest", "--r", "2", "--trials", "1"),
])
def test_a_stdout_that_cannot_be_written_exits_1_with_one_line(capsys, monkeypatch, argv):
    # any failed write, not only a broken pipe, is one stderr line and exit 1;
    # stdout is then parked on os.devnull, so the flush at exit has nothing to raise
    monkeypatch.setattr(sys, "stdout", _FullDisk())
    code = cli.main(list(argv))
    parked = sys.stdout
    assert parked.name == os.devnull
    parked.close()
    assert code == 1
    assert capsys.readouterr().err.splitlines() == [f"rieszcone {argv[0]}: {ENOSPC_LINE}"]


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("argv, to_stdout", [
    (("sample", "--u", "1,1", "--n", "10", "--out", "/dev/full"), False),
    (("sample", "--u", "1,1", "--n", "10"), True),
    (("check", "--s", "1,1"), True),
])
def test_a_full_device_exits_1_without_a_traceback(argv, to_stdout):
    with open("/dev/full" if to_stdout else os.devnull, "w") as out:
        proc = subprocess.run([sys.executable, "-m", "rieszcone.cli", *argv],
                              stdout=out, stderr=subprocess.PIPE, text=True)
    assert proc.returncode == 1
    assert proc.stderr.splitlines() == [f"rieszcone {argv[0]}: {ENOSPC_LINE}"]


@pytest.mark.parametrize("argv", [("--help",), ("sample", "--help")])
def test_help_that_cannot_be_written_exits_1_with_one_line(capsys, monkeypatch, argv):
    # argparse swallows the OSError of its own help output; this help raises it,
    # inside main's try, before any command exists to name
    monkeypatch.setattr(sys, "stdout", _FullDisk())
    code = cli.main(list(argv))
    parked = sys.stdout
    assert parked.name == os.devnull
    parked.close()
    assert code == 1
    assert capsys.readouterr().err.splitlines() == [f"rieszcone: {ENOSPC_LINE}"]


@pytest.mark.parametrize("argv", [("--help",), ("sample", "--help")])
def test_help_to_a_writable_stdout_exits_0(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(list(argv))
    out, err = capsys.readouterr()
    assert exc.value.code == 0 and err == ""
    assert out.startswith(" ".join(["usage: rieszcone", *argv[:-1]]))


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("unbuffered", [False, True])
@pytest.mark.parametrize("argv", [("--help",), ("sample", "--help")])
def test_help_on_a_full_device_exits_1_with_one_line(argv, unbuffered):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    with open("/dev/full", "w") as out:
        proc = subprocess.run([sys.executable, "-m", "rieszcone.cli", *argv],
                              stdout=out, stderr=subprocess.PIPE, text=True, env=env)
    assert proc.returncode == 1
    assert proc.stderr.splitlines() == [f"rieszcone: {ENOSPC_LINE}"]


def test_sample_out_whose_write_fails_mid_run_keeps_the_target(capsys, monkeypatch, tmp_path):
    path = tmp_path / "draws.ndjson"
    path.write_bytes(b"old bytes\n")

    def full_after_a_line(spec, chunks, fp):
        fp.write("a line that reached the temporary file\n")
        fp.flush()
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    monkeypatch.setattr(sys, "stdout", sys.stdout)  # restored after main parks it
    monkeypatch.setattr(cli, "write_ndjson", full_after_a_line)
    code = cli.main(["sample", "--s", "1,1", "--n", "3", "--out", str(path)])
    sys.stdout.close()
    out, err = capsys.readouterr()
    assert code == 1 and out == ""
    assert err.splitlines() == [f"rieszcone sample: {ENOSPC_LINE}"]
    assert list(tmp_path.iterdir()) == [path] and path.read_bytes() == b"old bytes\n"


def test_console_script_is_wired():
    proc = subprocess.run(
        [sys.executable, "-m", "rieszcone.cli", "check", "--u", "1,0"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["in_xi"] is True


# ------------------------------------------------------ the contract as a property

# the special values, the Gindikin gaps 0.25 and 0.75 among them, and log-uniform
# magnitudes, across the float range and near 1
_VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, 1e-300, 1.7e308, -1.0, -5e-324, -1.7e308, 0.25, 0.75]),
    st.floats(-300.0, 300.0).map(lambda e: 10.0 ** e),
    st.floats(-3.0, 3.0).map(lambda e: 10.0 ** e))
_MALFORMED = ["{", "{}", "[]", "null", '{"r": 2}', '{"r": 2, "data": [[1, 0], [0]]}',
              '{"r": "2", "data": [[-1, 0], [0, -1]]}', '{"r": 1, "data": [["x"]]}',
              '{"r": 2, "data": [[-1, 0], [0, NaN]]}', '{"r": 2, "data": [[-1, 0.5], [0, -1]]}']


def _rank(draw, r):
    """Mostly the command's rank r, sometimes another."""
    return r if draw(st.integers(0, 7)) else draw(st.integers(1, 4))


def _vector(draw, flag, r):
    size = _rank(draw, r)
    values = draw(st.lists(_VALUES, min_size=size, max_size=size))
    return f"{flag}={','.join(map(repr, values))}"


def _matrix(draw, sign, r):
    """A diagonal of ``sign`` times magnitudes, a rotated matrix of condition up to
    1e14 scaled by 10^+-300, or malformed JSON text."""
    kind = draw(st.sampled_from(["diagonal", "rotated", "malformed"]))
    r = _rank(draw, r)
    if kind == "malformed":
        return draw(st.sampled_from(_MALFORMED))
    if kind == "diagonal":
        return sign * np.diag(draw(st.lists(_VALUES, min_size=r, max_size=r)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    q = np.linalg.qr(rng.standard_normal((r, r)))[0]
    scale = 10.0 ** draw(st.floats(-300.0, 300.0))
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        m = sign * (q * (scale * np.geomspace(1.0, 10.0 ** draw(st.floats(0.0, 14.0)), r))) @ q.T
        return 0.5 * (m + m.T)  # symmetric bit for bit at any scale


def _json(m):
    return m if isinstance(m, str) else json.dumps({"r": len(m), "data": m.tolist()})


def _option(draw, name, values):
    return [f"{name}={draw(st.sampled_from(values))}"] if draw(st.integers(0, 3)) == 0 else []


@st.composite
def _argv(draw):
    """check, sample, verify or density, with vectors, tilts and points mostly of one rank.
    A zeta is a drawn tilt or 1 to 1.5 times theta (or -I), a probe that the guard can pass."""
    command = draw(st.sampled_from(["check", "sample", "verify", "density"]))
    r = draw(st.integers(1, 4))
    flag = "--s" if command == "density" else draw(st.sampled_from(["--s", "--u"]))
    argv = [command, _vector(draw, flag, r),
            *_option(draw, "--d", ["1", "0.5", "2", "0", "-1", "nan"]),
            *_option(draw, "--zero-tol", ["0", "1e-3", "0.3", "-1", "nan", "1e308"])]
    if command == "density":
        return argv + [f"--x={_json(_matrix(draw, +1.0, r))}"]
    if command == "check":
        return argv
    theta = _matrix(draw, -1.0, r) if draw(st.booleans()) else None
    if theta is not None:
        argv.append(f"--theta={_json(theta)}")
    if command == "sample":
        return argv + [*_option(draw, "--n", ["1", "3", "0"]),
                       *_option(draw, "--format", ["ndjson", "json", "csv"])]
    if draw(st.booleans()):
        zeta = _matrix(draw, -1.0, r)
    else:
        base = -np.eye(r) if theta is None or isinstance(theta, str) else theta
        with np.errstate(over="ignore"):
            zeta = draw(st.floats(1.0, 1.5)) * base
    return argv + [f"--zeta={_json(zeta)}", *_option(draw, "--n", ["2", "50", "600"])]


def _finite_float(text):
    value = float(text)
    assert math.isfinite(value), text
    return value


def _no_constant(name):
    raise AssertionError(f"{name} in a 0 exit's output")


def _parse_finite(argv, out):
    """Every document of a 0 exit's stdout, parsed, with finite numbers only."""
    if argv[0] != "sample" or "--format=json" in argv:
        documents = [out]
    elif "--format=csv" in argv:
        rows = list(csv.reader(io.StringIO(out)))
        assert len(rows) >= 2
        return [[_finite_float(cell) for cell in row] for row in rows[1:]]
    else:
        documents = out.splitlines()
    return [json.loads(doc, parse_float=_finite_float, parse_constant=_no_constant)
            for doc in documents]


@settings(deadline=None, max_examples=200)
@given(_argv())
def test_every_command_line_keeps_the_exit_code_contract(argv):
    # check, sample, verify and density over special and extreme vectors, tilts
    # and points, and malformed JSON: a documented exit code, no exception and no
    # warning, one stderr line on a failure other than usage, and a 0 exit's
    # stdout parses with finite numbers only
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        warnings.simplefilter("error")
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 1, 2, 3, 64), (argv, code)
    if code not in (0, 64):
        assert err.getvalue().count("\n") <= 1, (argv, err.getvalue())
    if code == 0:
        assert _parse_finite(argv, out.getvalue())
