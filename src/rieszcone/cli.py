"""Command-line front end: check, sample, verify, density, selftest.

Machine-readable output (JSON / NDJSON / CSV) goes to stdout or ``--out``;
human prose goes to stderr.  Exit codes are scripting-stable:

* 0  success
* 1  a check or verification failed, or a draw had a non-finite entry
* 2  parameter outside the admissible set (or no density exists for it)
* 3  bad tilt: theta/zeta unreadable, not negative definite, or the
     variance guard rejected the requested reweighting
* 64 malformed command line
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass

from .algebra import SymElement
from .gindikin import GindikinError, NotInGindikinSetError, membership_report, u_from_s
from .sampling import (
    CHUNK,
    NonSamplableError,
    RieszSpec,
    SamplerError,
    TiltError,
    log_density_ac,
    sample_chunks,
    sample_riesz,
    write_csv,
    write_json,
    write_ndjson,
)
from .verify import VerifyError, laplace_mc, run_selftest

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_NOT_ADMISSIBLE = 2
EXIT_BAD_TILT = 3
EXIT_USAGE = 64


class _Parser(argparse.ArgumentParser):
    """argparse with the usage exit remapped from 2 to 64."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _float_list(text: str):
    try:
        values = [float(t) for t in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a comma-separated list of numbers, got {text!r}"
        )
    if not values:
        raise argparse.ArgumentTypeError("empty list")
    return values


def _positive_int(text: str) -> int:
    if not text.isdigit() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return int(text)


def _load_sym(arg: str) -> SymElement:
    """Symmetric matrix from inline JSON (leading '{') or a JSON file path."""
    text = arg.strip()
    if not text.startswith("{"):
        with open(arg, "r") as fh:
            text = fh.read()
    return SymElement.from_json_dict(json.loads(text))


@dataclass
class CliConfig:
    command: str
    s: list | None = None
    u: list | None = None
    d: float = 1.0
    theta: str | None = None
    zeta: str | None = None
    x: str | None = None
    spec: str | None = None
    n: int = 100
    seed: int = 0
    zero_tol: float = 0.0
    workers: int = 1
    out: str | None = None
    format: str = "ndjson"
    stats: bool = False
    trials: int = 500
    r: int | None = None


def _build_parser() -> _Parser:
    p = _Parser(
        prog="rieszcone",
        description="Riesz measures on the PSD cone: admissibility checks, "
                    "exact samplers, density evaluation, and verification oracles.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def add_param_flags(sp, with_u=True):
        sp.add_argument("--s", type=_float_list, metavar="LIST",
                        help="parameter vector, comma separated")
        if with_u:
            sp.add_argument("--u", type=_float_list, metavar="LIST",
                            help="nonnegative u coordinates, comma separated")
        sp.add_argument("--d", type=float, default=1.0,
                        help="Peirce multiplicity (default 1)")
        sp.add_argument("--zero-tol", type=float, default=0.0, dest="zero_tol",
                        help="snap |u_i| below this to exact zero (default 0)")

    sp = sub.add_parser("check", help="membership verdict and block partition")
    add_param_flags(sp)

    sp = sub.add_parser("sample", help="draw tilted samples (NDJSON/JSON/CSV)")
    add_param_flags(sp)
    sp.add_argument("--spec", metavar="FILE",
                    help='JSON request {"s": [...], "theta": {...}, "n": int, '
                         '"seed": int}; mutually exclusive with --s/--u')
    sp.add_argument("--theta", metavar="FILE_OR_JSON",
                    help="tilt matrix (default: minus the identity)")
    sp.add_argument("--n", type=int, default=100, help="number of samples")
    sp.add_argument("--seed", type=int, default=0, help="stream seed")
    sp.add_argument("--workers", type=_positive_int, default=1,
                    help="draw-collection threads (output is identical for any value)")
    sp.add_argument("--format", choices=("ndjson", "json", "csv"),
                    default="ndjson")
    sp.add_argument("--out", metavar="PATH", help="write here instead of stdout")
    sp.add_argument("--stats", action="store_true",
                    help="print one JSON line of run statistics to stderr")

    sp = sub.add_parser("verify",
                        help="Monte Carlo transform check against the closed form")
    add_param_flags(sp)
    sp.add_argument("--theta", metavar="FILE_OR_JSON",
                    help="tilt matrix (default: minus the identity)")
    sp.add_argument("--zeta", metavar="FILE_OR_JSON", required=True,
                    help="probe point for the transform ratio")
    sp.add_argument("--n", type=int, default=100000, help="number of samples")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--workers", type=_positive_int, default=1)

    sp = sub.add_parser("density", help="log density at a cone point (AC case only)")
    add_param_flags(sp, with_u=False)
    sp.add_argument("--x", metavar="FILE_OR_JSON", required=True,
                    help="evaluation point")

    sp = sub.add_parser("selftest", help="run the verification suite")
    sp.add_argument("--r", type=int, help="restrict the identity sweep to one rank")
    sp.add_argument("--trials", type=int, default=500,
                    help="trials per identity; below 500 switches to smoke scale")
    sp.add_argument("--seed", type=int, default=0)

    return p


def _emit(obj: dict, indent: int | None = 2):
    print(json.dumps(obj, indent=indent))


def _require_s_xor_u(cfg: CliConfig, parser: _Parser):
    if (cfg.s is None) == (cfg.u is None):
        parser.error("give exactly one of --s or --u")


# -- commands ----------------------------------------------------------------


def cmd_check(cfg: CliConfig) -> int:
    try:
        report = membership_report(s=cfg.s, u=cfg.u, d=cfg.d, zero_tol=cfg.zero_tol)
    except GindikinError as err:
        print(f"rieszcone check: {err}", file=sys.stderr)
        return EXIT_NOT_ADMISSIBLE
    _emit(report)
    return EXIT_OK if report["in_xi"] else EXIT_NOT_ADMISSIBLE


def _build_spec(cfg: CliConfig, parser: _Parser) -> RieszSpec | int:
    """RieszSpec from flags, or an exit code on rejection."""
    if cfg.spec is not None:
        if cfg.s is not None or cfg.u is not None:
            parser.error("--spec is mutually exclusive with --s/--u")
        try:
            with open(cfg.spec, "r") as fh:
                obj = json.load(fh)
        except (OSError, json.JSONDecodeError) as err:
            parser.error(f"cannot read spec file: {err}")
        try:
            return RieszSpec.from_json_dict(obj)
        except NotInGindikinSetError as err:
            print(f"rieszcone: {err}", file=sys.stderr)
            return EXIT_NOT_ADMISSIBLE
        except TiltError as err:
            print(f"rieszcone: {err}", file=sys.stderr)
            return EXIT_BAD_TILT
        except (NonSamplableError, GindikinError) as err:
            print(f"rieszcone: {err}", file=sys.stderr)
            return EXIT_NOT_ADMISSIBLE
        except (SamplerError, ValueError) as err:
            parser.error(f"bad spec file: {err}")
    theta = None
    if cfg.theta is not None:
        try:
            theta = _load_sym(cfg.theta)
        except Exception as err:
            print(f"rieszcone: cannot load theta: {err}", file=sys.stderr)
            return EXIT_BAD_TILT
    try:
        return RieszSpec.build(s=cfg.s, u=cfg.u, theta=theta, seed=cfg.seed,
                               count=cfg.n, d=cfg.d, zero_tol=cfg.zero_tol)
    except NotInGindikinSetError as err:
        print(f"rieszcone: {err}", file=sys.stderr)
        return EXIT_NOT_ADMISSIBLE
    except TiltError as err:
        print(f"rieszcone: {err}", file=sys.stderr)
        return EXIT_BAD_TILT
    except (NonSamplableError, GindikinError) as err:
        print(f"rieszcone: {err}", file=sys.stderr)
        return EXIT_NOT_ADMISSIBLE
    except SamplerError as err:
        parser.error(str(err))


def cmd_sample(cfg: CliConfig, parser: _Parser) -> int:
    spec = _build_spec(cfg, parser)
    if isinstance(spec, int):
        return spec
    write = {"ndjson": write_ndjson, "json": write_json, "csv": write_csv}[cfg.format]
    draw_s, n_chunks = 0.0, 0

    def timed_chunks():
        nonlocal draw_s, n_chunks
        chunks = sample_chunks(spec, workers=cfg.workers)
        while True:
            t0 = time.perf_counter()
            chunk = next(chunks, None)
            draw_s += time.perf_counter() - t0
            if chunk is None:
                return
            n_chunks += 1
            yield chunk

    t0 = time.perf_counter()
    try:
        if cfg.out is None:
            write(spec, timed_chunks(), sys.stdout)
        else:
            with open(cfg.out, "w") as fh:
                write(spec, timed_chunks(), fh)
    except SamplerError as err:
        print(f"rieszcone sample: {err}", file=sys.stderr)
        return EXIT_FAIL
    total_s = time.perf_counter() - t0
    if cfg.out is not None:
        print(f"wrote {spec.count} samples to {cfg.out}", file=sys.stderr)
    if cfg.stats:
        print(json.dumps({
            "spec_digest": spec.digest(),
            "n": spec.count,
            "chunk": CHUNK,
            "chunks": n_chunks,
            "workers": cfg.workers,
            "draw_s": draw_s,
            "write_s": total_s - draw_s,
            "draws_per_s": spec.count / total_s,
        }), file=sys.stderr)
    return EXIT_OK


def cmd_verify(cfg: CliConfig, parser: _Parser) -> int:
    spec = _build_spec(cfg, parser)
    if isinstance(spec, int):
        return spec
    try:
        zeta = _load_sym(cfg.zeta)
    except Exception as err:
        print(f"rieszcone: cannot load zeta: {err}", file=sys.stderr)
        return EXIT_BAD_TILT
    batch = sample_riesz(spec, workers=cfg.workers)
    try:
        report = laplace_mc(batch, zeta)
    except (VerifyError, TiltError) as err:
        print(f"rieszcone verify: {err}", file=sys.stderr)
        return EXIT_BAD_TILT
    except NotInGindikinSetError as err:
        print(f"rieszcone verify: {err}", file=sys.stderr)
        return EXIT_NOT_ADMISSIBLE
    _emit(report.to_json_dict())
    return EXIT_OK if report.passed else EXIT_FAIL


def cmd_density(cfg: CliConfig, parser: _Parser) -> int:
    try:
        param = u_from_s(cfg.s, d=cfg.d, zero_tol=cfg.zero_tol)
    except NotInGindikinSetError as err:
        print(f"rieszcone density: {err}", file=sys.stderr)
        return EXIT_NOT_ADMISSIBLE
    except GindikinError as err:
        parser.error(str(err))
    if cfg.d != 1.0:
        print("rieszcone density: only multiplicity d = 1 is supported",
              file=sys.stderr)
        return EXIT_NOT_ADMISSIBLE
    if param.rank_support != param.r:
        print(
            "rieszcone density: parameter is singular (some u_p = 0); the "
            "measure lives on the cone boundary and has no density",
            file=sys.stderr,
        )
        return EXIT_NOT_ADMISSIBLE
    try:
        x = _load_sym(cfg.x)
    except Exception as err:
        parser.error(f"cannot load x: {err}")
    try:
        value = log_density_ac(param.s, x)
    except SamplerError as err:
        print(f"rieszcone density: {err}", file=sys.stderr)
        return EXIT_FAIL
    _emit({"s": list(param.s), "log_density": value})
    return EXIT_OK


def cmd_selftest(cfg: CliConfig) -> int:
    smoke = cfg.trials < 500
    r_values = (cfg.r,) if cfg.r is not None else (2, 3, 4, 5, 6)
    summary = run_selftest(
        r_values=r_values,
        trials=cfg.trials,
        mc_samples=max(2000, 400 * cfg.trials) if smoke else 200000,
        quad_full=not smoke,
        seed=cfg.seed,
    )
    _emit(summary)
    verdict = "PASS" if summary["pass"] else "FAIL"
    print(f"self-test {verdict} in {summary['elapsed_s']}s", file=sys.stderr)
    return EXIT_OK if summary["pass"] else EXIT_FAIL


def main(argv=None) -> int:
    parser = _build_parser()
    ns = parser.parse_args(argv)
    cfg = CliConfig(**{k: v for k, v in vars(ns).items()})
    if cfg.command == "check":
        _require_s_xor_u(cfg, parser)
        return cmd_check(cfg)
    if cfg.command == "sample":
        if cfg.spec is None:
            _require_s_xor_u(cfg, parser)
        return cmd_sample(cfg, parser)
    if cfg.command == "verify":
        _require_s_xor_u(cfg, parser)
        return cmd_verify(cfg, parser)
    if cfg.command == "density":
        if cfg.s is None:
            parser.error("--s is required")
        return cmd_density(cfg, parser)
    return cmd_selftest(cfg)


def entrypoint():  # console-script hook
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
