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
import errno
import json
import os
import stat
import sys
import time

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


def _int_type(what: str, ok):
    """argparse type: a decimal integer for which ``ok`` holds."""

    def parse(text: str) -> int:
        if not text.isdigit() or not ok(int(text)):
            raise argparse.ArgumentTypeError(f"expected {what}, got {text!r}")
        return int(text)

    return parse


_positive_int = _int_type("a positive integer", lambda v: v >= 1)
_rank = _int_type("an integer of at least 2", lambda v: v >= 2)
_seed = _int_type("an integer in [0, 2**64)", lambda v: v < 1 << 64)


def _load_sym(arg: str) -> SymElement:
    """Symmetric matrix from inline JSON (leading '{') or a JSON file path."""
    text = arg.strip()
    if not text.startswith("{"):
        with open(arg, "r") as fh:
            text = fh.read()
    return SymElement.from_json_dict(json.loads(text))


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
    sp.set_defaults(spec=None)

    sp = sub.add_parser("density", help="log density at a cone point (AC case only)")
    add_param_flags(sp, with_u=False)
    sp.add_argument("--x", metavar="FILE_OR_JSON", required=True,
                    help="evaluation point")

    sp = sub.add_parser("selftest", help="run the verification suite")
    sp.add_argument("--r", type=_rank, help="restrict the identity sweep to one rank")
    sp.add_argument("--trials", type=_positive_int, default=500,
                    help="trials per identity; below 500 switches to smoke scale")
    sp.add_argument("--seed", type=_seed, default=0)

    return p


def _emit(obj: dict, indent: int | None = 2):
    print(json.dumps(obj, indent=indent))


def _require_s_xor_u(args: argparse.Namespace, parser: _Parser):
    if (args.s is None) == (args.u is None):
        parser.error("give exactly one of --s or --u")


# -- commands ----------------------------------------------------------------


def cmd_check(args: argparse.Namespace) -> int:
    try:
        report = membership_report(s=args.s, u=args.u, d=args.d, zero_tol=args.zero_tol)
    except GindikinError as err:
        print(f"rieszcone check: {err}", file=sys.stderr)
        return EXIT_NOT_ADMISSIBLE
    _emit(report)
    return EXIT_OK if report["in_xi"] else EXIT_NOT_ADMISSIBLE


def _spec_from_file(path: str, parser: _Parser) -> RieszSpec:
    """RieszSpec from a ``--spec`` file; a malformed file is a usage error."""
    try:
        with open(path, "r") as fh:
            obj = json.load(fh)
    except (OSError, json.JSONDecodeError) as err:
        parser.error(f"cannot read spec file: {err}")
    try:
        return RieszSpec.from_json_dict(obj)
    except (TiltError, NonSamplableError, GindikinError):
        raise
    except ValueError as err:
        parser.error(f"bad spec file: {err}")


def _build_spec(args: argparse.Namespace, parser: _Parser) -> RieszSpec | int:
    """RieszSpec from ``--spec`` or from flags, or an exit code on rejection."""
    if args.spec is not None and (args.s is not None or args.u is not None):
        parser.error("--spec is mutually exclusive with --s/--u")
    theta = None
    if args.spec is None and args.theta is not None:
        try:
            theta = _load_sym(args.theta)
        except Exception as err:
            print(f"rieszcone: cannot load theta: {err}", file=sys.stderr)
            return EXIT_BAD_TILT
    try:
        if args.spec is not None:
            return _spec_from_file(args.spec, parser)
        return RieszSpec.build(s=args.s, u=args.u, theta=theta, seed=args.seed,
                               count=args.n, d=args.d, zero_tol=args.zero_tol)
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


def _write_out(path: str, write, parser: _Parser) -> None:
    """Call ``write(fh)`` on the file ``path`` names, all or nothing.

    A new file, or an existing regular file that this process owns and that
    has no other hard link, is written under a temporary name beside it and
    renamed into place on success, keeping the old file's mode; on any
    failure the temporary file is removed and ``path`` is left as it was.
    A symlink is followed, so the link stays and its target is replaced.
    Any other existing target (a device such as /dev/null, a FIFO, a file
    owned by someone else or not writable) is opened and written in place,
    as a plain ``open`` would.  A directory is refused before anything is
    drawn.
    """
    target = os.path.realpath(path)
    try:
        st = os.stat(target)
    except FileNotFoundError:
        st = None
    except OSError as err:
        parser.error(f"cannot open --out {path}: {err.strerror}")
    if st is not None and stat.S_ISDIR(st.st_mode):
        parser.error(f"cannot open --out {path}: {os.strerror(errno.EISDIR)}")
    replace = st is None or (
        stat.S_ISREG(st.st_mode) and st.st_nlink == 1
        and (st.st_uid, st.st_gid) == (os.geteuid(), os.getegid())
        and os.access(target, os.W_OK))
    tmp = f"{target}.tmp-{os.getpid()}" if replace else path
    try:
        fh = open(tmp, "w")
    except OSError as err:
        parser.error(f"cannot open --out {path}: {err.strerror}")
    if not replace:
        with fh:
            write(fh)
        return
    try:
        with fh:
            if st is not None:
                os.chmod(tmp, stat.S_IMODE(st.st_mode))
            write(fh)
    except BaseException:
        os.remove(tmp)
        raise
    try:
        os.replace(tmp, target)
    except OSError as err:
        os.remove(tmp)
        parser.error(f"cannot open --out {path}: {err.strerror}")


def cmd_sample(args: argparse.Namespace, parser: _Parser) -> int:
    spec = _build_spec(args, parser)
    if isinstance(spec, int):
        return spec
    write = {"ndjson": write_ndjson, "json": write_json, "csv": write_csv}[args.format]
    draw_s, n_chunks = 0.0, 0

    def timed_chunks():
        nonlocal draw_s, n_chunks
        chunks = sample_chunks(spec, workers=args.workers)
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
        if args.out is None:
            write(spec, timed_chunks(), sys.stdout)
        else:
            _write_out(args.out, lambda fh: write(spec, timed_chunks(), fh), parser)
    except SamplerError as err:
        print(f"rieszcone sample: {err}", file=sys.stderr)
        return EXIT_FAIL
    total_s = time.perf_counter() - t0
    if args.out is not None:
        print(f"wrote {spec.count} samples to {args.out}", file=sys.stderr)
    if args.stats:
        print(json.dumps({
            "spec_digest": spec.digest(),
            "n": spec.count,
            "chunk": CHUNK,
            "chunks": n_chunks,
            "workers": args.workers,
            "draw_s": draw_s,
            "write_s": total_s - draw_s,
            "draws_per_s": spec.count / total_s,
        }), file=sys.stderr)
    return EXIT_OK


def cmd_verify(args: argparse.Namespace, parser: _Parser) -> int:
    spec = _build_spec(args, parser)
    if isinstance(spec, int):
        return spec
    try:
        zeta = _load_sym(args.zeta)
    except Exception as err:
        print(f"rieszcone: cannot load zeta: {err}", file=sys.stderr)
        return EXIT_BAD_TILT
    batch = sample_riesz(spec, workers=args.workers)
    try:
        report = laplace_mc(batch, zeta)
    except (VerifyError, TiltError) as err:
        print(f"rieszcone verify: {err}", file=sys.stderr)
        return EXIT_BAD_TILT
    except NotInGindikinSetError as err:
        # --zero-tol snaps a slightly negative u_i to 0 when the spec is
        # built, but the closed form re-derives u from s with no tolerance
        print(f"rieszcone verify: {err}", file=sys.stderr)
        return EXIT_NOT_ADMISSIBLE
    _emit(report.to_json_dict())
    return EXIT_OK if report.passed else EXIT_FAIL


def cmd_density(args: argparse.Namespace, parser: _Parser) -> int:
    try:
        param = u_from_s(args.s, d=args.d, zero_tol=args.zero_tol)
    except NotInGindikinSetError as err:
        print(f"rieszcone density: {err}", file=sys.stderr)
        return EXIT_NOT_ADMISSIBLE
    except GindikinError as err:
        parser.error(str(err))
    if args.d != 1.0:
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
        x = _load_sym(args.x)
    except Exception as err:
        parser.error(f"cannot load x: {err}")
    try:
        value = log_density_ac(param.s, x)
    except SamplerError as err:
        print(f"rieszcone density: {err}", file=sys.stderr)
        return EXIT_FAIL
    _emit({"s": list(param.s), "log_density": value})
    return EXIT_OK


def cmd_selftest(args: argparse.Namespace) -> int:
    smoke = args.trials < 500
    r_values = (args.r,) if args.r is not None else (2, 3, 4, 5, 6)
    summary = run_selftest(
        r_values=r_values,
        trials=args.trials,
        mc_samples=max(2000, 400 * args.trials) if smoke else 200000,
        quad_full=not smoke,
        seed=args.seed,
    )
    _emit(summary)
    verdict = "PASS" if summary["pass"] else "FAIL"
    print(f"self-test {verdict} in {summary['elapsed_s']}s", file=sys.stderr)
    return EXIT_OK if summary["pass"] else EXIT_FAIL


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command == "check":
        _require_s_xor_u(args, parser)
        return cmd_check(args)
    if args.command == "sample":
        if args.spec is None:
            _require_s_xor_u(args, parser)
        return cmd_sample(args, parser)
    if args.command == "verify":
        _require_s_xor_u(args, parser)
        return cmd_verify(args, parser)
    if args.command == "density":
        if args.s is None:
            parser.error("--s is required")
        return cmd_density(args, parser)
    return cmd_selftest(args)


def entrypoint():  # console-script hook
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
