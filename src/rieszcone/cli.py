"""Command-line front end: check, sample, verify, density, selftest.

Machine-readable output (JSON / NDJSON / CSV) goes to stdout or ``--out``;
human prose goes to stderr.  Exit codes are scripting-stable:

* 0  success
* 1  a check or verification failed, a draw had a non-finite entry, the
     output or the ``--help`` text could not be written (the reader of
     stdout went away, as ``| head -1`` does, or the disk is full), or the x
     of ``density`` is off the open cone or of a rank other than the
     parameter's length
* 2  parameter outside the admissible set, non-numeric or non-finite (in
     every command), or no density exists for it, or its log Gamma_Omega (or
     the log density) is past the largest float
* 3  bad tilt: theta/zeta unreadable (from ``--theta``, ``--zeta`` or a
     ``--spec`` file), of the wrong rank, not negative definite or too near
     singular for positive pivots, too small for the sampler's inverse of it
     to be finite, the variance guard rejected the requested reweighting
     (infinite weight variance, or too few effective draws), or the
     transform ratio or the log of a transform is past the largest float
* 64 malformed command line

The parser states which flags a command needs or refuses together, and each
subcommand names its ``cmd_*`` function as ``run``.  Commands raise; ``main``
alone turns a library error into its code, through the ordered table
``EXIT_CODES``, and prints it as the one stderr line
``rieszcone <command>: <error>`` (``rieszcone: <error>`` for help output).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import stat
import sys
import time

from .algebra import SymElement
from .gindikin import GindikinError, membership_report
from .sampling import (
    CHUNK,
    NonSamplableError,
    RieszSpec,
    SamplerError,
    TiltError,
    log_density_ac,
    sample_chunks,
    write_csv,
    write_json,
    write_ndjson,
)
from .verify import VerifyError, laplace_mc_chunks, run_selftest

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_NOT_ADMISSIBLE = 2
EXIT_BAD_TILT = 3
EXIT_USAGE = 64

# most specific class first: TiltError and NonSamplableError are SamplerErrors
EXIT_CODES = (
    (GindikinError, EXIT_NOT_ADMISSIBLE),
    (NonSamplableError, EXIT_NOT_ADMISSIBLE),
    (TiltError, EXIT_BAD_TILT),
    (VerifyError, EXIT_BAD_TILT),
    (SamplerError, EXIT_FAIL),
    (OSError, EXIT_FAIL),
)


# sample's defaults for the flags that a --spec file stands in for
_FLAG_DEFAULTS = {"n": 100, "seed": 0, "d": 1.0, "zero_tol": 0.0}


class _Parser(argparse.ArgumentParser):
    """argparse with the usage exit remapped from 2 to 64, and a help text
    that cannot be written raising its ``OSError``, which argparse swallows."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")

    def print_help(self, file=None):
        file = sys.stdout if file is None else file
        file.write(self.format_help())
        file.flush()


def _float_list(text: str):
    try:
        return [float(t) for t in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a comma-separated list of numbers, got {text!r}"
        )


def _int_type(what: str, ok):
    """argparse type: a decimal integer for which ``ok`` holds."""

    def parse(text: str) -> int:
        if not text.isdigit() or not ok(int(text)):
            raise argparse.ArgumentTypeError(f"expected {what}, got {text!r}")
        return int(text)

    return parse


_positive_int = _int_type("a positive integer", lambda v: v >= 1)
_at_least_two = _int_type("an integer of at least 2", lambda v: v >= 2)
_seed = _int_type("an integer in [0, 2**64)", lambda v: v < 1 << 64)


def _load_sym(arg: str, what: str) -> SymElement:
    """Symmetric matrix from inline JSON (leading '{') or a JSON file path.

    Any failure to read it is a ``TiltError`` naming ``what``.
    """
    text = arg.strip()
    try:
        if not text.startswith("{"):
            with open(arg, "r") as fh:
                text = fh.read()
        return SymElement.from_json_dict(json.loads(text))
    except (OSError, RecursionError, TypeError, ValueError) as err:
        raise TiltError(f"cannot load {what}: {err}") from err


@functools.lru_cache(maxsize=None)
def _build_parser() -> _Parser:
    """The command-line parser, built once per process and shared by every
    ``main`` call: parsing keeps its state in the ``Namespace`` it returns."""
    p = _Parser(
        prog="rieszcone",
        description="Riesz measures on the PSD cone: admissibility checks, "
                    "exact samplers, density evaluation, and verification oracles.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def add_param_flags(sp, with_u=True, with_spec=False):
        """A required --s, or exactly one of --s, --u (and --spec); --d and
        --zero-tol, which default to None beside --spec for _build_spec."""
        one_of = sp.add_mutually_exclusive_group(required=True) if with_u else sp
        one_of.add_argument("--s", type=_float_list, metavar="LIST", required=not with_u,
                            help="parameter vector, comma separated")
        if with_u:
            one_of.add_argument("--u", type=_float_list, metavar="LIST",
                                help="nonnegative u coordinates, comma separated")
        if with_spec:
            one_of.add_argument(
                "--spec", metavar="FILE",
                help='JSON request {"s": [...] or "u": [...], "theta": {...}, "n": int, '
                     '"seed": int}; mutually exclusive with --s, --u, --theta, --n, '
                     "--seed, --d and --zero-tol")
        defaults = dict.fromkeys(_FLAG_DEFAULTS) if with_spec else _FLAG_DEFAULTS
        sp.add_argument("--d", type=float, default=defaults["d"],
                        help="Peirce multiplicity (default 1)")
        sp.add_argument("--zero-tol", type=float, default=defaults["zero_tol"],
                        dest="zero_tol",
                        help="snap |u_i| below this to exact zero (default 0)")

    sp = sub.add_parser("check", help="membership verdict and block partition")
    add_param_flags(sp)
    sp.set_defaults(run=cmd_check)

    sp = sub.add_parser("sample", help="draw tilted samples (NDJSON/JSON/CSV)")
    add_param_flags(sp, with_spec=True)
    sp.add_argument("--theta", metavar="FILE_OR_JSON",
                    help="tilt matrix (default: minus the identity)")
    sp.add_argument("--n", type=_positive_int,
                    help=f"number of samples (default {_FLAG_DEFAULTS['n']})")
    sp.add_argument("--seed", type=_seed, help="stream seed (default 0)")
    sp.add_argument("--workers", type=_positive_int, default=1,
                    help="accepted for compatibility; draws run on one thread")
    sp.add_argument("--format", choices=("ndjson", "json", "csv"),
                    default="ndjson")
    sp.add_argument("--out", metavar="PATH", help="write here instead of stdout")
    sp.add_argument("--stats", action="store_true",
                    help="print one JSON line of run statistics to stderr")
    sp.set_defaults(run=cmd_sample)

    sp = sub.add_parser("verify",
                        help="Monte Carlo transform check against the closed form")
    add_param_flags(sp)
    sp.add_argument("--theta", metavar="FILE_OR_JSON",
                    help="tilt matrix (default: minus the identity)")
    sp.add_argument("--zeta", metavar="FILE_OR_JSON", required=True,
                    help="probe point for the transform ratio")
    sp.add_argument("--n", type=_at_least_two, default=100000,
                    help="number of samples, at least 2 (the z-score needs a spread)")
    sp.add_argument("--seed", type=_seed, default=0)
    sp.add_argument("--workers", type=_positive_int, default=1,
                    help="accepted for compatibility; draws run on one thread")
    sp.set_defaults(run=cmd_verify, spec=None)

    sp = sub.add_parser("density", help="log density at a cone point (AC case only)")
    add_param_flags(sp, with_u=False)
    sp.add_argument("--x", metavar="FILE_OR_JSON", required=True,
                    help="evaluation point")
    sp.set_defaults(run=cmd_density)

    sp = sub.add_parser("selftest", help="run the verification suite")
    sp.add_argument("--r", type=_at_least_two, help="restrict the identity sweep to one rank")
    sp.add_argument("--trials", type=_positive_int, default=500,
                    help="trials per identity; each law takes "
                         "min(200000, max(2000, 400 * trials)) draws")
    sp.add_argument("--seed", type=_seed, default=0)
    sp.set_defaults(run=cmd_selftest)

    return p


# -- commands ----------------------------------------------------------------


def cmd_check(args: argparse.Namespace, parser: _Parser) -> int:
    report = membership_report(s=args.s, u=args.u, d=args.d, zero_tol=args.zero_tol)
    print(json.dumps(report, indent=2))
    return EXIT_OK if report["in_xi"] else EXIT_NOT_ADMISSIBLE


def _spec_from_file(path: str, parser: _Parser) -> RieszSpec:
    """RieszSpec from a ``--spec`` file; a malformed file is a usage error."""
    try:
        with open(path, "r") as fh:
            obj = json.load(fh)
    except (OSError, RecursionError, ValueError) as err:
        parser.error(f"cannot read spec file: {err}")
    try:
        return RieszSpec.from_json_dict(obj)
    except (TiltError, NonSamplableError, GindikinError):
        raise
    except (TypeError, ValueError) as err:
        parser.error(f"bad spec file: {err}")


def _build_spec(args: argparse.Namespace, parser: _Parser) -> RieszSpec:
    """RieszSpec from ``--spec`` alone, or from flags over ``_FLAG_DEFAULTS``.
    The parser refuses --s or --u beside --spec; the other flags are refused here."""
    if args.spec is not None:
        given = [f"--{name.replace('_', '-')}"
                 for name in ("theta", *_FLAG_DEFAULTS)
                 if getattr(args, name) is not None]
        if given:
            parser.error(f"--spec is mutually exclusive with {', '.join(given)}")
        return _spec_from_file(args.spec, parser)
    for name, default in _FLAG_DEFAULTS.items():
        if getattr(args, name) is None:
            setattr(args, name, default)
    theta = None if args.theta is None else _load_sym(args.theta, "theta")
    return RieszSpec.build(s=args.s, u=args.u, theta=theta, seed=args.seed,
                           count=args.n, d=args.d, zero_tol=args.zero_tol)


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
    write = {"ndjson": write_ndjson, "json": write_json, "csv": write_csv}[args.format]
    draw_s = 0.0

    def timed_chunks():
        nonlocal draw_s
        chunks = sample_chunks(spec, workers=args.workers)
        while True:
            t0 = time.perf_counter()
            chunk = next(chunks, None)
            draw_s += time.perf_counter() - t0
            if chunk is None:
                return
            yield chunk

    t0 = time.perf_counter()
    if args.out is None:
        write(spec, timed_chunks(), sys.stdout)
    else:
        _write_out(args.out, lambda fh: write(spec, timed_chunks(), fh), parser)
        print(f"wrote {spec.count} samples to {args.out}", file=sys.stderr)
    total_s = time.perf_counter() - t0
    if args.stats:
        print(json.dumps({
            "spec_digest": spec.digest(),
            "n": spec.count,
            "chunk": CHUNK,
            "chunks": -(-spec.count // CHUNK),
            "workers": args.workers,
            "draw_s": draw_s,
            "write_s": total_s - draw_s,
            "draws_per_s": spec.count / total_s,
        }), file=sys.stderr)
    return EXIT_OK


def cmd_verify(args: argparse.Namespace, parser: _Parser) -> int:
    spec = _build_spec(args, parser)
    zeta = _load_sym(args.zeta, "zeta")
    report = laplace_mc_chunks(spec, sample_chunks(spec, workers=args.workers), zeta)
    print(json.dumps(report.to_json_dict(), indent=2))
    return EXIT_OK if report.passed else EXIT_FAIL


def cmd_density(args: argparse.Namespace, parser: _Parser) -> int:
    # a bad --x is reported before a bad --s, which log_density_ac refuses
    if args.d != 1.0:
        raise NonSamplableError("only multiplicity d = 1 is supported")
    try:
        x = _load_sym(args.x, "x")
    except TiltError as err:
        parser.error(str(err))
    log_density = log_density_ac(args.s, x, zero_tol=args.zero_tol)
    print(json.dumps({"s": args.s, "log_density": log_density}, indent=2))
    return EXIT_OK


def cmd_selftest(args: argparse.Namespace, parser: _Parser) -> int:
    ranks = {} if args.r is None else {"r_values": (args.r,)}
    summary = run_selftest(trials=args.trials, seed=args.seed, **ranks)
    # flushed before the verdict, so that a failed write is the one stderr line
    print(json.dumps(summary, indent=2), flush=True)
    verdict = "PASS" if summary["pass"] else "FAIL"
    print(f"self-test {verdict} in {summary['elapsed_s']}s", file=sys.stderr)
    return EXIT_OK if summary["pass"] else EXIT_FAIL


def main(argv=None) -> int:
    parser = _build_parser()
    args = None
    try:
        args = parser.parse_args(argv)  # --help writes here
        code = args.run(args, parser)
        # output that cannot be written raises here, not in the flush at exit
        sys.stdout.flush()
        return code
    except tuple(cls for cls, _ in EXIT_CODES) as err:
        where = "rieszcone" if args is None else f"rieszcone {args.command}"
        print(f"{where}: {err}", file=sys.stderr)
        if isinstance(err, OSError):
            # a failed write (a reader gone, a full disk): what is still
            # buffered goes nowhere, so that the flush at exit does not raise again
            sys.stdout = open(os.devnull, "w")
        return next(code for cls, code in EXIT_CODES if isinstance(err, cls))


def entrypoint():  # console-script hook
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
