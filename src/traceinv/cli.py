"""Command line front end.

Subcommands: eval, slocc-eval, compare, enumerate, bounds, factorize,
random, render.  Labels and cycle notation on the command line are
1-based.  Exit codes: 0 success (or indistinguishable), 1 separated,
2 bad usage or malformed input, 3 input exceeds a size envelope, the
available memory or the float range, 4 internal error.  The environment variable
TRACEINV_TOL overrides the default comparison tolerance.
"""

from __future__ import annotations

import argparse
import os
import sys
from math import log10

import numpy as np

from .core import DEFAULT_TOL, Dims, OperatorTuple, check_tol, random_density
from .diagram import render_svg
from .equivalence import decide_lu_equiv, lu_degree_bound, slocc_degree_bound
from .errors import UnsupportedSizeError, check_count
from .evaluate import eval_contract, eval_reference
from .perms import enumerate_monomials, factorize, parse_int, parse_monomial
from .slocc import eval_slocc
from .statefile import load_state, save_operator_tuple, save_pure_state


def _default_tol():
    return check_tol(os.environ.get("TRACEINV_TOL", DEFAULT_TOL), "TRACEINV_TOL")


def format_value(z) -> str:
    z = complex(z)
    s = f"{z.real:.15f}"
    if abs(z.imag) > 1e-12:
        s += f"{z.imag:+.15f}i"
    return s


def _ints(text, option):
    """The comma-separated integers of an option's text, e.g. "2,2"."""
    try:
        return tuple(parse_int(x) for x in text.split(","))
    except ValueError:
        raise ValueError(f"{option} must be comma-separated integers, got {text!r}") from None


def _fmt_positions(positions):
    return ",".join(str(j + 1) for j in positions)


def _cmd_eval(args):
    ops = load_state(args.state, "operator_tuple")
    mon = parse_monomial(args.labels, args.perm)
    engine = eval_reference if args.engine == "ref" else eval_contract
    print(format_value(engine(mon, ops)))
    return 0


def _cmd_slocc_eval(args):
    states = [load_state(path, "pure_state") for path in args.state]
    mon = parse_monomial(args.labels, args.perm)
    print(format_value(eval_slocc(mon, states)))
    return 0


def _cmd_compare(args):
    tol = _default_tol() if args.tol is None else check_tol(args.tol, "--tol")
    a, b = (load_state(path, "operator_tuple") for path in (args.a, args.b))
    verdict = decide_lu_equiv(a, b, max_degree=args.max_degree, tol=tol)
    if verdict.separated:
        va, vb = verdict.values
        print(
            f"SEPARATED degree={verdict.witness.degree} "
            f'monomial="{verdict.witness}" '
            f"a={format_value(va)} b={format_value(vb)}"
        )
        return 1
    print(f"INDISTINGUISHABLE_UP_TO {verdict.max_degree}")
    return 0


def _cmd_enumerate(args):
    cap = _ints(args.girth_cap, "--girth-cap") if args.girth_cap is not None else None
    mons = enumerate_monomials(
        args.n,
        args.m,
        args.max_degree,
        girth_cap=cap,
        connected_only=args.connected,
        canonical=not args.raw,
    )
    for mon in mons:
        print(mon)
    return 0


def _cmd_bounds(args):
    option, value, mode = ("-n", args.n, "--slocc") if args.lu else ("--dims", args.dims, "--lu")
    if value is not None:
        raise ValueError(f"{option} applies to {mode} only")
    if args.lu:
        if not args.dims:
            raise ValueError("--lu needs --dims")
        dims, m = Dims(_ints(args.dims, "--dims")), check_count(args.m, "m")
        sizes, delta = dims.sizes, sum(d - 1 for d in dims.sizes)
        # log10 of the bound, 3/8 max(d) m^2 D^4 (2n)^(2 delta)
        log_bound = (log10(3 / 8 * max(sizes)) + 2 * log10(m) + 4 * sum(map(log10, sizes))
                     + 2 * delta * log10(2 * dims.n))
    else:
        if args.n is None:
            raise ValueError("--slocc needs -n")
        n, m = check_count(args.n, "n"), check_count(args.m, "m")
        # log10 of the bound, 3/2 m^2 4^n n^(6n)
        log_bound = log10(1.5) + 2 * log10(m) + n * log10(4 * n**6)
    # a bound that is sure to pass the digit limit (0: none) is not built
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if 0 < limit < log_bound - 1:
        _bound_too_long()
    bound = lu_degree_bound(dims, m=m) if args.lu else slocc_degree_bound(n, m=m)
    try:
        text = str(bound)
    except ValueError:  # past the interpreter's int-to-string digit limit
        _bound_too_long()
    print(text)
    return 0


def _bound_too_long():
    limit = sys.get_int_max_str_digits()
    raise UnsupportedSizeError(
        f"the digit count of the bound exceeds the supported limit {limit}"
    ) from None


def _cmd_factorize(args):
    mon = parse_monomial(args.labels, args.perm)
    result = factorize(mon)
    if not result.reducible:
        print("IRREDUCIBLE")
        return 0
    print("FACTORS")
    print(f"  left: {result.left}")
    print(f"  right: {result.right}")
    print(f"  positions: {_fmt_positions(result.left_positions)} | "
          f"{_fmt_positions(result.right_positions)}")
    print(f"  relocated: {'yes' if result.relocated else 'no'}")
    return 0


def _cmd_random(args):
    dims = Dims(_ints(args.dims, "--dims"))
    rng = np.random.default_rng(args.seed)
    if args.kind == "density":
        count = check_count(1 if args.count is None else args.count, "--count")
        mats = tuple(random_density(dims, rank=args.rank, seed=rng) for _ in range(count))
        save_operator_tuple(args.out, OperatorTuple(dims, mats))
    else:
        for option, value in (("--count", args.count), ("--rank", args.rank)):
            if value is not None:
                raise ValueError(f"{option} applies to --kind density only")
        if any(d != 2 for d in dims.sizes):
            raise ValueError("pure states need --dims with all entries 2")
        v = rng.standard_normal(dims.total) + 1j * rng.standard_normal(dims.total)
        save_pure_state(args.out, v / np.linalg.norm(v))
    print(args.out)
    return 0


def _cmd_render(args):
    mon = parse_monomial(args.labels, args.perm)
    render_svg(mon, path=args.out)
    print(args.out)
    return 0


def _monomial_args(p):
    p.add_argument("--labels", required=True, help='e.g. "1,1,2"')
    p.add_argument("--perm", required=True, help='cycle notation per row, e.g. "(2 3);(1 2)"')


def build_parser():
    parser = argparse.ArgumentParser(
        prog="traceinv",
        description="Trace-monomial invariants of multipartite operator tuples.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="evaluate one trace monomial on a state file")
    p.add_argument("--state", required=True)
    _monomial_args(p)
    p.add_argument("--engine", choices=["contract", "ref"], default="contract")

    p = sub.add_parser("slocc-eval", help="evaluate a SLOCC invariant of pure states")
    p.add_argument("--state", action="append", required=True,
                   help="pure_state file; repeat for multi-state invariants")
    _monomial_args(p)

    p = sub.add_parser("compare", help="compare invariants of two operator tuples")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--max-degree", type=parse_int, default=4)
    p.add_argument("--tol")  # read by check_tol alone

    p = sub.add_parser("enumerate", help="list canonical trace monomials")
    p.add_argument("-n", type=parse_int, required=True, help="number of subsystem rows")
    p.add_argument("-m", type=parse_int, required=True, help="number of operator labels")
    p.add_argument("--max-degree", type=parse_int, required=True)
    p.add_argument("--girth-cap", default=None, help='per-row cap, e.g. "3,3"')
    p.add_argument("--connected", action="store_true")
    p.add_argument("--raw", action="store_true", help="no dedup by box relabeling")

    p = sub.add_parser("bounds", help="generating-degree bounds")
    grp = p.add_mutually_exclusive_group(required=True)
    grp.add_argument("--lu", action="store_true")
    grp.add_argument("--slocc", action="store_true")
    p.add_argument("--dims", default=None, help='subsystem dims for --lu, e.g. "2,2"')
    p.add_argument("-n", type=parse_int, default=None, help="qubit count for --slocc")
    p.add_argument("-m", type=parse_int, default=1)

    p = sub.add_parser("factorize", help="split a monomial into smaller factors")
    _monomial_args(p)

    p = sub.add_parser("random", help="write a random state file")
    p.add_argument("--dims", required=True)
    p.add_argument("--rank", type=parse_int, default=None)
    p.add_argument("--count", type=parse_int, default=None, help="matrices per tuple (default 1)")
    p.add_argument("--seed", type=parse_int, default=None)
    p.add_argument("--kind", choices=["density", "pure"], default="density")
    p.add_argument("--out", required=True)

    p = sub.add_parser("render", help="draw a monomial's network as SVG")
    _monomial_args(p)
    p.add_argument("--out", required=True)

    return parser


_PARSER = build_parser()  # built once per process


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    # looked up per call, so a replaced handler takes effect
    handler = globals()["_cmd_" + args.command.replace("-", "_")]
    try:
        return handler(args)
    except UnsupportedSizeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:  # a valid request too big for this machine
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # a bug, not bad input: never exit 1 ("separated")
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
