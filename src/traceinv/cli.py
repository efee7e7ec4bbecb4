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
import math
import os
import sys

import numpy as np

from .core import DEFAULT_TOL, Dims, OperatorTuple, check_tol, random_density
from .diagram import render_svg
from .equivalence import decide_lu_equiv, lu_degree_bound, slocc_degree_bound
from .errors import MAX_BOUND_DIGITS, UnsupportedSizeError, check_size
from .evaluate import eval_contract, eval_reference, factorize
from .perms import TraceMonomial, enumerate_monomials, parse_perm_tuple
from .slocc import eval_slocc
from .statefile import load_state, save_operator_tuple, save_pure_state


def _default_tol():
    raw = os.environ.get("TRACEINV_TOL")
    if raw is None:
        return DEFAULT_TOL
    try:
        return check_tol(raw, "TRACEINV_TOL")
    except ValueError:
        raise ValueError(f"TRACEINV_TOL must be a finite number >= 0, got {raw!r}") from None


def format_value(z) -> str:
    z = complex(z)
    s = f"{z.real:.15f}"
    if abs(z.imag) > 1e-12:
        s += f"{z.imag:+.15f}i"
    return s


def _parse_labels(text):
    try:
        raw = [int(x) for x in text.split(",")]
    except ValueError:
        raise ValueError(f"labels must be comma-separated integers, got {text!r}") from None
    if any(x < 1 for x in raw):
        raise ValueError(f"labels are 1-based, got {text!r}")
    return tuple(x - 1 for x in raw)


def _parse_monomial(labels_text, perm_text) -> TraceMonomial:
    labels = _parse_labels(labels_text)
    perms = parse_perm_tuple(perm_text, len(labels))
    return TraceMonomial(labels=labels, perms=perms)


def _fmt_positions(positions):
    return ",".join(str(j + 1) for j in positions)


def _cmd_eval(args):
    sf = load_state(args.state)
    if sf.kind != "operator_tuple":
        raise ValueError(f"eval needs an operator_tuple state file, got kind {sf.kind!r}")
    mon = _parse_monomial(args.labels, args.perm)
    if mon.n_rows != sf.dims.n:
        raise ValueError(
            f"--perm has {mon.n_rows} rows but the state has {sf.dims.n} subsystems"
        )
    engine = eval_reference if args.engine == "ref" else eval_contract
    print(format_value(engine(mon, sf.operators)))
    return 0


def _cmd_slocc_eval(args):
    states = []
    for path in args.state:
        sf = load_state(path)
        if sf.kind != "pure_state":
            raise ValueError(f"{path}: slocc-eval needs pure_state files, got {sf.kind!r}")
        states.append(sf.amplitudes)
    mon = _parse_monomial(args.labels, args.perm)
    print(format_value(eval_slocc(mon, states)))
    return 0


def _cmd_compare(args):
    tol = _default_tol() if args.tol is None else check_tol(args.tol, "--tol")
    a = load_state(args.a)
    b = load_state(args.b)
    if a.kind != "operator_tuple" or b.kind != "operator_tuple":
        raise ValueError("compare needs two operator_tuple state files")
    verdict = decide_lu_equiv(a.operators, b.operators, max_degree=args.max_degree, tol=tol)
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
    cap = None
    if args.girth_cap:
        cap = tuple(int(x) for x in args.girth_cap.split(","))
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


def _decimal_digits(v):
    """Number of decimal digits of the int v >= 1, without making a string."""
    k = int(math.log10(v)) + 1  # off by one only next to a power of ten
    return k + (v >= 10**k) - (v < 10 ** (k - 1))


def _cmd_bounds(args):
    if args.lu:
        if not args.dims:
            raise ValueError("--lu needs --dims")
        dims = Dims(tuple(int(x) for x in args.dims.split(",")))
        bound = lu_degree_bound(dims, m=args.m)
    else:
        if args.n is None:
            raise ValueError("--slocc needs -n")
        bound = slocc_degree_bound(args.n, m=args.m)
    check_size("decimal digits of the bound", _decimal_digits(bound), MAX_BOUND_DIGITS)
    print(bound)
    return 0


def _cmd_factorize(args):
    mon = _parse_monomial(args.labels, args.perm)
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
    dims = Dims(tuple(int(x) for x in args.dims.split(",")))
    rng = np.random.default_rng(args.seed)
    if args.kind == "density":
        mats = tuple(random_density(dims, rank=args.rank, seed=rng) for _ in range(args.count))
        save_operator_tuple(args.out, OperatorTuple(dims, mats))
    else:
        if any(d != 2 for d in dims.sizes):
            raise ValueError("pure states need --dims with all entries 2")
        v = rng.standard_normal(dims.total) + 1j * rng.standard_normal(dims.total)
        save_pure_state(args.out, v / np.linalg.norm(v))
    print(args.out)
    return 0


def _cmd_render(args):
    mon = _parse_monomial(args.labels, args.perm)
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
    p.add_argument("--max-degree", type=int, default=4)
    p.add_argument("--tol", type=float, default=None)

    p = sub.add_parser("enumerate", help="list canonical trace monomials")
    p.add_argument("-n", type=int, required=True, help="number of subsystem rows")
    p.add_argument("-m", type=int, required=True, help="number of operator labels")
    p.add_argument("--max-degree", type=int, required=True)
    p.add_argument("--girth-cap", default=None, help='per-row cap, e.g. "3,3"')
    p.add_argument("--connected", action="store_true")
    p.add_argument("--raw", action="store_true", help="no dedup by box relabeling")

    p = sub.add_parser("bounds", help="generating-degree bounds")
    grp = p.add_mutually_exclusive_group(required=True)
    grp.add_argument("--lu", action="store_true")
    grp.add_argument("--slocc", action="store_true")
    p.add_argument("--dims", default=None, help='subsystem dims for --lu, e.g. "2,2"')
    p.add_argument("-n", type=int, default=None, help="qubit count for --slocc")
    p.add_argument("-m", type=int, default=1)

    p = sub.add_parser("factorize", help="split a monomial into smaller factors")
    _monomial_args(p)

    p = sub.add_parser("random", help="write a random state file")
    p.add_argument("--dims", required=True)
    p.add_argument("--rank", type=int, default=None)
    p.add_argument("--count", type=int, default=1, help="matrices per tuple")
    p.add_argument("--seed", type=int, default=None)
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
