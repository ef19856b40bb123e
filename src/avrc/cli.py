"""Command-line front end.

Exit codes: 0 success, 1 usage error, 2 computation or resource error.  With
AVRC_DEBUG=1 in the environment, a computation or resource error is raised
with its traceback instead of becoming one `error:` line and exit code 2.
All numeric output is printed with 9 significant digits.  A CSV file's
columns are its records' dataclass fields, in order.
"""

import argparse
import functools
import json
import os
import sys
from dataclasses import asdict, fields

from . import discrete, gaussian, sim
from .gaussian import GaussianSfdParams


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(1)


def _sig9(obj):
    if isinstance(obj, float):
        return float(f"{obj:.9g}")
    if isinstance(obj, dict):
        return {k: _sig9(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sig9(v) for v in obj]
    return obj


def _emit(obj):
    print(json.dumps(_sig9(obj), indent=2))


def write_csv(rows, path):
    """Write a non-empty list of dataclass records as CSV: a header of their
    field names, then one line per record, each value at 9 significant digits
    and a string as it is."""
    names = [f.name for f in fields(rows[0])]
    with open(path, "w") as fh:
        fh.write(",".join(names) + "\n")
        for r in rows:
            values = [getattr(r, name) for name in names]
            fh.write(",".join([v if isinstance(v, str) else f"{v:.9g}" for v in values]) + "\n")


@functools.cache
def _build_parser():
    """The argparse tree, built once per process; parse_args keeps no state
    between calls and returns a fresh namespace each time."""
    top = _Parser(prog="avrc", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)

    b = sub.add_parser("bounds", help="Gaussian rate bounds for one parameter tuple")
    b.add_argument("--P", type=float, required=True)
    b.add_argument("--P1", type=float, required=True)
    b.add_argument("--Lambda", type=float, required=True)
    b.add_argument("--sigma2", type=float, required=True)

    f = sub.add_parser("figure", help="sweep of the bounds over P with P1 = P (CSV)")
    f.add_argument("--Lambda", type=float, required=True)
    f.add_argument("--sigma2", type=float, required=True)
    f.add_argument("--pmin", type=float, required=True)
    f.add_argument("--pmax", type=float, required=True)
    f.add_argument("--step", type=float, required=True)
    f.add_argument("--out", required=True)

    s = sub.add_parser("symcheck", help="symmetrizability verdict for a channel JSON")
    s.add_argument("--channel", required=True)
    s.add_argument("--target", choices=["relay", "receiver", "joint"], required=True)
    s.add_argument("--tol", type=float, default=discrete.VERDICT_TOL,
                   help="largest residual counted as zero; finite and >= 0")

    p = sub.add_parser("primitive", help="bounds/classification for a channel JSON")
    p.add_argument("--channel", required=True)
    p.add_argument("--bound", choices=["cutset", "df", "classify"], required=True)
    p.add_argument("--df-mode", choices=["direct", "full", "aux"], default="aux")
    p.add_argument("--aux-size", type=int, default=None)

    m = sub.add_parser("simulate", help="Monte Carlo run or Lambda sweep from a config JSON")
    m.add_argument("--config", required=True)
    m.add_argument("--out", required=True)
    m.add_argument("--workers", type=int, default=None)

    sub.add_parser("example1", help="exhaustive zero-error table of the single-use code")
    return top


def _cmd_bounds(args):
    params = GaussianSfdParams(P=args.P, P1=args.P1, Lambda=args.Lambda, sigma2=args.sigma2)
    _emit(asdict(gaussian.det_code_bounds(params)))


def _cmd_figure(args):
    values = gaussian.sweep_range(args.pmin, args.pmax, args.step)
    rows = gaussian.figure_sweep(values, args.Lambda, args.sigma2)
    write_csv(rows, args.out)


def _load_channel(path):
    with open(path) as fh:
        return discrete.dmc_from_json(json.load(fh))


def _cmd_symcheck(args):
    dmc = _load_channel(args.channel)
    chan = {"relay": dmc.relay_marginal(),
            "receiver": dmc.receiver_marginal(),
            "joint": dmc.joint_output()}[args.target]
    verdict = discrete.symmetrizability(chan, args.tol)
    _emit({
        "target": args.target,
        "symmetrizable": verdict.symmetrizable,
        "max_residual": verdict.max_residual,
        "witness": None if verdict.witness is None else verdict.witness.tolist(),
    })


def _cmd_primitive(args):
    dmc = _load_channel(args.channel)
    if args.bound == "cutset":
        _emit({"cutset_bound": discrete.cutset_bound(dmc)})
    elif args.bound == "df":
        aux = discrete.aux_cardinality(dmc, args.aux_size)
        value = discrete.df_bound(dmc, aux_size=args.aux_size, mode=args.df_mode)
        _emit({"df_bound": value, "mode": args.df_mode,
               "aux_size": aux if args.df_mode == "aux" else None})
    else:
        _emit(asdict(discrete.classify_capacity(dmc)))


def _cmd_simulate(args):
    with open(args.config) as fh:
        config, sweep = sim.sim_config_from_json(json.load(fh))
    if sweep is None:
        est = sim.run_monte_carlo(config, args.workers)
        row = sim.SweepEntry(config.strategy.Lambda, config.strategy.kind,
                             est.trials, est.errors, est.rate,
                             est.ci_low, est.ci_high, est.clip_rate)
        write_csv([row], args.out)
        _emit(asdict(est))
    else:
        rows = sim.attack_sweep(config, sweep["lambdas"], sweep["strategies"], args.workers)
        write_csv(rows, args.out)
        _emit([asdict(r) for r in rows])


def _cmd_example1(_args):
    rows = discrete.single_use_code_table()
    print("message state y y1 decoded error")
    for r in rows:
        print(f"{r.message:7d} {r.state:5d} {r.y} {r.y1:2d} {r.decoded:7d} {r.error:5d}")
    if any(r.error for r in rows):
        raise RuntimeError("single-use table shows an error")


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    handlers = {
        "bounds": _cmd_bounds,
        "figure": _cmd_figure,
        "symcheck": _cmd_symcheck,
        "primitive": _cmd_primitive,
        "simulate": _cmd_simulate,
        "example1": _cmd_example1,
    }
    try:
        handlers[args.command](args)
    except Exception as exc:  # computation / resource / IO failures
        if os.environ.get("AVRC_DEBUG") == "1":
            raise
        sys.stderr.write(f"error: {exc}\n")
        return 2
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
