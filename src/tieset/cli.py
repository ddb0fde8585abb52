"""Command-line entry point.

Exit codes: 0 success, 1 input error, 2 precondition violation,
3 search cap hit.  A run that outlives experiment 3's budget is written
as a timeout row, and the command exits 0.
"""

from __future__ import annotations

import argparse
import inspect
import sys

from . import __version__, experiments
from .broker import BrokerHeuristic, brute_force_min_broker, brute_force_min_dominating, run_heuristic
from .datasets import DatasetDescriptor, EdgeListFormatError, load_edge_list, write_edge_list
from .diameter import REDUCTIONS, _check_delta, brute_force_min_delta_enabling
from .generators import (
    DEFAULT_BA_M, DEFAULT_NWS_K, DEFAULT_NWS_P, MODEL_PARAMS, RandomModelParams, generate, reduction_gadget
)
from .graph import CapExceededError, GraphError, _check_seed, _size_cap, metric_profile

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_PRECONDITION = 2
EXIT_CAP = 3


def _list(item):
    """The argparse type of a comma-separated list flag: ``item`` of each part, empty parts dropped."""

    def comma_list(text: str) -> list:
        return [item(part) for part in text.split(",") if part]

    return comma_list


def _option(p: argparse.ArgumentParser, flag: str, **kwargs) -> None:
    """Declare an optional flag of ``p`` that is absent from the namespace unless given.

    A flag left out thus takes the default of the function that reads it.
    ``p``'s ``flags`` default maps each such flag's namespace name to the
    flag, in declaration order, for :func:`_takes_no`.
    """
    p.get_default("flags")[p.add_argument(flag, default=argparse.SUPPRESS, **kwargs).dest] = flag


def _takes_no(args, command: str, reads) -> bool:
    """True, after saying so on stderr, if ``args`` gives an optional flag whose name is not in ``reads``."""
    unread = [flag for name, flag in args.flags.items() if name in args and name not in reads]
    if unread:
        print(f"tieset: {command} takes no {', '.join(unread)}", file=sys.stderr)
    return bool(unread)


def _cmd_stats(args) -> int:
    g, _ = load_edge_list(args.path, giant=args.giant)
    profile = metric_profile(g)
    print(f"n: {g.n}")
    print(f"m: {g.m}")
    print(f"radius: {profile.radius}")
    print(f"diameter: {profile.diameter}")
    print(f"center size: {len(profile.center)}")
    print(f"periphery size: {len(profile.periphery)}")
    return EXIT_OK


def _cmd_broker(args) -> int:
    g, _ = load_edge_list(args.path, giant=args.giant)
    report = run_heuristic(g, args.alg, verify=args.verify)
    print(f"algorithm: {report.heuristic.value}")
    print(f"size: {report.size}")
    print(f"set: {' '.join(str(v) for v in report.s)}")
    if args.verify:
        print(f"valid: {'true' if report.valid else 'false'}")
    print(f"elapsed-s: {report.elapsed:.3f}", file=sys.stderr)
    return EXIT_OK


def _cmd_diam(args) -> int:
    _check_seed(args.seed)  # the reduction's own argument checks, before the file is read
    _check_delta(args.delta)
    g, _ = load_edge_list(args.path, giant=args.giant)
    report = REDUCTIONS[args.alg](g, args.delta, args.seed)
    print(f"algorithm: {args.alg}")
    print(f"edges added: {report.edges_added}")
    print(f"achieved diameter: {report.achieved_diameter}")
    print(f"set: {' '.join(str(v) for v in report.s)}")
    print(f"elapsed-s: {report.elapsed:.3f}", file=sys.stderr)
    return EXIT_OK


def _cmd_gen(args) -> int:
    reads = MODEL_PARAMS[args.model]
    if _takes_no(args, f"gen --model {args.model}", reads):
        return EXIT_INPUT
    given = {name: getattr(args, name) for name in reads if name in args}
    params = RandomModelParams(args.model, args.n, args.seed, **given)
    experiments._check_out(args.out)
    g = generate(params)
    write_edge_list(
        args.out,
        g,
        header_lines=(f"tieset {__version__}", f"model: {params.label()}", f"n: {g.n}", f"seed: {args.seed}"),
    )
    print(f"wrote {g.n} nodes, {g.m} edges to {args.out}")
    return EXIT_OK


def _cmd_gadget(args) -> int:
    experiments._check_out(args.out)
    g, _ = load_edge_list(args.path)
    h, gm = reduction_gadget(g)
    write_edge_list(
        args.out,
        h,
        header_lines=(
            f"tieset {__version__}",
            f"reduction gadget over n={gm.n_original} input nodes",
            "layers: clique 0..n-1, copy n..2n-1, pendant 2n..3n-1",
        ),
    )
    print(f"wrote gadget with {h.n} nodes, {h.m} edges to {args.out}")
    return EXIT_OK


# oracle target -> its search; the search's parameters are the flags the target reads
_ORACLES = {
    "broker": brute_force_min_broker,
    "dom": brute_force_min_dominating,
    "delta": brute_force_min_delta_enabling,
}


def _cmd_oracle(args) -> int:
    search = _ORACLES[args.target]
    reads = inspect.signature(search).parameters
    if _takes_no(args, f"oracle --target {args.target}", reads):
        return EXIT_INPUT
    if "delta" in reads and "delta" not in args:
        raise GraphError(f"--delta is required for --target {args.target}")
    _size_cap(getattr(args, "size_cap", None), 0)  # a cap below 1 is refused before the file is read
    if "delta" in args:  # and then a delta below 2
        _check_delta(args.delta)
    g, _ = load_edge_list(args.path, giant=args.giant)
    s = search(g, **{name: getattr(args, name) for name in args.flags if name in args})
    print(f"target: {args.target}")
    print(f"size: {len(s)}")
    print(f"set: {' '.join(str(v) for v in s)}")
    return EXIT_OK


def _dataset(spec: str) -> DatasetDescriptor:
    name, sep, path = spec.partition("=")
    if not sep or not name or not path:
        raise argparse.ArgumentTypeError(f"dataset spec must be name=path, got {spec!r}")
    return DatasetDescriptor(name, path)


def _timeout(text: str) -> float | None:
    seconds = float(text)
    return None if seconds == 0 else seconds  # the runner refuses what it cannot wait for


def _cmd_experiment(args) -> int:
    runner = getattr(experiments, f"run_experiment_{args.number}")
    reads = inspect.signature(runner).parameters
    if _takes_no(args, f"experiment {args.number}", reads):
        return EXIT_INPUT
    runner(**{name: value for name, value in vars(args).items() if name in reads})
    print(f"wrote {args.out}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="tieset", description=__doc__)
    parser.add_argument("--version", action="version", version=f"tieset {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_graph_arg(p):
        p.add_argument("path", help="edge-list file")
        p.add_argument("--giant", action="store_true", help="use the largest connected component")

    p = sub.add_parser("stats", help="print n, m, radius, diameter")
    add_graph_arg(p)
    p.set_defaults(fn=_cmd_stats)

    p = sub.add_parser("broker", help="run one centering heuristic")
    add_graph_arg(p)
    p.add_argument("--alg", required=True, choices=[h.value for h in BrokerHeuristic])
    p.add_argument("--verify", action="store_true", help="re-check the output set")
    p.set_defaults(fn=_cmd_broker)

    p = sub.add_parser("diam", help="reduce the combined diameter to a target")
    add_graph_arg(p)
    p.add_argument("--delta", type=int, required=True)
    p.add_argument("--alg", required=True, choices=list(REDUCTIONS))
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=_cmd_diam)

    p = sub.add_parser("gen", help="generate a seeded random graph")
    p.set_defaults(fn=_cmd_gen, flags={})
    p.add_argument("--model", required=True, choices=list(MODEL_PARAMS))
    p.add_argument("--n", type=int, required=True)
    _option(p, "--ba-m", type=int, help=f"ba only (default {DEFAULT_BA_M})")
    _option(p, "--nws-k", type=int, help=f"nws only (default {DEFAULT_NWS_K})")
    _option(p, "--nws-p", type=float, help=f"nws only (default {DEFAULT_NWS_P})")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("gadget", help="build the domination-reduction gadget")
    p.add_argument("path", help="edge-list file")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_gadget)

    p = sub.add_parser("oracle", help="exact minimum by exhaustive search")
    p.set_defaults(fn=_cmd_oracle, flags={})
    add_graph_arg(p)
    p.add_argument("--target", required=True, choices=list(_ORACLES))
    _option(p, "--delta", type=int)
    _option(p, "--cap", dest="size_cap", metavar="CAP", type=int, help="subset-size cap for the search")

    p = sub.add_parser("experiment", help="run one of the five experiments")
    p.set_defaults(fn=_cmd_experiment, flags={})
    p.add_argument("number", choices=["1", "2", "3", "4", "5"])
    p.add_argument("--out", required=True, help="CSV output path")
    _option(p, "--seed", dest="master_seed", metavar="SEED", type=int, help="master seed")
    _option(p, "--models", type=_list(str))
    _option(p, "--sizes", type=_list(int))
    _option(p, "--count", type=int)
    _option(p, "--heuristics", type=_list(str))
    _option(p, "--oracle-cap", type=int)
    _option(p, "--dataset", dest="datasets", metavar="NAME=PATH", type=_dataset, action="append", help="repeatable")
    _option(p, "--timeout", dest="timeout_s", metavar="SECONDS", type=_timeout, help="per-run budget; 0 disables")
    _option(p, "--verify-stats", action="store_true", help="check datasets against published stats")
    _option(p, "--i-range", type=_list(int))
    _option(p, "--timings", action="store_true", help="include wall-clock timings in the CSV")

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.fn(args)
    except SystemExit as exc:  # only argparse exits: 0 after --help or --version, 2 on a usage error
        return EXIT_INPUT if exc.code else EXIT_OK
    except (OSError, UnicodeDecodeError, EdgeListFormatError) as exc:
        print(f"tieset: input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (GraphError, ValueError) as exc:
        print(f"tieset: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except CapExceededError as exc:
        print(f"tieset: {exc}", file=sys.stderr)
        return EXIT_CAP


if __name__ == "__main__":
    sys.exit(main())
