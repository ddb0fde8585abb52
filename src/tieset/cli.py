"""Command-line entry point.

Exit codes: 0 success, 1 input error, 2 precondition violation,
3 cap or timeout hit.
"""

from __future__ import annotations

import argparse
import inspect
import sys
import time

from . import __version__, experiments
from .broker import BrokerHeuristic, brute_force_min_broker, brute_force_min_dominating, run_heuristic
from .datasets import DatasetDescriptor, EdgeListFormatError, load_edge_list, write_edge_list
from .diameter import REDUCTIONS, brute_force_min_delta_enabling
from .experiments import RunTimedOut
from .generators import (
    BA, DEFAULT_BA_M, DEFAULT_NWS_K, DEFAULT_NWS_P, NWS, RandomModelParams, generate, reduction_gadget
)
from .graph import CapExceededError, GraphError, metric_profile

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_PRECONDITION = 2
EXIT_CAP = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # bad flags are input errors, not usage code 2
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT, f"{self.prog}: error: {message}\n")


def _int_list(text: str) -> list[int]:
    return [int(part) for part in text.split(",") if part]


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
    g, _ = load_edge_list(args.path, giant=args.giant)
    t0 = time.perf_counter()
    report = REDUCTIONS[args.alg](g, args.delta, args.seed)
    elapsed = time.perf_counter() - t0
    print(f"algorithm: {args.alg}")
    print(f"edges added: {report.edges_added}")
    print(f"achieved diameter: {report.achieved_diameter}")
    print(f"set: {' '.join(str(v) for v in report.s)}")
    print(f"elapsed-s: {elapsed:.3f}", file=sys.stderr)
    return EXIT_OK


# the generator parameters each model reads; one left out takes the model's default
_GEN_PARAMS = {BA: ("ba_m",), NWS: ("nws_k", "nws_p")}


def _cmd_gen(args) -> int:
    given = [name for names in _GEN_PARAMS.values() for name in names if getattr(args, name) is not None]
    unused = ", ".join("--" + name.replace("_", "-") for name in given if name not in _GEN_PARAMS[args.model])
    if unused:
        print(f"tieset: gen --model {args.model} takes no {unused}", file=sys.stderr)
        return EXIT_INPUT
    params = RandomModelParams(args.model, args.n, args.seed, **{name: getattr(args, name) for name in given})
    g = generate(params)
    write_edge_list(
        args.out,
        g,
        header_lines=(f"tieset {__version__}", f"model: {params.label()}", f"n: {g.n}", f"seed: {args.seed}"),
    )
    print(f"wrote {g.n} nodes, {g.m} edges to {args.out}")
    return EXIT_OK


def _cmd_gadget(args) -> int:
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


# the flags each oracle target reads, of --delta and --cap
_ORACLE_FLAGS = {"broker": ("--cap",), "dom": (), "delta": ("--delta", "--cap")}


def _cmd_oracle(args) -> int:
    given = [flag for flag in ("--delta", "--cap") if getattr(args, flag[2:]) is not None]
    unused = [flag for flag in given if flag not in _ORACLE_FLAGS[args.target]]
    if unused:
        print(f"tieset: oracle --target {args.target} takes no {', '.join(unused)}", file=sys.stderr)
        return EXIT_INPUT
    g, _ = load_edge_list(args.path, giant=args.giant)
    if args.target == "broker":
        s = brute_force_min_broker(g, size_cap=args.cap)
    elif args.target == "dom":
        s = brute_force_min_dominating(g)
    else:
        if args.delta is None:
            raise GraphError("--delta is required for --target delta")
        s = brute_force_min_delta_enabling(g, args.delta, size_cap=args.cap)
    print(f"target: {args.target}")
    print(f"size: {len(s)}")
    print(f"set: {' '.join(str(v) for v in s)}")
    return EXIT_OK


def _dataset(spec: str) -> DatasetDescriptor:
    name, sep, path = spec.partition("=")
    if not sep or not name or not path:
        raise argparse.ArgumentTypeError(f"dataset spec must be name=path, got {spec!r}")
    return DatasetDescriptor.with_known_stats(name, path)


def _timeout(text: str) -> float | None:
    seconds = float(text)
    return None if seconds == 0 else seconds  # the runner refuses what it cannot wait for


def _cmd_experiment(args) -> int:
    runner = getattr(experiments, f"run_experiment_{args.number}")
    accepted = inspect.signature(runner).parameters
    given = {name for name, value in vars(args).items() if (name, value) != ("datasets", [])}
    unused = [flag for name, flag in args.flags.items() if name in given and name not in accepted]
    if unused:
        print(f"tieset: experiment {args.number} takes no {', '.join(unused)}", file=sys.stderr)
        return EXIT_INPUT
    runner(**{name: value for name, value in vars(args).items() if name in accepted})
    print(f"wrote {args.out}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="tieset", description=__doc__)
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
    p.add_argument("--model", required=True, choices=[BA, NWS])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--ba-m", type=int, help=f"ba only (default {DEFAULT_BA_M})")
    p.add_argument("--nws-k", type=int, help=f"nws only (default {DEFAULT_NWS_K})")
    p.add_argument("--nws-p", type=float, help=f"nws only (default {DEFAULT_NWS_P})")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_gen)

    p = sub.add_parser("gadget", help="build the domination-reduction gadget")
    p.add_argument("path", help="edge-list file")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_gadget)

    p = sub.add_parser("oracle", help="exact minimum by exhaustive search")
    add_graph_arg(p)
    p.add_argument("--target", required=True, choices=list(_ORACLE_FLAGS))
    p.add_argument("--delta", type=int)
    p.add_argument("--cap", type=int, help="subset-size cap for the search")
    p.set_defaults(fn=_cmd_oracle)

    # flags left out are absent from the namespace, so the runner's defaults apply
    p = sub.add_parser(
        "experiment", help="run one of the five experiments", argument_default=argparse.SUPPRESS
    )
    p.add_argument("number", choices=["1", "2", "3", "4", "5"])
    flags: dict[str, str] = {}  # each option's namespace name -> its flag, for the unused-flag check

    def option(flag, **kwargs):
        flags[p.add_argument(flag, **kwargs).dest] = flag

    option("--out", required=True, help="CSV output path")
    option("--seed", dest="master_seed", metavar="SEED", type=int, default=1, help="master seed (default 1)")
    option("--models", type=lambda t: t.split(","))
    option("--sizes", type=_int_list)
    option("--count", type=int)
    option("--heuristics", type=lambda t: t.split(","))
    option("--oracle-cap", type=int)
    option("--dataset", dest="datasets", metavar="NAME=PATH", type=_dataset, action="append",
           default=[], help="repeatable")
    option("--timeout", dest="timeout_s", metavar="SECONDS", type=_timeout, help="per-run budget; 0 disables")
    option("--verify-stats", action="store_true", help="check datasets against published stats")
    option("--i-range", type=_int_list)
    option("--timings", action="store_true", help="include wall-clock timings in the CSV")
    p.set_defaults(fn=_cmd_experiment, flags=flags)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits on usage errors and --help
        return exc.code if isinstance(exc.code, int) else EXIT_INPUT
    try:
        return args.fn(args)
    except (OSError, UnicodeDecodeError, EdgeListFormatError) as exc:
        print(f"tieset: input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (GraphError, ValueError) as exc:
        print(f"tieset: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except (CapExceededError, RunTimedOut) as exc:
        print(f"tieset: {exc}", file=sys.stderr)
        return EXIT_CAP


if __name__ == "__main__":
    sys.exit(main())
