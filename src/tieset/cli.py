"""Command-line entry point.

Exit codes: 0 success, 1 input error, 2 precondition violation,
3 cap or timeout hit.
"""

from __future__ import annotations

import argparse
import sys
import time

from . import __version__
from .broker import (
    BrokerHeuristic,
    CapExceededError,
    brute_force_min_broker,
    brute_force_min_dominating,
    run_heuristic,
)
from .datasets import DatasetDescriptor, EdgeListFormatError, load_edge_list, write_edge_list
from .diameter import brute_force_min_delta_enabling, cp_algorithm, periphery_algorithm
from .experiments import (
    DEFAULT_TIMEOUT_S,
    RunTimedOut,
    run_experiment_1,
    run_experiment_2,
    run_experiment_3,
    run_experiment_4,
    run_experiment_5,
)
from .generators import BA, NWS, RandomModelParams, generate, reduction_gadget
from .graph import GraphError, metric_profile

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


def _load(path: str, giant: bool):
    graph, mapping = load_edge_list(path, giant=giant)
    return graph, mapping


def _cmd_stats(args) -> int:
    g, _ = _load(args.path, args.giant)
    profile = metric_profile(g)
    print(f"n: {g.n}")
    print(f"m: {g.m}")
    print(f"radius: {profile.radius}")
    print(f"diameter: {profile.diameter}")
    print(f"center size: {len(profile.center)}")
    print(f"periphery size: {len(profile.periphery)}")
    return EXIT_OK


def _cmd_broker(args) -> int:
    g, _ = _load(args.path, args.giant)
    report = run_heuristic(g, args.alg, args.seed, verify=args.verify)
    print(f"algorithm: {report.heuristic.value}")
    print(f"size: {report.size}")
    print(f"set: {' '.join(str(v) for v in report.s)}")
    if args.verify:
        print(f"valid: {'true' if report.valid else 'false'}")
    print(f"elapsed-s: {report.elapsed:.3f}", file=sys.stderr)
    return EXIT_OK


def _cmd_diam(args) -> int:
    g, _ = _load(args.path, args.giant)
    fn = periphery_algorithm if args.alg == "periphery" else cp_algorithm
    t0 = time.perf_counter()
    report = fn(g, args.delta, args.seed)
    elapsed = time.perf_counter() - t0
    print(f"algorithm: {args.alg}")
    print(f"edges added: {report.edges_added}")
    print(f"achieved diameter: {report.achieved_diameter}")
    print(f"set: {' '.join(str(v) for v in report.s)}")
    print(f"elapsed-s: {elapsed:.3f}", file=sys.stderr)
    return EXIT_OK


def _cmd_gen(args) -> int:
    if args.model == BA:
        params = RandomModelParams(BA, args.n, args.seed, ba_m=args.ba_m)
    else:
        params = RandomModelParams(NWS, args.n, args.seed, nws_k=args.nws_k, nws_p=args.nws_p)
    g = generate(params)
    write_edge_list(
        args.out,
        g,
        header_lines=(f"tieset {__version__}", f"model: {params.label()}", f"n: {g.n}", f"seed: {args.seed}"),
    )
    print(f"wrote {g.n} nodes, {g.m} edges to {args.out}")
    return EXIT_OK


def _cmd_gadget(args) -> int:
    g, _ = _load(args.path, False)
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


def _cmd_oracle(args) -> int:
    g, _ = _load(args.path, args.giant)
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


def _parse_datasets(specs: list[str]) -> list[DatasetDescriptor]:
    descriptors = []
    for spec in specs:
        name, sep, path = spec.partition("=")
        if not sep or not name or not path:
            raise EdgeListFormatError(f"dataset spec must be name=path, got {spec!r}")
        descriptors.append(DatasetDescriptor.with_known_stats(name, path))
    return descriptors


def _cmd_experiment(args) -> int:
    common = dict(master_seed=args.seed, timings=args.timings)
    if args.number == "1":
        run_experiment_1(
            args.out,
            models=args.models,
            sizes=args.sizes,
            count=args.count,
            heuristics=args.heuristics,
            **common,
        )
    elif args.number == "2":
        run_experiment_2(
            args.out,
            models=args.models,
            sizes=args.sizes,
            count=args.count,
            heuristics=args.heuristics,
            oracle_cap=args.oracle_cap,
            **common,
        )
    elif args.number == "3":
        run_experiment_3(
            args.out,
            _parse_datasets(args.dataset),
            heuristics=args.heuristics,
            timeout_s=args.timeout if args.timeout > 0 else None,
            verify_stats=args.verify_stats,
            **common,
        )
    elif args.number == "4":
        run_experiment_4(
            args.out,
            models=args.models,
            sizes=args.sizes,
            count=args.count,
            **common,
        )
    else:
        run_experiment_5(
            args.out,
            _parse_datasets(args.dataset),
            i_range=args.i_range,
            verify_stats=args.verify_stats,
            **common,
        )
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
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--verify", action="store_true", help="re-check the output set")
    p.set_defaults(fn=_cmd_broker)

    p = sub.add_parser("diam", help="reduce the combined diameter to a target")
    add_graph_arg(p)
    p.add_argument("--delta", type=int, required=True)
    p.add_argument("--alg", required=True, choices=["periphery", "cp"])
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=_cmd_diam)

    p = sub.add_parser("gen", help="generate a seeded random graph")
    p.add_argument("--model", required=True, choices=[BA, NWS])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--ba-m", type=int, default=2)
    p.add_argument("--nws-k", type=int, default=4)
    p.add_argument("--nws-p", type=float, default=0.1)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_gen)

    p = sub.add_parser("gadget", help="build the domination-reduction gadget")
    p.add_argument("path", help="edge-list file")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_gadget)

    p = sub.add_parser("oracle", help="exact minimum by exhaustive search")
    add_graph_arg(p)
    p.add_argument("--target", required=True, choices=["broker", "dom", "delta"])
    p.add_argument("--delta", type=int)
    p.add_argument("--cap", type=int, help="subset-size cap for the search")
    p.set_defaults(fn=_cmd_oracle)

    p = sub.add_parser("experiment", help="run one of the five experiments")
    p.add_argument("number", choices=["1", "2", "3", "4", "5"])
    p.add_argument("--out", required=True, help="CSV output path")
    p.add_argument("--seed", type=int, default=1, help="master seed")
    p.add_argument("--models", type=lambda t: t.split(","), default=[BA, NWS])
    p.add_argument("--sizes", type=_int_list, default=None)
    p.add_argument("--count", type=int, default=None)
    p.add_argument(
        "--heuristics",
        type=lambda t: t.split(","),
        default=[h.value for h in BrokerHeuristic],
    )
    p.add_argument("--oracle-cap", type=int, default=8)
    p.add_argument("--dataset", action="append", default=[], help="name=path, repeatable")
    p.add_argument("--timeout", type=float, default=DEFAULT_TIMEOUT_S,
                   help="per-run budget in seconds; 0 disables")
    p.add_argument("--verify-stats", action="store_true", help="check datasets against published stats")
    p.add_argument("--i-range", type=_int_list, default=[1, 2, 3, 4])
    p.add_argument("--timings", action="store_true", help="include wall-clock timings in the CSV")
    p.set_defaults(fn=_cmd_experiment)

    return parser


_EXPERIMENT_DEFAULTS = {
    "1": {"sizes": [100, 200, 400], "count": 30},
    "2": {"sizes": [8, 10, 12], "count": 25},
    "3": {"sizes": [], "count": 0},
    "4": {"sizes": [100, 200, 400], "count": 10},
    "5": {"sizes": [], "count": 0},
}


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits on usage errors and --help
        return exc.code if isinstance(exc.code, int) else EXIT_INPUT
    if args.command == "experiment":
        defaults = _EXPERIMENT_DEFAULTS[args.number]
        if args.sizes is None:
            args.sizes = defaults["sizes"]
        if args.count is None:
            args.count = defaults["count"]
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
