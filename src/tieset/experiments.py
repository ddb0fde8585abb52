"""Experiment runners with deterministic CSV reporting.

Every experiment writes one CSV with a fixed header, preceded by a
'#'-prefixed metadata block (tool version, master seed, model parameters).
Per-graph seeds are derived from the master seed with the splitmix64
finalizer over the graph index, so identical invocations produce identical
files byte for byte.  Wall-clock timings are therefore left out of the CSV
unless explicitly requested.
"""

from __future__ import annotations

import csv
import io
import logging
import multiprocessing
import time
from dataclasses import dataclass, replace
from pathlib import Path
from statistics import fmean
from typing import Sequence

from . import __version__
from .broker import BrokerHeuristic, CapExceededError, brute_force_min_broker, run_heuristic
from .datasets import DatasetDescriptor, load_edge_list
from .diameter import DeltaReport, cp_algorithm, periphery_algorithm
from .generators import BA, NWS, RandomModelParams, generate
from .graph import Graph, GraphError, metric_profile

log = logging.getLogger(__name__)

CSV_COLUMNS = (
    "experiment",
    "kind",
    "graph_id",
    "source",
    "n",
    "m",
    "radius",
    "diameter",
    "algorithm",
    "output_size",
    "valid",
    "optimal_size",
    "edges_added",
    "delta",
    "achieved_diameter",
    "seed",
    "elapsed_ms",
    "group_size",
    "mean_output_size",
    "optimality_rate",
    "note",
)

DEFAULT_BA_M = 2
DEFAULT_NWS_K = 4
DEFAULT_NWS_P = 0.1
DEFAULT_TIMEOUT_S = 600.0

_MASK64 = (1 << 64) - 1


def split_seed(master_seed: int, index: int) -> int:
    """Per-graph seed: splitmix64 finalizer over master seed and index."""
    x = (master_seed + (index + 1) * 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


@dataclass(frozen=True, slots=True)
class ExperimentRecord:
    """One CSV row; unset fields serialize as empty cells."""

    experiment: str
    kind: str = "detail"
    graph_id: str = ""
    source: str = ""
    n: int | None = None
    m: int | None = None
    radius: int | None = None
    diameter: int | None = None
    algorithm: str = ""
    output_size: int | None = None
    valid: bool | None = None
    optimal_size: int | None = None
    edges_added: int | None = None
    delta: int | None = None
    achieved_diameter: int | None = None
    seed: int | None = None
    elapsed_ms: float | None = None
    group_size: int | None = None
    mean_output_size: float | None = None
    optimality_rate: float | None = None
    note: str = ""

    def row(self, *, timings: bool) -> list[str]:
        def cell(value) -> str:
            if value is None:
                return ""
            if isinstance(value, bool):
                return "true" if value else "false"
            if isinstance(value, float):
                return f"{value:.4f}"
            return str(value)

        values = []
        for name in CSV_COLUMNS:
            if name == "elapsed_ms" and not timings:
                values.append("")
                continue
            values.append(cell(getattr(self, name)))
        return values


def write_csv(
    path: str | Path,
    records: Sequence[ExperimentRecord],
    metadata: dict[str, str],
    *,
    timings: bool = False,
) -> None:
    """Write records under a '#' metadata block; detail rows first, then summaries."""
    ordered = sorted(
        (r for r in records if r.kind != "summary"),
        key=lambda r: (r.graph_id, r.algorithm),
    ) + sorted(
        (r for r in records if r.kind == "summary"),
        key=lambda r: (r.source, r.n if r.n is not None else -1, r.radius if r.radius is not None else -1, r.algorithm),
    )
    buf = io.StringIO()
    buf.write(f"# tool: tieset {__version__}\n")
    for key, value in metadata.items():
        buf.write(f"# {key}: {value}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for record in ordered:
        writer.writerow(record.row(timings=timings))
    Path(path).write_text(buf.getvalue(), encoding="utf-8", newline="")


def default_model_params(model: str, n: int, seed: int) -> RandomModelParams:
    if model == BA:
        return RandomModelParams(BA, n, seed, ba_m=DEFAULT_BA_M)
    if model == NWS:
        return RandomModelParams(NWS, n, seed, nws_k=DEFAULT_NWS_K, nws_p=DEFAULT_NWS_P)
    raise GraphError(f"unknown model {model!r}")


def _models_metadata(models: Sequence[str]) -> str:
    parts = []
    for model in models:
        parts.append(default_model_params(model, 10, 0).label())
    return ", ".join(parts)


def _iter_graphs(models, sizes, count, master_seed):
    """Yield (graph_id, params, graph) in a fixed order with split seeds."""
    index = 0
    for model in models:
        for n in sizes:
            for j in range(count):
                seed = split_seed(master_seed, index)
                index += 1
                params = default_model_params(model, n, seed)
                yield f"{model}-n{n}-{j:03d}", params, generate(params)


# ---------------------------------------------------------------------------
# experiment 1: heuristic output sizes on random graphs

def run_experiment_1(
    out: str | Path,
    *,
    models: Sequence[str] = (BA, NWS),
    sizes: Sequence[int] = (100, 200, 400),
    count: int = 30,
    heuristics: Sequence[BrokerHeuristic | str] = tuple(BrokerHeuristic),
    master_seed: int = 1,
    timings: bool = False,
) -> list[ExperimentRecord]:
    """Average broker-set sizes per heuristic over generated graphs.

    Emits one detail row per (graph, heuristic) and summary rows (mean output
    size) grouped by model, node count and radius.
    """
    heuristics = [BrokerHeuristic(h) for h in heuristics]
    records: list[ExperimentRecord] = []
    groups: dict[tuple[str, int, int, str], list[int]] = {}
    for graph_id, params, g in _iter_graphs(models, sizes, count, master_seed):
        profile = metric_profile(g)
        for h in heuristics:
            report = run_heuristic(g, h, profile=profile)
            records.append(
                ExperimentRecord(
                    experiment="1",
                    graph_id=graph_id,
                    source=params.model,
                    n=g.n,
                    m=g.m,
                    radius=profile.radius,
                    diameter=profile.diameter,
                    algorithm=h.value,
                    output_size=report.size,
                    valid=report.valid,
                    seed=params.seed,
                    elapsed_ms=report.elapsed * 1000.0,
                )
            )
            groups.setdefault((params.model, g.n, profile.radius, h.value), []).append(report.size)
    for (model, n, radius, alg), sizes_seen in sorted(groups.items()):
        records.append(
            ExperimentRecord(
                experiment="1",
                kind="summary",
                source=model,
                n=n,
                radius=radius,
                algorithm=alg,
                group_size=len(sizes_seen),
                mean_output_size=fmean(sizes_seen),
            )
        )
    write_csv(
        out,
        records,
        {
            "experiment": "1",
            "master-seed": str(master_seed),
            "seed-split": "splitmix64(master-seed, graph-index)",
            "models": _models_metadata(models),
            "sizes": ",".join(str(s) for s in sizes),
            "per-cell": str(count),
            "heuristics": ",".join(h.value for h in heuristics),
        },
        timings=timings,
    )
    return records


# ---------------------------------------------------------------------------
# experiment 2: optimality rates against the brute-force oracle

def run_experiment_2(
    out: str | Path,
    *,
    models: Sequence[str] = (BA, NWS),
    sizes: Sequence[int] = (8, 10, 12),
    count: int = 25,
    heuristics: Sequence[BrokerHeuristic | str] = tuple(BrokerHeuristic),
    master_seed: int = 2,
    oracle_cap: int = 8,
    max_n: int = 14,
    timings: bool = False,
) -> list[ExperimentRecord]:
    """Fraction of graphs on which each heuristic matches the exact minimum.

    Restricted to sizes where the exhaustive oracle is feasible; graphs whose
    oracle search exceeds ``oracle_cap`` are skipped with a reason row.
    """
    heuristics = [BrokerHeuristic(h) for h in heuristics]
    if max(sizes) > max_n:
        raise GraphError(f"experiment 2 sizes must stay <= {max_n} for the oracle")
    records: list[ExperimentRecord] = []
    hits: dict[tuple[str, str], list[bool]] = {}
    for graph_id, params, g in _iter_graphs(models, sizes, count, master_seed):
        profile = metric_profile(g)
        try:
            optimal = len(brute_force_min_broker(g, size_cap=oracle_cap))
        except CapExceededError:
            log.warning("experiment 2: oracle cap exceeded on %s, skipping", graph_id)
            records.append(
                ExperimentRecord(
                    experiment="2",
                    kind="skip",
                    graph_id=graph_id,
                    source=params.model,
                    n=g.n,
                    m=g.m,
                    seed=params.seed,
                    note=f"oracle cap {oracle_cap} exceeded",
                )
            )
            continue
        for h in heuristics:
            report = run_heuristic(g, h, profile=profile)
            records.append(
                ExperimentRecord(
                    experiment="2",
                    graph_id=graph_id,
                    source=params.model,
                    n=g.n,
                    m=g.m,
                    radius=profile.radius,
                    diameter=profile.diameter,
                    algorithm=h.value,
                    output_size=report.size,
                    valid=report.valid,
                    optimal_size=optimal,
                    seed=params.seed,
                    elapsed_ms=report.elapsed * 1000.0,
                )
            )
            hits.setdefault((params.model, h.value), []).append(report.size == optimal)
    for (model, alg), outcomes in sorted(hits.items()):
        records.append(
            ExperimentRecord(
                experiment="2",
                kind="summary",
                source=model,
                algorithm=alg,
                group_size=len(outcomes),
                optimality_rate=sum(outcomes) / len(outcomes),
            )
        )
    write_csv(
        out,
        records,
        {
            "experiment": "2",
            "master-seed": str(master_seed),
            "seed-split": "splitmix64(master-seed, graph-index)",
            "models": _models_metadata(models),
            "sizes": ",".join(str(s) for s in sizes),
            "per-cell": str(count),
            "oracle-cap": str(oracle_cap),
            "heuristics": ",".join(h.value for h in heuristics),
        },
        timings=timings,
    )
    return records


# ---------------------------------------------------------------------------
# experiment 3: heuristics on real datasets, with per-run timeouts

class RunTimedOut(Exception):
    """A dataset run exceeded its wall-clock budget."""


def _child_run(conn, g, heuristic):
    try:
        report = run_heuristic(g, heuristic)
        conn.send(("ok", report.s.members, report.valid, report.elapsed))
    except Exception as exc:  # pragma: no cover - surfaced to the parent
        conn.send(("error", repr(exc), None, None))
    conn.close()


def run_with_timeout(g: Graph, heuristic: BrokerHeuristic, timeout_s: float | None):
    """Run a heuristic with verification under a wall-clock budget.

    Returns (members, valid, elapsed_seconds); raises :class:`RunTimedOut`
    when no result arrives within the budget (the worker process is
    terminated), and RuntimeError when the worker exits without a result.
    The result is read before the worker is joined, so a result larger than
    the pipe buffer cannot stall the worker until the deadline.
    """
    if timeout_s is None:
        report = run_heuristic(g, heuristic)
        return report.s.members, report.valid, report.elapsed
    ctx = multiprocessing.get_context("fork")
    reader, writer = ctx.Pipe(duplex=False)
    proc = ctx.Process(target=_child_run, args=(writer, g, heuristic))
    proc.start()
    writer.close()  # the worker holds the only write end: its exit reads as EOF
    try:
        if not reader.poll(timeout_s):
            proc.terminate()
            raise RunTimedOut(f"{heuristic.value} exceeded {timeout_s:.0f}s")
        try:
            outcome, payload, valid, elapsed = reader.recv()
        except EOFError:
            outcome = None
    finally:
        proc.join()
        reader.close()
    if outcome is None:
        raise RuntimeError(
            f"{heuristic.value} worker exited with code {proc.exitcode} before sending a result"
        )
    if outcome == "error":
        raise RuntimeError(f"{heuristic.value} failed in worker: {payload}")
    return payload, valid, elapsed


def verify_dataset_stats(name: str, g_full: Graph, g_lcc: Graph, expected) -> None:
    """Compare a loaded dataset against its published stats; raises on mismatch."""
    profile = metric_profile(g_lcc)
    observed = (g_full.n, g_full.m, g_lcc.n, profile.diameter, profile.radius)
    published = (expected.n, expected.m, expected.lcc_n, expected.diameter, expected.radius)
    if observed != published:
        raise GraphError(
            f"dataset {name}: stats {observed} do not match published {published} "
            "(n, m, lcc_n, diameter, radius)"
        )


def run_experiment_3(
    out: str | Path,
    datasets: Sequence[DatasetDescriptor],
    *,
    heuristics: Sequence[BrokerHeuristic | str] = tuple(BrokerHeuristic),
    timeout_s: float | None = DEFAULT_TIMEOUT_S,
    verify_stats: bool = False,
    master_seed: int = 3,
    timings: bool = False,
) -> list[ExperimentRecord]:
    """Broker-set sizes on real edge-list datasets (giant component).

    Missing datasets are skipped with a reason row; runs that blow the
    per-(dataset, heuristic) budget are recorded as timeouts.
    """
    heuristics = [BrokerHeuristic(h) for h in heuristics]
    records: list[ExperimentRecord] = []
    for descriptor in datasets:
        if not Path(descriptor.path).is_file():
            log.warning("experiment 3: dataset %s missing at %s", descriptor.name, descriptor.path)
            records.append(
                ExperimentRecord(
                    experiment="3",
                    kind="skip",
                    graph_id=descriptor.name,
                    source=descriptor.name,
                    note=f"dataset missing: {descriptor.path}",
                )
            )
            continue
        g_full, _ = load_edge_list(descriptor.path)
        g, _ = load_edge_list(descriptor.path, giant=True)
        if verify_stats and descriptor.expected is not None:
            verify_dataset_stats(descriptor.name, g_full, g, descriptor.expected)
        profile = metric_profile(g)
        for h in heuristics:
            base = ExperimentRecord(
                experiment="3",
                graph_id=descriptor.name,
                source=descriptor.name,
                n=g.n,
                m=g.m,
                radius=profile.radius,
                diameter=profile.diameter,
                algorithm=h.value,
                seed=master_seed,
            )
            try:
                members, valid, elapsed = run_with_timeout(g, h, timeout_s)
            except RunTimedOut:
                records.append(replace(base, note="timeout"))
                continue
            records.append(
                replace(
                    base,
                    output_size=len(members),
                    valid=valid,
                    elapsed_ms=elapsed * 1000.0,
                )
            )
    write_csv(
        out,
        records,
        {
            "experiment": "3",
            "master-seed": str(master_seed),
            "datasets": ",".join(d.name for d in datasets),
            "timeout-s": "none" if timeout_s is None else f"{timeout_s:.0f}",
            "heuristics": ",".join(h.value for h in heuristics),
        },
        timings=timings,
    )
    return records


# ---------------------------------------------------------------------------
# experiments 4 and 5: diameter reduction

def _delta_record(experiment, graph_id, source, g, profile, alg, delta, seed, report: DeltaReport, elapsed):
    return ExperimentRecord(
        experiment=experiment,
        graph_id=graph_id,
        source=source,
        n=g.n,
        m=g.m,
        radius=profile.radius,
        diameter=profile.diameter,
        algorithm=alg,
        edges_added=report.edges_added,
        delta=delta,
        achieved_diameter=report.achieved_diameter,
        seed=seed,
        elapsed_ms=elapsed * 1000.0,
    )


def run_experiment_4(
    out: str | Path,
    *,
    models: Sequence[str] = (BA, NWS),
    sizes: Sequence[int] = (100, 200, 400),
    count: int = 10,
    master_seed: int = 4,
    timings: bool = False,
) -> list[ExperimentRecord]:
    """Edges needed to shrink random graphs' diameter by one, both heuristics."""
    records: list[ExperimentRecord] = []
    for graph_id, params, g in _iter_graphs(models, sizes, count, master_seed):
        profile = metric_profile(g)
        delta = profile.diameter - 1
        if delta < 2:
            records.append(
                ExperimentRecord(
                    experiment="4",
                    kind="skip",
                    graph_id=graph_id,
                    source=params.model,
                    n=g.n,
                    diameter=profile.diameter,
                    seed=params.seed,
                    note="diameter too small to reduce",
                )
            )
            continue
        for alg, fn in (("periphery", periphery_algorithm), ("cp", cp_algorithm)):
            t0 = time.perf_counter()
            report = fn(g, delta, params.seed)
            elapsed = time.perf_counter() - t0
            records.append(
                _delta_record("4", graph_id, params.model, g, profile, alg, delta, params.seed, report, elapsed)
            )
    write_csv(
        out,
        records,
        {
            "experiment": "4",
            "master-seed": str(master_seed),
            "seed-split": "splitmix64(master-seed, graph-index)",
            "models": _models_metadata(models),
            "sizes": ",".join(str(s) for s in sizes),
            "per-cell": str(count),
        },
        timings=timings,
    )
    return records


def run_experiment_5(
    out: str | Path,
    datasets: Sequence[DatasetDescriptor],
    *,
    i_range: Sequence[int] = (1, 2, 3, 4),
    master_seed: int = 5,
    verify_stats: bool = False,
    timings: bool = False,
) -> list[ExperimentRecord]:
    """Edges needed to shrink real datasets' diameter by i, for each i in range."""
    records: list[ExperimentRecord] = []
    run_index = 0
    for descriptor in datasets:
        if not Path(descriptor.path).is_file():
            log.warning("experiment 5: dataset %s missing at %s", descriptor.name, descriptor.path)
            records.append(
                ExperimentRecord(
                    experiment="5",
                    kind="skip",
                    graph_id=descriptor.name,
                    source=descriptor.name,
                    note=f"dataset missing: {descriptor.path}",
                )
            )
            continue
        g_full, _ = load_edge_list(descriptor.path)
        g, _ = load_edge_list(descriptor.path, giant=True)
        if verify_stats and descriptor.expected is not None:
            verify_dataset_stats(descriptor.name, g_full, g, descriptor.expected)
        profile = metric_profile(g)
        for i in i_range:
            delta = profile.diameter - i
            graph_id = f"{descriptor.name}-i{i}"
            if delta < 2:
                records.append(
                    ExperimentRecord(
                        experiment="5",
                        kind="skip",
                        graph_id=graph_id,
                        source=descriptor.name,
                        n=g.n,
                        diameter=profile.diameter,
                        note=f"delta {delta} below 2",
                    )
                )
                continue
            seed = split_seed(master_seed, run_index)
            run_index += 1
            for alg, fn in (("periphery", periphery_algorithm), ("cp", cp_algorithm)):
                t0 = time.perf_counter()
                report = fn(g, delta, seed)
                elapsed = time.perf_counter() - t0
                records.append(
                    _delta_record("5", graph_id, descriptor.name, g, profile, alg, delta, seed, report, elapsed)
                )
    write_csv(
        out,
        records,
        {
            "experiment": "5",
            "master-seed": str(master_seed),
            "seed-split": "splitmix64(master-seed, run-index)",
            "datasets": ",".join(d.name for d in datasets),
            "i-range": ",".join(str(i) for i in i_range),
        },
        timings=timings,
    )
    return records
