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
import errno
import io
import itertools
import logging
import os
import signal
from dataclasses import astuple, dataclass, fields
from pathlib import Path
from statistics import fmean
from typing import Sequence

from . import __version__
from .broker import AlgorithmReport, BrokerHeuristic, _fill_untimed, brute_force_min_broker, run_heuristic
from .datasets import KNOWN_STATS, DatasetDescriptor, NetworkStats, load_edge_list
from .diameter import REDUCTIONS
from .generators import BA, NWS, RandomModelParams, generate
from .graph import CapExceededError, Graph, GraphError, _integer, _size_cap, largest_connected_component, metric_profile

log = logging.getLogger(__name__)

DEFAULT_TIMEOUT_S = 600.0
ORACLE_MAX_N = 14  # experiment 2's largest graph: the exhaustive oracle is exponential in n

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

        return [
            "" if name == "elapsed_ms" and not timings else cell(getattr(self, name)) for name in CSV_COLUMNS
        ]


# the CSV header: the record's fields in declaration order
CSV_COLUMNS = tuple(f.name for f in fields(ExperimentRecord))


def write_csv(
    path: str | Path,
    records: Sequence[ExperimentRecord],
    metadata: dict[str, str],
    *,
    timings: bool = False,
) -> None:
    """Write records under a '#' metadata block.

    Detail and skip rows come first, sorted by (graph_id, algorithm); the
    summary rows follow in the order given, which :func:`_summaries` sets.
    """
    ordered = sorted(
        (r for r in records if r.kind != "summary"),
        key=lambda r: (r.graph_id, r.algorithm),
    ) + [r for r in records if r.kind == "summary"]
    buf = io.StringIO()
    buf.write(f"# tool: tieset {__version__}\n")
    for key, value in metadata.items():
        buf.write(f"# {key}: {value}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for record in ordered:
        writer.writerow(record.row(timings=timings))
    Path(path).write_text(buf.getvalue(), encoding="utf-8", newline="")


def _check_out(out) -> None:
    """Refuse an output path whose folder does not exist, or that is a directory, with the error writing it raises."""
    if not Path(out).parent.is_dir():
        raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), str(out))
    if Path(out).is_dir():
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(out))


def _require(name: str, values: Sequence) -> None:
    """Refuse an empty list, or one that names a value twice, before any graph is drawn or read."""
    if not values:
        raise GraphError(f"{name} must not be empty")
    if repeated := [value for i, value in enumerate(values) if value in values[:i]]:
        raise GraphError(f"{name} must not repeat {repeated[0]}")


def _graph_record(experiment, graph_id, source, g, **columns) -> ExperimentRecord:
    """A detail row carrying the graph's size, radius and diameter."""
    profile = metric_profile(g)
    return ExperimentRecord(
        experiment=experiment,
        graph_id=graph_id,
        source=source,
        n=g.n,
        m=g.m,
        radius=profile.radius,
        diameter=profile.diameter,
        **columns,
    )


def _summaries(records, keys: tuple[str, ...], aggregate) -> list[ExperimentRecord]:
    """One summary row per group of detail rows that agree on ``keys``, in key order."""
    groups: dict[tuple, list[ExperimentRecord]] = {}
    for r in records:
        if r.kind == "detail":
            groups.setdefault(tuple(getattr(r, k) for k in keys), []).append(r)
    return [
        ExperimentRecord(
            experiment=rows[0].experiment,
            kind="summary",
            **dict(zip(keys, key)),
            group_size=len(rows),
            **aggregate(rows),
        )
        for key, rows in sorted(groups.items())
    ]


def _run_generated(
    out, experiment, rows, metadata, models, sizes, count, master_seed, timings, summary=None
) -> list[ExperimentRecord]:
    """Shared loop of experiments 1, 2 and 4 over seeded generated graphs.

    Graphs come in a fixed order (model, size, index in the cell), the k-th
    with seed ``split_seed(master_seed, k)``.  The parameters of every graph
    are built first, so an invalid (model, size) cell raises
    :class:`GraphError`, and an output folder that does not exist
    ``FileNotFoundError``, before the first graph is drawn.  The ``models``
    '#' line holds the labels of those parameters.  ``rows(graph_id,
    params, g)`` gives each graph's rows; ``summary`` is a (group keys,
    aggregate) pair for :func:`_summaries`.  ``metadata`` follows the shared
    '#' lines.
    """
    _integer(master_seed, "master seed")
    _require("models", models)
    _require("sizes", sizes)
    _integer(count, "graph count per cell", 1)
    draws = {
        f"{model}-n{n}-{j:03d}": RandomModelParams(model, n, split_seed(master_seed, index))
        for index, (model, n, j) in enumerate(itertools.product(models, sizes, range(count)))
    }
    _check_out(out)
    records = [record for graph_id, params in draws.items() for record in rows(graph_id, params, generate(params))]
    if summary is not None:
        records.extend(_summaries(records, *summary))
    shared = {
        "experiment": experiment,
        "master-seed": str(master_seed),
        "seed-split": "splitmix64(master-seed, graph-index)",
        "models": ", ".join(dict.fromkeys(params.label() for params in draws.values())),
        "sizes": ",".join(str(s) for s in sizes),
        "per-cell": str(count),
    }
    write_csv(out, records, shared | metadata, timings=timings)
    return records


def _skip(experiment, graph_id, source, note, **columns) -> ExperimentRecord:
    """A skip row: no algorithm ran on the graph, for the reason ``note``."""
    return ExperimentRecord(
        experiment=experiment, kind="skip", graph_id=graph_id, source=source, note=note, **columns
    )


class _Expired(BaseException):
    """Raised by the SIGALRM handler of :func:`run_with_timeout`; not an ``Exception``, so no run swallows it."""


def _expire(signum, frame):
    raise _Expired


def run_with_timeout(g: Graph, heuristic: BrokerHeuristic, timeout_s: float | None) -> AlgorithmReport | None:
    """Run a heuristic with verification under a wall-clock budget and return its report, or None.

    Every run is made in this process.  With ``timeout_s`` None it is
    :func:`run_heuristic` itself.  Otherwise what the heuristic and its
    verification read outside the timer (the metric profile, the coverage
    balls and, for ``btw``/``s-btw``, the whole-graph betweenness; see
    ``broker._fill_untimed``) is first kept on ``g``, so the budget covers
    only the heuristic and its verification.  The budget is an
    ``ITIMER_REAL`` timer whose SIGALRM handler raises a private
    ``BaseException``: a run it cuts returns None, and an error inside the
    run propagates as it is.  The timer is disarmed and the previous
    SIGALRM handler restored on every path.  ``signal.signal`` works only
    in the main thread, so a budget must be set from there.  A name that is
    not a :class:`BrokerHeuristic` raises ValueError on both paths.
    """
    heuristic = BrokerHeuristic(heuristic)
    if timeout_s is None:
        return run_heuristic(g, heuristic)
    _fill_untimed(g, heuristic, verify=True)
    previous = signal.signal(signal.SIGALRM, _expire)
    try:
        try:
            signal.setitimer(signal.ITIMER_REAL, timeout_s)
            return run_heuristic(g, heuristic)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except _Expired:
        return None
    finally:
        signal.signal(signal.SIGALRM, previous)


def _heuristic_rows(experiment, heuristics, graph_id, source, seed, g, timeout_s=None, **columns):
    """One row per heuristic run on ``g`` by :func:`run_with_timeout`; a blown budget (None) gives a timeout row."""
    rows = []
    for h in heuristics:
        report = run_with_timeout(g, h, timeout_s)
        outcome = dict(note="timeout")
        if report is not None:
            outcome = dict(output_size=report.size, valid=report.valid, elapsed_ms=report.elapsed * 1000.0)
        record = _graph_record(experiment, graph_id, source, g, algorithm=h.value, seed=seed, **outcome, **columns)
        rows.append(record)
    return rows


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
    _require("heuristics", [h.value for h in heuristics])

    def rows(graph_id, params, g):
        return _heuristic_rows("1", heuristics, graph_id, params.model, params.seed, g)

    def mean_size(group):
        return {"mean_output_size": fmean(r.output_size for r in group)}

    metadata = {"heuristics": ",".join(h.value for h in heuristics)}
    summary = (("source", "n", "radius", "algorithm"), mean_size)
    return _run_generated(out, "1", rows, metadata, models, sizes, count, master_seed, timings, summary)


# ---------------------------------------------------------------------------
# experiment 2: optimality rates against the brute-force oracle

def run_experiment_2(
    out: str | Path,
    *,
    models: Sequence[str] = (BA, NWS),
    sizes: Sequence[int] = (8, 10, 12),
    count: int = 25,
    heuristics: Sequence[BrokerHeuristic | str] = tuple(BrokerHeuristic),
    master_seed: int = 1,
    oracle_cap: int = 8,
    timings: bool = False,
) -> list[ExperimentRecord]:
    """Fraction of graphs on which each heuristic matches the exact minimum.

    Restricted to sizes where the exhaustive oracle is feasible; graphs whose
    oracle search exceeds ``oracle_cap`` are skipped with a reason row.  An
    ``oracle_cap`` below 1 raises :class:`GraphError` before any graph is drawn.
    """
    heuristics = [BrokerHeuristic(h) for h in heuristics]
    _require("heuristics", [h.value for h in heuristics])
    if any(n > ORACLE_MAX_N for n in sizes):
        raise GraphError(f"experiment 2 sizes must stay <= {ORACLE_MAX_N} for the oracle")
    _size_cap(oracle_cap, ORACLE_MAX_N)  # refuses a cap below 1 first, as the oracle would

    def rows(graph_id, params, g):
        try:
            optimal = len(brute_force_min_broker(g, size_cap=oracle_cap))
        except CapExceededError:
            log.warning("experiment 2: oracle cap exceeded on %s, skipping", graph_id)
            note = f"oracle cap {oracle_cap} exceeded"
            return [_skip("2", graph_id, params.model, note, n=g.n, m=g.m, seed=params.seed)]
        return _heuristic_rows("2", heuristics, graph_id, params.model, params.seed, g, optimal_size=optimal)

    def hit_rate(group):
        return {"optimality_rate": sum(r.output_size == r.optimal_size for r in group) / len(group)}

    metadata = {"oracle-cap": str(oracle_cap), "heuristics": ",".join(h.value for h in heuristics)}
    summary = (("source", "algorithm"), hit_rate)
    return _run_generated(out, "2", rows, metadata, models, sizes, count, master_seed, timings, summary)


# ---------------------------------------------------------------------------
# experiment 3: heuristics on real datasets

def _giant(d: DatasetDescriptor, verify_stats: bool) -> Graph:
    """The largest component of dataset ``d``; if ``verify_stats``, checked against the
    published stats of its name (``KNOWN_STATS``, case-insensitive), when it has any.
    """
    g_full, _ = load_edge_list(d.path)
    g, _ = largest_connected_component(g_full)
    if verify_stats and (expected := KNOWN_STATS.get(d.name.lower())) is not None:
        profile = metric_profile(g)
        observed = NetworkStats(g_full.n, g_full.m, g.n, profile.diameter, profile.radius)
        if observed != expected:
            raise GraphError(
                f"dataset {d.name}: stats {astuple(observed)} do not match published {astuple(expected)} "
                "(n, m, lcc_n, diameter, radius)"
            )
    return g


def _run_datasets(
    out, experiment, datasets, rows, metadata, master_seed, verify_stats, timings
) -> list[ExperimentRecord]:
    """Shared loop of experiments 3 and 5 over edge-list datasets.

    A name that holds a ',' or a character that is not printable, which
    would break the '#' block, raises :class:`GraphError`, and an output
    folder that does not exist ``FileNotFoundError``, before any dataset is
    read.  Then every dataset is read before the first ``rows`` call: a
    path that does not exist gives a skip row, and any other is parsed once
    (a directory or an unreadable file raises ``OSError``) and cut to its
    largest component g, the only graph kept.  With ``verify_stats``, a
    dataset with published stats that its data and g do not match raises
    :class:`GraphError`.  ``rows(name, g)`` gives g's rows, and g is dropped
    once they are built.  ``metadata`` follows the experiment and
    master-seed '#' lines.
    """
    _integer(master_seed, "master seed")
    _require("datasets", [d.name for d in datasets])
    if bad := [d.name for d in datasets if "," in d.name or not d.name.isprintable()]:
        raise GraphError(f"dataset name {bad[0]!r} must not hold a ',' or a character that is not printable")
    _check_out(out)
    graphs = {d.name: _giant(d, verify_stats) for d in datasets if Path(d.path).exists()}
    records: list[ExperimentRecord] = []
    for d in datasets:
        if d.name in graphs:
            records.extend(rows(d.name, graphs.pop(d.name)))
        else:
            log.warning("experiment %s: dataset %s missing at %s", experiment, d.name, d.path)
            records.append(_skip(experiment, d.name, d.name, f"dataset missing: {d.path}"))
    shared = {"experiment": experiment, "master-seed": str(master_seed)}
    write_csv(out, records, shared | metadata, timings=timings)
    return records


def run_experiment_3(
    out: str | Path,
    datasets: Sequence[DatasetDescriptor] = (),
    *,
    heuristics: Sequence[BrokerHeuristic | str] = tuple(BrokerHeuristic),
    timeout_s: float | None = DEFAULT_TIMEOUT_S,
    verify_stats: bool = False,
    master_seed: int = 1,
    timings: bool = False,
) -> list[ExperimentRecord]:
    """Broker-set sizes on real edge-list datasets (giant component).

    ``datasets`` must name at least one dataset: the default, none, raises
    :class:`GraphError`.  A dataset path that does not exist is skipped with
    a reason row.  Each (dataset, heuristic) run goes through
    :func:`run_with_timeout`, in this process as in experiments 1 and 2 but
    under ``timeout_s``, so the profile and the betweenness are computed
    once per dataset, outside every budget, and a blown budget is a
    ``timeout`` row.  An error inside a run propagates as it is, and a
    budget must be set from the main thread.  The budget is written in full
    ('0.0001'), or ``none``.  A ``timeout_s`` other than None or in
    (0, 2147483.647] raises :class:`GraphError` first.  The bound is the
    CLI's contract; ``signal.setitimer`` takes 1e9 s, but raises
    ``OverflowError`` ("timestamp out of range for platform time_t") at
    1e12 s, an error :func:`cli.main` maps to no exit code.
    """
    if timeout_s is not None and not 0 < timeout_s <= 2_147_483.647:
        raise GraphError(f"timeout must be none or in (0, 2147483.647] seconds, got {timeout_s}")
    heuristics = [BrokerHeuristic(h) for h in heuristics]
    _require("heuristics", [h.value for h in heuristics])

    def rows(name, g):
        return _heuristic_rows("3", heuristics, name, name, master_seed, g, timeout_s)

    metadata = {
        "datasets": ",".join(d.name for d in datasets),
        "timeout-s": "none" if timeout_s is None else f"{timeout_s:.12g}",
        "heuristics": ",".join(h.value for h in heuristics),
    }
    return _run_datasets(out, "3", datasets, rows, metadata, master_seed, verify_stats, timings)


# ---------------------------------------------------------------------------
# experiments 4 and 5: diameter reduction

def _reduction_rows(experiment, graph_id, source, g, delta, seed) -> list[ExperimentRecord]:
    """One row each for ``periphery`` then ``cp`` reducing ``g`` to diameter ``delta``."""
    rows = []
    for alg, fn in REDUCTIONS.items():
        report = fn(g, delta, seed)
        rows.append(
            _graph_record(
                experiment,
                graph_id,
                source,
                g,
                algorithm=alg,
                edges_added=report.edges_added,
                delta=delta,
                achieved_diameter=report.achieved_diameter,
                seed=seed,
                elapsed_ms=report.elapsed * 1000.0,
            )
        )
    return rows


def run_experiment_4(
    out: str | Path,
    *,
    models: Sequence[str] = (BA, NWS),
    sizes: Sequence[int] = (100, 200, 400),
    count: int = 10,
    master_seed: int = 1,
    timings: bool = False,
) -> list[ExperimentRecord]:
    """Edges needed to shrink random graphs' diameter by one, both heuristics."""

    def rows(graph_id, params, g):
        diameter = metric_profile(g).diameter
        delta = diameter - 1
        if delta < 2:
            note = "diameter too small to reduce"
            return [_skip("4", graph_id, params.model, note, n=g.n, diameter=diameter, seed=params.seed)]
        return _reduction_rows("4", graph_id, params.model, g, delta, params.seed)

    return _run_generated(out, "4", rows, {}, models, sizes, count, master_seed, timings)


def run_experiment_5(
    out: str | Path,
    datasets: Sequence[DatasetDescriptor] = (),
    *,
    i_range: Sequence[int] = (1, 2, 3, 4),
    master_seed: int = 1,
    verify_stats: bool = False,
    timings: bool = False,
) -> list[ExperimentRecord]:
    """Edges needed to shrink real datasets' diameter by i, for each i in range.

    ``datasets`` must name at least one dataset: the default, none, raises
    :class:`GraphError`, as do a negative i and an i or master seed that is
    not an integer, before any dataset is read.
    A dataset path that does not exist is skipped with a reason row.
    """
    _require("i-range", i_range)
    for i in sorted(i_range):  # ascending, so a refusal names the minimum
        _integer(i, "--i-range values", 0)
    # the k-th run that is not skipped, over all datasets, gets split_seed(master_seed, k)
    seeds = (split_seed(master_seed, k) for k in itertools.count())

    def rows(name, g):
        diameter = metric_profile(g).diameter
        records = []
        for i in i_range:
            delta = diameter - i
            graph_id = f"{name}-i{i}"
            if delta < 2:
                records.append(_skip("5", graph_id, name, f"delta {delta} below 2", n=g.n, diameter=diameter))
            else:
                records.extend(_reduction_rows("5", graph_id, name, g, delta, next(seeds)))
        return records

    metadata = {
        "seed-split": "splitmix64(master-seed, run-index)",
        "datasets": ",".join(d.name for d in datasets),
        "i-range": ",".join(str(i) for i in i_range),
    }
    return _run_datasets(out, "5", datasets, rows, metadata, master_seed, verify_stats, timings)
