import csv
import errno
import os
import pickle
import time

import pytest

from tieset import experiments, graph
from tieset.datasets import DatasetDescriptor, NetworkStats, write_edge_list
from tieset.experiments import (
    CSV_COLUMNS,
    ExperimentRecord,
    RunTimedOut,
    run_experiment_1,
    run_experiment_2,
    run_experiment_3,
    run_experiment_4,
    run_experiment_5,
    run_with_timeout,
    split_seed,
    write_csv,
)
from tieset.broker import BrokerHeuristic
from tieset.generators import BA, RandomModelParams, generate
from tieset.graph import GraphError

from util import _assert_no_child_left, open_descriptors, random_connected, star_graph


def _read_csv(path):
    lines = path.read_text().splitlines()
    meta = [l for l in lines if l.startswith("#")]
    rows = list(csv.reader(l for l in lines if not l.startswith("#")))
    return meta, rows[0], rows[1:]


def test_split_seed_is_stable_and_64bit():
    assert split_seed(0, 0) == split_seed(0, 0)
    assert split_seed(0, 0) != split_seed(0, 1) != split_seed(1, 1)
    for i in range(50):
        assert 0 <= split_seed(12345, i) < 2 ** 64


def test_experiment_1_row_accounting(tmp_path):
    out = tmp_path / "e1.csv"
    records = run_experiment_1(
        out, models=("ba",), sizes=(100,), count=10,
        heuristics=("max", "s-max"), master_seed=21,
    )
    details = [r for r in records if r.kind == "detail"]
    summaries = [r for r in records if r.kind == "summary"]
    assert len(details) == 20  # 10 graphs x 2 heuristics
    assert all(r.valid is True for r in details)
    assert summaries and all(r.mean_output_size is not None for r in summaries)
    meta, header, rows = _read_csv(out)
    assert header == list(CSV_COLUMNS)
    assert any("master-seed: 21" in l for l in meta)
    assert len(rows) == len(records)


def test_experiment_1_byte_identical_reruns(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    kwargs = dict(models=("ba", "nws"), sizes=(30,), count=3, master_seed=99)
    run_experiment_1(a, **kwargs)
    run_experiment_1(b, **kwargs)
    assert a.read_bytes() == b.read_bytes()


def test_experiment_1_hides_timings_by_default(tmp_path):
    out = tmp_path / "e1.csv"
    run_experiment_1(out, models=("ba",), sizes=(20,), count=2, heuristics=("max",), master_seed=3)
    _, header, rows = _read_csv(out)
    col = header.index("elapsed_ms")
    assert all(row[col] == "" for row in rows)
    run_experiment_1(out, models=("ba",), sizes=(20,), count=2, heuristics=("max",), master_seed=3, timings=True)
    _, _, rows = _read_csv(out)
    assert any(row[col] != "" for row in rows)


def test_experiment_2_rates_and_optimality(tmp_path):
    out = tmp_path / "e2.csv"
    records = run_experiment_2(out, models=("ba",), sizes=(8,), count=6, master_seed=5)
    details = [r for r in records if r.kind == "detail"]
    assert details
    for r in details:
        assert r.valid is True
        assert r.optimal_size is not None and r.optimal_size <= r.output_size
    rates = [r.optimality_rate for r in records if r.kind == "summary"]
    assert rates and all(0.0 <= rate <= 1.0 for rate in rates)


def test_experiment_2_skips_on_oracle_cap(tmp_path):
    out = tmp_path / "e2.csv"
    records = run_experiment_2(out, models=("ba",), sizes=(8,), count=3, master_seed=5, oracle_cap=1)
    assert records and all(r.kind == "skip" for r in records)
    assert all("cap" in r.note for r in records)


def test_experiment_2_rejects_oversized_graphs(tmp_path):
    with pytest.raises(GraphError):
        run_experiment_2(tmp_path / "x.csv", sizes=(20,), count=1)


def _dataset_file(tmp_path, n=24, extra=30, seed=8, name="tiny.txt"):
    g = random_connected(n, extra, seed)
    path = tmp_path / name
    write_edge_list(path, g)
    return path


def test_experiment_3_runs_datasets_and_skips_missing(tmp_path):
    out = tmp_path / "e3.csv"
    present = DatasetDescriptor("tiny", str(_dataset_file(tmp_path)))
    absent = DatasetDescriptor("ghost", str(tmp_path / "ghost.txt"))
    records = run_experiment_3(out, [present, absent], heuristics=("max", "center"), timeout_s=None)
    details = [r for r in records if r.kind == "detail"]
    skips = [r for r in records if r.kind == "skip"]
    assert len(details) == 2 and all(r.valid for r in details)
    assert len(skips) == 1 and "missing" in skips[0].note


def test_experiment_3_verifies_expected_stats(tmp_path):
    path = _dataset_file(tmp_path)
    bad = DatasetDescriptor("tiny", str(path), NetworkStats(n=1, m=1, lcc_n=1, diameter=1, radius=1))
    with pytest.raises(GraphError, match="do not match"):
        run_experiment_3(tmp_path / "e3.csv", [bad], heuristics=("max",), timeout_s=None, verify_stats=True)
    # without the flag the mismatch is ignored
    run_experiment_3(tmp_path / "e3b.csv", [bad], heuristics=("max",), timeout_s=None)


def test_experiment_3_computes_the_giant_component_profile_once(tmp_path, monkeypatch):
    full_passes = []
    kernel = graph._balls

    def counting(adj, keep=(), rounds=None):
        if not keep and rounds is None:
            full_passes.append(len(adj))
        return kernel(adj, keep, rounds)

    monkeypatch.setattr(graph, "_balls", counting)
    d = DatasetDescriptor("tiny", str(_dataset_file(tmp_path, n=60, extra=20)))
    records = run_experiment_3(tmp_path / "e3.csv", [d], heuristics=("max", "btw", "s-max", "center"), timeout_s=None)
    assert len(records) == 4 and all(r.valid for r in records) and records[0].radius > 1
    assert full_passes == [60]


def test_experiment_3_computes_the_whole_graph_betweenness_once_before_the_workers(tmp_path, monkeypatch):
    log = tmp_path / "passes.log"
    kernel = graph._brandes

    def logging_pass(n, adj, k=None):
        with open(log, "a") as f:  # the forked workers append here too
            f.write(f"{os.getpid()} {n}\n")
        return kernel(n, adj, k)

    monkeypatch.setattr(graph, "_brandes", logging_pass)
    g = generate(RandomModelParams(BA, 120, 7, ba_m=2))
    path = tmp_path / "ba.txt"
    write_edge_list(path, g)
    d = DatasetDescriptor("ba", str(path))
    records = run_experiment_3(tmp_path / "e3.csv", [d], heuristics=("btw", "s-btw"))
    assert len(records) == 2 and all(r.valid for r in records) and records[0].radius > 1
    passes = [line.split() for line in log.read_text().splitlines()]
    assert [pid for pid, n in passes if int(n) == g.n] == [str(os.getpid())]


@pytest.mark.parametrize("star, heuristics", [(False, ("max", "s-max")), (True, ("btw", "s-btw"))])
def test_experiment_3_skips_the_betweenness_pass_when_no_heuristic_reads_it(tmp_path, monkeypatch, star, heuristics):
    # a radius-1 graph's answer is every node, without ranking them
    path = tmp_path / "g.txt"
    write_edge_list(path, star_graph(12) if star else random_connected(24, 30, 8))
    monkeypatch.setattr(graph, "_brandes", lambda *args: pytest.fail("betweenness computed"))
    records = run_experiment_3(tmp_path / "e3.csv", [DatasetDescriptor("g", str(path))], heuristics=heuristics)
    assert len(records) == 2 and all(r.valid for r in records)


def test_experiment_3_records_timeouts(tmp_path, monkeypatch):
    out = tmp_path / "e3.csv"
    slow = DatasetDescriptor("slow", str(_dataset_file(tmp_path)))
    # the forked worker inherits the patch, so it outlives the budget however fast the machine
    monkeypatch.setattr(experiments, "run_heuristic", lambda *args, **kwargs: time.sleep(60))
    records = run_experiment_3(out, [slow], heuristics=("btw",), timeout_s=1e-4)
    assert [r.note for r in records if r.kind == "detail"] == ["timeout"]
    # a sub-second budget is written as itself, not rounded to 0 ("no budget")
    assert "# timeout-s: 0.0001" in _read_csv(out)[0]


def test_experiment_3_records_the_same_rows_in_process_and_in_workers(tmp_path):
    d = DatasetDescriptor("tiny", str(_dataset_file(tmp_path, n=60, extra=20)))
    run_experiment_3(tmp_path / "inline.csv", [d], timeout_s=None)
    run_experiment_3(tmp_path / "forked.csv", [d])
    inline = (tmp_path / "inline.csv").read_text().splitlines()
    forked = (tmp_path / "forked.csv").read_text().splitlines()
    differing = [(a, b) for a, b in zip(inline, forked) if a != b]
    assert len(inline) == len(forked) == 8 + 7
    assert differing == [("# timeout-s: none", "# timeout-s: 600")]


def test_run_with_timeout_passthrough_and_expiry(monkeypatch):
    g = random_connected(30, 20, 2)
    report = run_with_timeout(g, BrokerHeuristic.MAX, None)
    assert report.valid and report.size == len(report.s) >= 1
    # the forked worker inherits the patch, so it outlives any budget below a minute
    monkeypatch.setattr(experiments, "run_heuristic", lambda *args, **kwargs: time.sleep(60))
    t0 = time.monotonic()
    with pytest.raises(RunTimedOut, match=r"btw exceeded 0\.05s"):
        run_with_timeout(g, BrokerHeuristic.BTW, 0.05)
    assert time.monotonic() - t0 < 30
    _assert_no_child_left()


def test_run_with_timeout_returns_results_larger_than_the_pipe_buffer():
    # radius 1, so the set is every node: its pickle (~90 kB) overfills a 64 KiB pipe
    g = star_graph(30_000)
    report = run_with_timeout(g, BrokerHeuristic.MAX, 60.0)
    assert report.valid is True
    assert report.s.members == tuple(range(g.n))
    _assert_no_child_left()


def test_run_with_timeout_raises_when_the_worker_dies(monkeypatch):
    monkeypatch.setattr(experiments, "run_heuristic", lambda *args, **kwargs: os._exit(7))
    with pytest.raises(RuntimeError, match="exited with code 7"):
        run_with_timeout(random_connected(10, 5, 1), BrokerHeuristic.MAX, 30.0)
    _assert_no_child_left()


class Die:
    """Ends the process that pickles it, with status 5."""

    def __reduce__(self):
        os._exit(5)


def test_run_with_timeout_raises_when_the_worker_dies_mid_report(monkeypatch):
    # the worker writes more than a pipe buffer of its report, then exits: the pickle stops between opcodes
    monkeypatch.setattr(experiments, "run_heuristic", lambda *args, **kwargs: [bytes(300_000), Die()])
    with pytest.raises(RuntimeError, match="exited with code 5"):
        run_with_timeout(random_connected(10, 5, 1), BrokerHeuristic.MAX, 30.0)
    _assert_no_child_left()


def test_run_with_timeout_raises_when_the_report_ends_inside_a_value(monkeypatch):
    # the stream stops inside the bytes' payload, not between opcodes: UnpicklingError, not EOFError
    monkeypatch.setattr(experiments, "run_heuristic", lambda *args, **kwargs: bytes(300_000))
    monkeypatch.setattr(pickle, "dump", lambda obj, out: out.write(pickle.dumps(obj)[:150_000]))
    with pytest.raises(RuntimeError, match="exited with code 0 before sending a result"):
        run_with_timeout(random_connected(10, 5, 1), BrokerHeuristic.MAX, 30.0)
    _assert_no_child_left()


def test_run_with_timeout_raises_the_worker_error(monkeypatch):
    def failing(*args, **kwargs):
        raise GraphError("boom")

    monkeypatch.setattr(experiments, "run_heuristic", failing)
    with pytest.raises(RuntimeError, match=r"max failed in worker: GraphError\('boom'\)"):
        run_with_timeout(random_connected(10, 5, 1), BrokerHeuristic.MAX, 30.0)
    _assert_no_child_left()


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="counts descriptors in /proc/self/fd")
def test_run_with_timeout_failing_fork_raises_and_closes_every_pipe(monkeypatch):
    def refused():
        raise OSError(errno.EAGAIN, "fork refused")

    monkeypatch.setattr(os, "fork", refused)
    before = open_descriptors()
    with pytest.raises(OSError, match="fork refused"):
        run_with_timeout(random_connected(10, 5, 1), BrokerHeuristic.MAX, 30.0)
    assert open_descriptors() == before
    _assert_no_child_left()


@pytest.mark.parametrize("run", [run_experiment_1, run_experiment_2, run_experiment_4])
def test_empty_models_is_a_precondition_error(tmp_path, run):
    out = tmp_path / "x.csv"
    with pytest.raises(GraphError, match="models must not be empty"):
        run(out, models=())
    assert not out.exists()


def test_experiment_4_rows_reach_target(tmp_path):
    out = tmp_path / "e4.csv"
    records = run_experiment_4(out, models=("ba",), sizes=(40, 80), count=3, master_seed=17)
    details = [r for r in records if r.kind == "detail"]
    assert len(details) == 12  # 6 graphs x 2 algorithms
    for r in details:
        assert r.edges_added >= 1
        assert r.achieved_diameter <= r.delta
        assert r.algorithm in ("periphery", "cp")
    rerun = tmp_path / "e4b.csv"
    run_experiment_4(rerun, models=("ba",), sizes=(40, 80), count=3, master_seed=17)
    assert out.read_bytes() == rerun.read_bytes()


def test_experiment_5_iterates_reduction_depths(tmp_path):
    out = tmp_path / "e5.csv"
    d = DatasetDescriptor("tiny", str(_dataset_file(tmp_path, n=40, extra=10)))
    records = run_experiment_5(out, [d], i_range=(1, 2), master_seed=23)
    details = [r for r in records if r.kind == "detail"]
    assert {r.algorithm for r in details} <= {"periphery", "cp"}
    for r in details:
        assert r.achieved_diameter <= r.delta
    ids = {r.graph_id for r in details}
    assert ids == {"tiny-i1", "tiny-i2"}


def test_experiment_5_skips_deltas_below_two(tmp_path):
    out = tmp_path / "e5.csv"
    d = DatasetDescriptor("tiny", str(_dataset_file(tmp_path, n=14, extra=60, name="dense.txt")))
    records = run_experiment_5(out, [d], i_range=(1, 2, 3, 4), master_seed=23)
    assert any(r.kind == "skip" and "below 2" in r.note for r in records)


def test_write_csv_quotes_and_sorts(tmp_path):
    out = tmp_path / "q.csv"
    records = [
        ExperimentRecord(experiment="9", graph_id="b", algorithm="max"),
        ExperimentRecord(experiment="9", graph_id="a", algorithm="z,with comma", note='say "hi"'),
        ExperimentRecord(experiment="9", kind="summary", source="ba", algorithm="max", group_size=2),
    ]
    write_csv(out, records, {"k": "v"})
    meta, header, rows = _read_csv(out)
    assert rows[0][2] == "a" and rows[1][2] == "b"  # details sorted by graph id
    assert rows[-1][1] == "summary"
    assert rows[0][8] == "z,with comma"  # comma survives RFC-4180 quoting
    assert rows[0][-1] == 'say "hi"'
