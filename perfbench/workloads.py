"""The four benchmark workloads: seeded inputs plus the fixed job list run on them.

A workload's ``setup`` generates every input from the instance number, writes
the edge-list files it needs under ``workdir`` and returns the job list.  A
job is one call a user would make; it returns the output that is digested
against the reference and whether the output passed the invariant checks
that hold whatever the reference says.

Calls go through the ``tieset`` modules' attributes (``graph.metric_profile``
rather than a name imported here), so the tracer's rebinding sees them.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from tieset import broker, cli, datasets, diameter, generators, graph

HEURISTICS = tuple(h.value for h in broker.BrokerHeuristic)


@dataclass(frozen=True)
class Job:
    name: str
    run: Callable[[], tuple[object, bool]]


def _seed(*key) -> int:
    # string seeds hash through sha512, so the value is the same in every process
    return random.Random(":".join(str(k) for k in key)).getrandbits(32)


def _ba(n, key, m=2):
    return generators.generate(generators.RandomModelParams(generators.BA, n, _seed(*key), ba_m=m))


def _nws(n, key, k=4, p=0.1):
    return generators.generate(generators.RandomModelParams(generators.NWS, n, _seed(*key), nws_k=k, nws_p=p))


def _members(s) -> list[int]:
    return sorted(s)


# ---------------------------------------------------------------------------
# centering: the paper's broker-set question
#
# Three graphs of each model at n=1000 rather than one at the ROADMAP
# baseline's n=2000: the cost of the greedy covers varies by graph, and with
# one graph per model the pass time spread by 0.115 over ten seeds, against
# under 0.08 with three.

CENTERING_N = 1000
CENTERING_GRAPHS = 3    # per model


def centering(inst: int, workdir: Path) -> list[Job]:
    files = []
    for model, make in (("ba", _ba), ("nws", _nws)):
        for i in range(CENTERING_GRAPHS):
            path = workdir / f"{model}{i}.txt"
            datasets.write_edge_list(path, make(CENTERING_N, ("centering", model, inst, i)))
            files.append((f"{model}{i}", path))
    jobs = []
    for name, path in files:
        loaded = {}

        def load(path=path, loaded=loaded):
            g, _ = datasets.load_edge_list(path, giant=True)
            p = graph.metric_profile(g)
            loaded["g"], loaded["profile"] = g, p
            out = [g.n, g.m, list(p.ecc), p.radius, p.diameter, _members(p.center), _members(p.periphery)]
            return out, True

        jobs.append(Job(f"{name}/load", load))
        for h in HEURISTICS:
            def heuristic(h=h, loaded=loaded):
                report = broker.run_heuristic(loaded["g"], h, verify=True, profile=loaded["profile"])
                return [_members(report.s), report.size, report.valid], report.valid is True

            jobs.append(Job(f"{name}/{h}", heuristic))
    return jobs


# ---------------------------------------------------------------------------
# reduction: periphery and cp at delta = diam - 1, each output re-checked
#
# The graphs are a fixed set and the seed picks only the heuristics' random
# choices.  A reduction's cost is set mostly by the graph's periphery: over
# random BA graphs its round count varies with a coefficient of variation of
# 0.45 to 1.3, against about 0.1 over seeds on one graph, so graphs drawn
# per seed would make run-to-run spread exceed any usable bound.

REDUCTION_N = 600
REDUCTION_GRAPHS = {"ba": 3, "nws": 5}


def reduction(inst: int, workdir: Path) -> list[Job]:
    jobs = []
    for model, make in (("ba", _ba), ("nws", _nws)):
        for i in range(REDUCTION_GRAPHS[model]):
            g = make(REDUCTION_N, ("reduction", model, i))
            delta = graph.metric_profile(g).diameter - 1
            seed = _seed("reduction", model, i, inst)
            for alg, fn_name in (("periphery", "periphery_algorithm"), ("cp", "cp_algorithm")):
                def reduce(g=g, delta=delta, seed=seed, fn_name=fn_name):
                    report = getattr(diameter, fn_name)(g, delta, seed)
                    ok = report.achieved_diameter <= delta and diameter.is_delta_enabling(g, report.s, delta)
                    out = [_members(report.s), report.edges_added, report.achieved_diameter, report.iterations]
                    return out, ok

                jobs.append(Job(f"{model}{i}/{alg}", reduce))
    return jobs


# ---------------------------------------------------------------------------
# oracle: exhaustive searches on tiny graphs, where per-call overhead dominates

ORACLE_GADGET = (10, 110)   # NWS(k=2, p=0.2) input size, gadgets per instance
ORACLE_DELTA = (12, 80)     # BA(m=2) size, graphs per instance


def oracle(inst: int, workdir: Path) -> list[Job]:
    jobs = []
    n, count = ORACLE_GADGET
    for i in range(count):
        g = _nws(n, ("oracle-gadget", inst, i), k=2, p=0.2)
        h, _ = generators.reduction_gadget(g)

        def gadget(g=g, h=h):
            s = broker.brute_force_min_broker(h)
            d = broker.brute_force_min_dominating(g)
            # the reduction theorem: the gadget's minimum broker set has the
            # size of the input's minimum dominating set
            return [_members(s), _members(d)], len(s) == len(d)

        jobs.append(Job(f"gadget{i}", gadget))
    n, count = ORACLE_DELTA
    for i in range(count):
        g = _ba(n, ("oracle-delta", inst, i))
        delta = max(2, graph.metric_profile(g).diameter - 1)  # the oracle needs delta >= 2

        def delta_enabling(g=g, delta=delta):
            s = diameter.brute_force_min_delta_enabling(g, delta)
            return _members(s), diameter.is_delta_enabling(g, s, delta)

        jobs.append(Job(f"delta{i}", delta_enabling))
    return jobs


# ---------------------------------------------------------------------------
# experiment: the CLI and the experiment harness on many small graphs

# Reduced sizes and counts at the CLI's default master seeds.  The runners
# draw their own graphs, and a graph's cost varies by radius and diameter
# class (a BA graph of radius 4 takes many more greedy picks than one of
# radius 5), so a master seed per workload seed would make the spread between
# runs exceed any usable bound.  The workload seed draws the graph files the
# other commands read.  Experiments 1 and 4 run one model and size per
# invocation, so no job is much longer than the probe interval the times
# are rescaled by.
EXPERIMENT_RUNS = (
    [(f"experiment1-{m}-n{n}", "1", ["--models", m, "--sizes", str(n), "--count", "8"])
     for m in ("ba", "nws") for n in (100, 200, 400)]
    + [("experiment2", "2", ["--sizes", "8,10,12", "--count", "25"])]
    + [(f"experiment4-{m}", "4", ["--models", m, "--sizes", "100,200", "--count", "2"]) for m in ("ba", "nws")]
)


def _cli(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


def _csv_rows(path: Path) -> list[dict[str, str]]:
    text = path.read_text(encoding="utf-8")
    body = [line for line in text.splitlines() if not line.startswith("#")]
    return list(csv.DictReader(body))


def _csv_ok(rows: list[dict[str, str]]) -> bool:
    for row in rows:
        if row["kind"] != "detail":
            continue
        if row["valid"] not in ("", "true"):
            return False
        if row["achieved_diameter"] and int(row["achieved_diameter"]) > int(row["delta"]):
            return False
    return True


def experiment(inst: int, workdir: Path) -> list[Job]:
    graphs = {
        "synth": _ba(500, ("experiment", "synth", inst)),
        "ba": _ba(400, ("experiment", "ba", inst)),
        "nws": _nws(300, ("experiment", "nws", inst)),
    }
    files = {name: workdir / f"{name}.txt" for name in graphs}
    for name, g in graphs.items():
        datasets.write_edge_list(files[name], g)
    nws_delta = graph.metric_profile(graphs["nws"]).diameter - 1

    def run_experiment(name, number, extra):
        out = workdir / f"{name}.csv"
        argv = ["experiment", number, "--out", str(out)] + extra

        def job():
            code, stdout = _cli(argv)
            digest = hashlib.sha256(out.read_bytes()).hexdigest()
            return [code, stdout, digest], code == 0 and _csv_ok(_csv_rows(out))

        return Job(name, job)

    def run_command(name, argv, check):
        def job():
            code, stdout = _cli(argv)
            return [code, stdout], code == 0 and check(stdout)

        return Job(name, job)

    def achieved_within(stdout):
        line = next(x for x in stdout.splitlines() if x.startswith("achieved diameter:"))
        return int(line.split(":")[1]) <= nws_delta

    return [run_experiment(*run) for run in EXPERIMENT_RUNS] + [
        run_experiment("experiment3", "3", ["--dataset", f"synth={files['synth']}"]),
        run_command("stats", ["stats", str(files["nws"])], lambda out: out.startswith("n: ")),
        run_command(
            "broker",
            ["broker", str(files["ba"]), "--alg", "imp-center", "--verify"],
            lambda out: "valid: true" in out,
        ),
        run_command(
            "diam",
            ["diam", str(files["nws"]), "--delta", str(nws_delta), "--alg", "cp", "--seed", str(inst)],
            achieved_within,
        ),
    ]


WORKLOADS = {
    "centering": centering,
    "reduction": reduction,
    "oracle": oracle,
    "experiment": experiment,
}
