"""Checks of the benchmark itself; run from the repository root.

    python3 perfbench/selftest.py                 # all workloads
    python3 perfbench/selftest.py oracle reduction

1. BENCHMARK.json names exactly the workloads and metrics that run.py emits.
2. A changed output counts as a failed job, even when it passes the
   invariant checks (the delta oracle is patched to answer with every node,
   which is delta-enabling but rarely minimum).
3. For each workload, two traced runs of the same seed report identical work
   counts, no failed job, and the dominant layer the workload was chosen for.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

SEED = 3
COUNT_SUFFIXES = (".calls", ".bfs_sources", ".arcs_computed", ".rounds", ".cover_picks",
                  ".subsets_tested", ".bytes")

# layer functions whose self time must be at least half of the traced pass
DOMINANT = {
    "centering": ("graph.betweenness",),
    "reduction": ("graph.metric_profile",),
    "oracle": ("graph.augment", "broker.is_broker_set", "diameter.is_delta_enabling"),
}

failures: list[str] = []


def check(ok: bool, what: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {what}", flush=True)
    if not ok:
        failures.append(what)


def check_declaration() -> None:
    from tracer import per_layer_names
    from workloads import WORKLOADS

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    check([w["name"] for w in spec["workloads"]] == list(WORKLOADS), "BENCHMARK.json lists the workloads")
    check([(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END),
          "BENCHMARK.json lists the end-to-end metrics")
    check([(m["name"], m["unit"]) for m in spec["per_layer"]] == per_layer_names() + list(run.TRACE_TIMES),
          "BENCHMARK.json lists the per-layer metrics")


def check_changed_output_fails() -> None:
    import workloads
    from tieset import diameter
    from tieset.graph import NodeSet

    workdir = run.OUT / "selftest"
    workdir.mkdir(parents=True, exist_ok=True)
    jobs = workloads.oracle(SEED % run.INSTANCES, workdir)
    expected = run.load_expected("oracle", SEED % run.INSTANCES)
    picked = [i for i, job in enumerate(jobs) if job.name.startswith("delta")]
    jobs = [jobs[i] for i in picked]
    expected = [expected[i] for i in picked]
    baseline = run.run_jobs(jobs, expected)
    check(not baseline.failures, "delta-oracle jobs match their reference")
    original = diameter.brute_force_min_delta_enabling
    diameter.brute_force_min_delta_enabling = lambda g, delta, size_cap=None: NodeSet(range(g.n))
    try:
        patched = run.run_jobs(jobs, expected)
    finally:
        diameter.brute_force_min_delta_enabling = original
    # the patched answer equals the true one where every node is needed
    changed = sum(a != b for a, b in zip(baseline.digests, patched.digests))
    caught = [f for f in patched.failures if f.endswith("output differs from reference")]
    check(changed > 0 and len(caught) == len(patched.failures) == changed,
          f"a changed output fails its job ({len(caught)} failed, {changed} of {len(jobs)} outputs changed)")


def traced(workload: str) -> dict:
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(SEED), "--trace", "1"]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"traced {workload} run exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_traced(workload: str) -> None:
    first, second = traced(workload), traced(workload)
    check(first["correct"] and second["correct"], f"{workload}: traced runs have no failed job")
    counts = [name for name in first["metrics"] if name.endswith(COUNT_SUFFIXES)]
    differing = [name for name in counts if first["metrics"][name] != second["metrics"][name]]
    check(not differing, f"{workload}: {len(counts)} work counts repeat exactly {differing or ''}")
    layers = DOMINANT.get(workload)
    if layers:
        metrics = first["metrics"]
        share = sum(metrics[f"{name}.self_s"]["value"] for name in layers) / metrics["trace.wall_s"]["value"]
        check(share >= 0.5, f"{workload}: {' + '.join(layers)} self time is {share:.0%} of the traced pass")


def main(argv: list[str]) -> int:
    os.chdir(ROOT)
    run.import_tieset()
    check_declaration()
    check_changed_output_fails()
    from workloads import WORKLOADS

    for workload in argv or list(WORKLOADS):
        check_traced(workload)
    print(f"{len(failures)} check(s) failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
