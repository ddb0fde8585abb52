"""Seeded, layered benchmark of tieset.

Run from the repository root:

    python3 perfbench/run.py --workload centering --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1      # every workload, one interpreter each
    python3 perfbench/run.py --workload oracle --record   # rewrite that workload's reference digests

With ``--trace 0`` the workload's job list runs repeatedly for about
``--seconds`` seconds (at least once) and the end-to-end metrics are
reported.  Their times are rescaled to a reference machine speed: between
jobs the benchmark times a fixed probe (a pure-Python arithmetic loop), and
each job's measured time is multiplied by REFERENCE_PROBE_S over the probe
time measured around it.  The measured times are printed beside the
rescaled ones.  With ``--trace 1`` it runs once untraced and once with every
listed tieset function wrapped, and the per-layer metrics are reported.
Every job's output is digested and compared with the digests recorded in
``perfbench/reference/``; a job fails if it raises, breaks an invariant or
differs from its reference.  The last line of stdout is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = Path(".perfbench_out")        # relative to ROOT, the working directory
REFERENCE = HERE / "reference"
INSTANCES = 16                      # --seed selects instance seed % INSTANCES
SETUP_SECONDS = 1.0                 # set-up repeats until this long (3 to 25 times)
DIGEST_CHARS = 8
# The speed probe.  On a shared VM the same work takes up to 1.5x longer in
# slow phases that last from seconds to minutes, and CPU time stretches with
# wall time, so raw times of ten runs spread by 15-20% (IQR over median).
# Scaling each job by a fixed arithmetic loop timed around it cut the spread
# of metric_profile and betweenness times over 16 s windows from 0.10 to
# 0.04; a BFS probe tracked them less well.
PROBE_LOOPS = 30_000
PROBE_INTERVAL_S = 0.25             # probe after the job that ends this long after the last probe
REFERENCE_PROBE_S = 0.003           # the probe's median time on the 2-vCPU VM the bounds were set on

END_TO_END = (
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)
# Printed and kept in the stamp, but left out of the result's metrics.  With
# at most a few hundred jobs per pass, each percentile is one job whose cost
# depends on the seed: the median falls between clusters of job costs (fast heuristics
# below, betweenness and profiles above), and p90 on reduction is the second
# slowest of six BA reductions, whose round count follows the seeded picks.
# Over ten seeds p50 spread by 0.67 on centering and p90 by 0.21 on
# reduction, too close to or beyond the largest allowed bound (0.25).
PRINTED_ONLY = (("job_s_p50", "s"), ("job_s_p90", "s"))
TRACE_TIMES = (("trace.wall_s", "s"), ("trace.untraced_wall_s", "s"), ("trace.overhead_s", "s"))


def import_tieset() -> None:
    src = ROOT / "src"
    if not (src / "tieset" / "__init__.py").is_file():
        sys.exit(f"perfbench: tieset sources not found under {src}")
    sys.path.insert(0, str(src))


def cpu_seconds() -> float:
    """User plus system time of this process and of its waited-for children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def digest(output) -> str:
    text = json.dumps(output, separators=(",", ":"), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:DIGEST_CHARS]


def percentile(values: list[float], q: int) -> float:
    """Nearest-rank q-th percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered) / 100) - 1)]


def probe_seconds() -> float:
    """Median of three timings of a fixed arithmetic loop, independent of tieset."""
    samples = []
    for _ in range(3):
        t0 = time.perf_counter()
        total = 0
        for i in range(PROBE_LOOPS):
            total += i * i
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


@dataclass
class Pass:
    """One run of a workload's job list.  Per-job lists are in job order."""

    job_s: list[float]      # measured wall seconds
    job_cpu_s: list[float]  # measured CPU seconds, waited-for children included
    scale: list[float]      # REFERENCE_PROBE_S over the probe time around the job
    digests: list[str]
    failures: list[str] = field(default_factory=list)

    @property
    def wall(self) -> float:
        return sum(t * k for t, k in zip(self.job_s, self.scale))

    @property
    def cpu(self) -> float:
        return sum(t * k for t, k in zip(self.job_cpu_s, self.scale))

    @property
    def scaled_job_s(self) -> list[float]:
        return [t * k for t, k in zip(self.job_s, self.scale)]


def run_jobs(jobs, expected: list[str] | None) -> Pass:
    """Run every job once, timing each; ``expected`` None skips the reference check."""
    result = Pass([], [], [], [])
    last_probe = probe_seconds()
    probed_at = time.perf_counter()
    unscaled = 0
    for i, job in enumerate(jobs):
        c0 = cpu_seconds()
        t0 = time.perf_counter()
        try:
            output, ok = job.run()
            reason = None if ok else "invariant violated"
        except Exception as exc:  # a failing job is counted, the run goes on
            output, reason = None, f"raised {exc!r}"
        result.job_s.append(time.perf_counter() - t0)
        result.job_cpu_s.append(cpu_seconds() - c0)
        d = digest(output)
        result.digests.append(d)
        if reason is None and expected is not None and (i >= len(expected) or expected[i] != d):
            reason = "output differs from reference"
        if reason:
            result.failures.append(f"{job.name}: {reason}")
        unscaled += 1
        if i == len(jobs) - 1 or time.perf_counter() - probed_at >= PROBE_INTERVAL_S:
            probe = probe_seconds()
            result.scale.extend([2 * REFERENCE_PROBE_S / (last_probe + probe)] * unscaled)
            last_probe, probed_at, unscaled = probe, time.perf_counter(), 0
    return result


def reference_path(workload: str) -> Path:
    return REFERENCE / f"{workload}.json"


def load_expected(workload: str, inst: int) -> list[str]:
    path = reference_path(workload)
    if not path.is_file():
        return []
    text = json.loads(path.read_text(encoding="utf-8")).get(str(inst), "")
    return [text[i:i + DIGEST_CHARS] for i in range(0, len(text), DIGEST_CHARS)]


def git_sha() -> str:
    """Commit of the checkout, read from .git without running git; 'unknown' outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def measure(setup, inst: int, workdir: Path, seconds: float, expected) -> tuple[dict, list[Pass], dict]:
    setup_s, setup_scaled = [], []
    while len(setup_s) < 3 or (sum(setup_s) < SETUP_SECONDS and len(setup_s) < 25):
        before = probe_seconds()
        t0 = time.perf_counter()
        jobs = setup(inst, workdir)
        setup_s.append(time.perf_counter() - t0)
        setup_scaled.append(setup_s[-1] * 2 * REFERENCE_PROBE_S / (before + probe_seconds()))
    passes = []
    t_begin = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        passes.append(run_jobs(jobs, expected))
        # stop before a further pass would overrun the measuring time
        if 2 * time.perf_counter() - t0 - t_begin > seconds:
            break
    job_s = [t for p in passes for t in p.scaled_job_s]
    values = {
        "wall_s": statistics.median(p.wall for p in passes),
        "cpu_s": statistics.median(p.cpu for p in passes),
        "job_s_p50": percentile(job_s, 50),
        "job_s_p90": percentile(job_s, 90),
        "setup_s": statistics.median(setup_scaled),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    measured = {
        "wall_s": statistics.median(sum(p.job_s) for p in passes),
        "cpu_s": statistics.median(sum(p.job_cpu_s) for p in passes),
        "job_s_p50": percentile([t for p in passes for t in p.job_s], 50),
        "job_s_p90": percentile([t for p in passes for t in p.job_s], 90),
        "setup_s": statistics.median(setup_s),
    }
    samples = {
        "passes": len(passes),
        "job_samples": len(job_s),
        "setup_samples": len(setup_s),
        "speed": statistics.median(k for p in passes for k in p.scale),
        "measured": measured,
    }
    return values, passes, samples


def trace(setup, inst: int, workdir: Path, expected, spans_stem: Path) -> tuple[dict, list[Pass], dict]:
    from tracer import Tracer

    untraced = run_jobs(setup(inst, workdir), expected)
    tracer = Tracer()
    tracer.install()
    try:
        origin = time.perf_counter()
        jobs = setup(inst, workdir)  # traced too, so generators.* and write_edge_list count
        traced = run_jobs(jobs, expected)
    finally:
        tracer.uninstall()
    # span times are measured seconds, so these are too
    values = tracer.metrics()
    values["trace.wall_s"] = sum(traced.job_s)
    values["trace.untraced_wall_s"] = sum(untraced.job_s)
    values["trace.overhead_s"] = values["trace.wall_s"] - values["trace.untraced_wall_s"]
    tracer.write_spans(spans_stem, origin)
    return values, [untraced, traced], {"spans": len(tracer.start), "spans_file": str(spans_stem) + ".bin"}


def run_workload(args) -> int:
    from workloads import WORKLOADS

    setup = WORKLOADS[args.workload]
    inst = args.seed % INSTANCES
    workdir = OUT / args.workload
    workdir.mkdir(parents=True, exist_ok=True)
    expected = load_expected(args.workload, inst)
    if args.trace:
        from tracer import per_layer_names

        units = dict(per_layer_names() + list(TRACE_TIMES))
        printed_only = {}
        values, passes, samples = trace(setup, inst, workdir, expected, OUT / f"spans-{args.workload}")
    else:
        units = dict(END_TO_END)
        printed_only = dict(PRINTED_ONLY)
        values, passes, samples = measure(setup, inst, workdir, args.seconds, expected)
        samples.update({name: values[name] for name in printed_only})
    attempted = sum(len(p.job_s) for p in passes)
    failures = [f for p in passes for f in p.failures]
    stamp = {
        "workload": args.workload,
        "seed": args.seed,
        "instance": inst,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_sha": git_sha(),
        **samples,
    }
    print(f"# perfbench {args.workload}: seed {args.seed} (instance {inst}), trace {args.trace}")
    if not args.trace:
        print(f"# times at reference speed; this machine ran at {samples['speed']:.3f} of it")
    for name, unit in {**units, **printed_only}.items():
        note = ""
        if name in samples.get("measured", {}):
            note = f"  (measured {samples['measured'][name]:.6g} {unit})"
        if name.startswith("job_s_"):
            note += f"  ({samples['job_samples']} jobs over {samples['passes']} passes)"
        print(f"{name:<44} {values[name]:>14.6g} {unit}{note}")
    print(f"{'failed_frac':<44} {len(failures) / attempted:>14.6g}  ({len(failures)}/{attempted} jobs)")
    for failure in failures[:10]:
        print(f"FAILED {failure}")
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    (OUT / f"result-{args.workload}-trace{args.trace}.json").write_text(
        json.dumps({"stamp": stamp, "failures": failures, **result}, indent=1) + "\n", encoding="utf-8"
    )
    print(json.dumps({"stamp": stamp}))
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in a fresh interpreter, so peak memory is per workload."""
    from workloads import WORKLOADS

    status = 0
    for name in WORKLOADS:
        argv = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, capture_output=True, text=True, check=False)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines or not json.loads(lines[-1]).get("correct"):
            status = 1
    return status


def record(args) -> int:
    """Record the reference digests of every instance, refusing outputs that break an invariant."""
    from workloads import WORKLOADS

    setup = WORKLOADS[args.workload]
    workdir = OUT / args.workload
    workdir.mkdir(parents=True, exist_ok=True)
    recorded = {}
    for inst in range(INSTANCES):
        result = run_jobs(setup(inst, workdir), None)
        if result.failures:
            print("\n".join(result.failures), file=sys.stderr)
            return 1
        recorded[str(inst)] = "".join(result.digests)
        print(f"{args.workload} instance {inst}: {len(result.digests)} jobs, {result.wall:.2f} s", flush=True)
    REFERENCE.mkdir(exist_ok=True)
    reference_path(args.workload).write_text(json.dumps(recorded, indent=1) + "\n", encoding="utf-8")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=["centering", "reduction", "oracle", "experiment", "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--record", action="store_true", help="rewrite the workload's reference digests")
    args = parser.parse_args(argv)
    os.chdir(ROOT)
    import_tieset()
    if args.workload == "all":
        return run_all(args)
    if args.record:
        return record(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
