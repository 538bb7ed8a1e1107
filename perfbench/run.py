#!/usr/bin/env python3
"""The intalg benchmark: four workloads, end-to-end metrics, and a traced
run for per-layer metrics.

    python3 perfbench/run.py --workload search-homog --seed 1 --seconds 20 --trace 0

Run from the repository root.  The workload runs in this one process as a
closed loop with one client: whole passes over the seeded task list until
--seconds of task time have been measured, and at least three passes.
Each pass gets freshly built inputs (built outside the timed region), so
nothing cached on them carries over.  A short fixed loop (the probe) is
timed between consecutive tasks, and every attempt's wall time is scaled
to a reference host speed by the probes around it; a task's latency is
the median of its scaled attempts.  Every answer is re-verified (see
checks.py) and compared with the answer recorded for its task in
expected.json; any failure makes the run exit 1.  The last line of standard output is a JSON
object with the keys correct, attempted, failed and metrics: the
end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
Per-task rows, the full report and (traced) the spans go to perfbench/out/.

--trace 1 runs untraced and traced passes in turn, three of each, whatever
--seconds says: the per-layer metrics come from the first traced pass, the
others must repeat its counts exactly, and trace.overhead_ratio is the
summed per-task median scaled traced latency over the untraced one.
cli-calls calls cli.main(argv) in-process in all six passes.
"""

from __future__ import annotations

import argparse
import gc
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

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

DEFAULT_SEED = 1  # expected.json records the answer digests of this seed
TRACE_ROUNDS = 3  # untraced and traced passes, interleaved
# The probe: PROBE_REPEATS runs of a fixed loop of integer arithmetic and
# small-object churn over PROBE_DATA, the fastest of which counts.  Wall
# times are reported at the host speed at which it takes PROBE_REF_MS.
PROBE_DATA = tuple((i * 7919 % 1000, i) for i in range(1500))
PROBE_REPEATS = 3
PROBE_REF_MS = 1.0
SETUP_PROBES = 7
IMPORT_PROBES = 5
PROBE_TIMEOUT_S = 120
TAIL_BEYOND = 10
MIN_PASSES = 3  # a median of 3 or more attempts; every answer compared across calls

END_TO_END_UNITS = {
    "tasks_per_s": "1/s",
    "task_p50_ms": "ms",
    "task_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# Per-layer metric -> (end-to-end metric it should move, workload).
LAYER_METRICS = {
    "search.find_sextuple.self_ms": ("ms", "task_tail_ms, tasks_per_s on search-homog"),
    "search.find_quadruple.self_ms": ("ms", "task_tail_ms, tasks_per_s on search-homog"),
    "search.ell_matrix.self_ms": ("ms", "task_tail_ms, tasks_per_s on search-homog"),
    "search.pigeonhole_state.self_ms": ("ms", "task_tail_ms, tasks_per_s on search-homog"),
    "search.flatten.self_ms": ("ms", "task_tail_ms, tasks_per_s on search-homog"),
    "search.candidate_evals": ("count", "task_tail_ms, tasks_per_s on search-homog"),
    "search.exhausted": ("count", "task_tail_ms, tasks_per_s on search-homog"),
    "homogeneity.EllMatrix.ell_vec.calls": ("count", "task_tail_ms, tasks_per_s on search-homog"),
    "homogeneity.check_semi_homogeneous.calls": ("count", "task_tail_ms, tasks_per_s on partition-extract"),
    "homogeneity.partition_accept_ratio": ("ratio", "task_tail_ms, tasks_per_s on partition-extract"),
    "homogeneity.find_partitioning_set.self_ms": ("ms", "task_tail_ms, tasks_per_s on partition-extract"),
    "homogeneity.find_partitioning_set.capacity_errors": ("count", "task_tail_ms, tasks_per_s on partition-extract"),
    "homogeneity.check_homogeneous.calls": ("count", "task_tail_ms, tasks_per_s on partition-extract"),
    "homogeneity.check_homogeneous.self_ms": ("ms", "task_tail_ms, tasks_per_s on partition-extract"),
    "homogeneity.extract_semi_homogeneous.self_ms": ("ms", "task_tail_ms, tasks_per_s on partition-extract"),
    "homogeneity.gen_homogeneous.self_ms": ("ms", "setup_s on search-homog"),
    "algebra.meet.calls": ("count", "tasks_per_s, task_p50_ms on kernel-queries, then partition-extract"),
    "algebra.join.calls": ("count", "tasks_per_s, task_p50_ms on kernel-queries, then partition-extract"),
    "algebra.symdiff.calls": ("count", "tasks_per_s, task_p50_ms on kernel-queries, then partition-extract"),
    "algebra.complement.calls": ("count", "tasks_per_s, task_p50_ms on kernel-queries, then partition-extract"),
    "algebra.restrict.calls": ("count", "tasks_per_s, task_p50_ms on kernel-queries, then partition-extract"),
    "algebra.self_ms": ("ms", "tasks_per_s, task_p50_ms on kernel-queries, then partition-extract"),
    "terms.evaluate.calls": ("count", "tasks_per_s, task_p50_ms on kernel-queries, then partition-extract"),
    "terms.evaluate.self_ms": ("ms", "tasks_per_s, task_p50_ms on kernel-queries, then partition-extract"),
    "product.prod_eval.calls": ("count", "tasks_per_s, task_p50_ms on kernel-queries"),
    "product.prod_eval.self_ms": ("ms", "tasks_per_s, task_p50_ms on kernel-queries"),
    "product.is_independent.calls": ("count", "tasks_per_s, task_p50_ms on kernel-queries"),
    "product.is_independent.self_ms": ("ms", "tasks_per_s, task_p50_ms on kernel-queries"),
    "product.is_independent.meets_per_call": ("count", "tasks_per_s, task_p50_ms on kernel-queries"),
    "product.Family.from_dict.self_ms": ("ms", "task_p50_ms on cli-calls"),
    "triples.verify_triples.self_ms": ("ms", "tasks_per_s, task_p50_ms on kernel-queries"),
    "triples.triples_checked": ("count", "tasks_per_s, task_p50_ms on kernel-queries"),
    "cli.import_ms": ("ms", "task_p50_ms on cli-calls, setup_s on every workload"),
    "cli.call_ms": ("ms", "task_p50_ms on cli-calls"),
    "cli.main.self_ms": ("ms", "task_p50_ms on cli-calls"),
    "cli.write_atomic.self_ms": ("ms", "task_p50_ms on cli-calls"),
    "cli.bytes_out": ("count", "task_p50_ms on cli-calls"),
    "trace.overhead_ratio": ("ratio", "none: traced over untraced task time"),
}


def import_intalg():
    """Put this checkout's src/ first on the path and import intalg from
    it; exit 1 without a result when the sources are not there."""
    if not os.path.isfile(os.path.join(SRC, "intalg", "__init__.py")):
        sys.exit(f"perfbench: no intalg sources under {SRC}")
    sys.path.insert(0, SRC)
    import intalg

    if not os.path.abspath(intalg.__file__).startswith(SRC + os.sep):
        sys.exit(f"perfbench: imported intalg from {intalg.__file__}, not {SRC}")


def calib_ms() -> float:
    """A fixed stdlib-only loop; its time shows host speed drift."""
    t0 = time.perf_counter_ns()
    acc = 0
    for i in range(300_000):
        acc = (acc * 31 + i) % 1_000_003
    return (time.perf_counter_ns() - t0) / 1e6


def median_calib() -> float:
    return statistics.median(calib_ms() for _ in range(3))


def probe_ms() -> float:
    """The fastest of PROBE_REPEATS runs of a short fixed loop: host speed
    right now, robust to a single preemption.  Like the program, the loop
    does arithmetic and allocates, groups and sorts small objects."""
    best = math.inf
    for _ in range(PROBE_REPEATS):
        t0 = time.perf_counter_ns()
        acc, groups = 0, {}
        for key, i in PROBE_DATA:
            acc = (acc * 31 + i) % 1_000_003
            groups.setdefault(key, []).append((i, acc))
        sorted(groups.items())
        best = min(best, time.perf_counter_ns() - t0)
    return best / 1e6


def scaled_ms(wall_ns, before_ms, after_ms) -> float:
    """Wall time in ms at the reference host speed: the share of a shared
    host this process gets swings by up to 2x within seconds, and the
    probes just before and after the work show by how much."""
    return wall_ns / 1e6 * PROBE_REF_MS / ((before_ms + after_ms) / 2)


def _child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    return env


def timed_child(argv):
    """(wall seconds, scaled seconds) of one child process."""
    from workloads import run_child

    before = probe_ms()
    t0 = time.perf_counter_ns()
    code, _, _ = run_child(
        argv, PROBE_TIMEOUT_S, env=_child_env(), cwd=ROOT, stdout=subprocess.DEVNULL
    )
    elapsed = time.perf_counter_ns() - t0
    if code != 0:
        raise subprocess.CalledProcessError(code, argv)
    return elapsed / 1e9, scaled_ms(elapsed, before, probe_ms()) / 1e3


def git_sha():
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def src_digest() -> str:
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "intalg")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as handle:
                h.update(name.encode() + b"\0" + handle.read())
    return h.hexdigest()[:16]


def tail(values):
    """(percentile, value): the highest whole percentile with at least
    TAIL_BEYOND values above its nearest-rank position."""
    ordered = sorted(values)
    n = len(ordered)
    for q in range(99, 0, -1):
        rank = math.ceil(q * n / 100)
        if n - rank >= TAIL_BEYOND:
            return q, ordered[rank - 1]
    return 100, ordered[-1]


def recorded():
    with open(os.path.join(HERE, "expected.json")) as handle:
        return json.load(handle)


class Ledger:
    """Every task attempt: latency, answer, verdict."""

    def __init__(self, workload, expected):
        self.workload = workload
        self.expected = expected  # task id -> the invariant part of its answer
        self.first = {}  # task id -> answer of its first attempt
        self.latencies = {}  # task id -> [wall ns]
        self.scaled = {}  # task id -> [scaled ms]
        self.rows = []
        self.failures = []

    @property
    def attempted(self):
        return len(self.rows)

    def execute(self, tasks, tracer=None):
        """Run every task once, with a probe between consecutive tasks:
        [(task, raw, error, wall ns, scaled ms)]."""
        results = []
        before = probe_ms()
        for task in tasks:
            error = None
            t0 = time.perf_counter_ns()
            try:
                raw = task.run() if tracer is None else tracer.root("task", task.run)
            except Exception as exc:  # a crash is a failed task, not a dead run
                raw, error = None, f"{type(exc).__name__}: {exc}"
            latency = time.perf_counter_ns() - t0
            after = probe_ms()
            results.append((task, raw, error, latency, scaled_ms(latency, before, after)))
            before = after
        return results

    def judge(self, results, label) -> dict:
        """Check every answer; returns {task id: scaled ms}.  Runs with
        tracing off, so the checks' own calls are not counted."""
        latencies = {}
        for task, raw, error, latency, scaled in results:
            latencies[task.id] = scaled
            if error is None:
                try:
                    answer, error = task.check(raw)
                except Exception as exc:
                    answer, error = None, f"check raised {type(exc).__name__}: {exc}"
            else:
                answer = {"raised": error}
            if task.id not in self.first:
                self.first[task.id] = answer
            elif error is None and answer != self.first[task.id]:
                error = f"answer differs from the first attempt: {self.first[task.id]}"
            if error is None:
                got = json.loads(json.dumps(task.invariant(answer)))
                want = self.expected.get(task.id, "nothing")
                if got != want:
                    error = f"answer {got} differs from the recorded {want}"
            self.latencies.setdefault(task.id, []).append(latency)
            self.scaled.setdefault(task.id, []).append(scaled)
            self.rows.append(
                {
                    "task": task.id,
                    "workload": self.workload,
                    "pass": label,
                    "latency_ms": latency / 1e6,
                    "scaled_ms": scaled,
                    "answer": answer,
                    "error": error,
                }
            )
            if error is not None:
                self.failures.append({"task": task.id, "pass": label, "error": error})
        return latencies

    def digest(self):
        import checks

        return checks.digest(sorted(self.first.items()))


def build(workload, seed, inproc):
    import workloads

    workdir = os.path.join(OUT, f"work-{workload}-{seed}")
    return workloads.WORKLOADS[workload](seed, workdir, inproc)


def end_to_end(ledger, workload, seed):
    """Each task's latency is the median of its scaled attempts."""
    per_task = [statistics.median(v) for v in ledger.scaled.values()]
    all_ms = [ns / 1e6 for v in ledger.latencies.values() for ns in v]
    q, tail_ms = tail(per_task)
    if workload == "cli-calls":
        peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    wall, setup = zip(*(
        timed_child([sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                     "--seed", str(seed), "--setup-only"])
        for _ in range(SETUP_PROBES)
    ))
    metrics = {
        "tasks_per_s": len(per_task) / (sum(per_task) / 1e3),
        "task_p50_ms": statistics.median(per_task),
        "task_tail_ms": tail_ms,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": peak_kb / 1024,
    }
    passes = len(all_ms) // len(per_task)
    notes = {
        "tasks_per_s": f"scaled; wall time over all {len(all_ms)} attempts "
                       f"{len(all_ms) / (sum(all_ms) / 1e3):.6g} 1/s",
        "task_p50_ms": f"scaled, median of {passes} attempts per task; wall time over "
                       f"all attempts {statistics.median(all_ms):.6g} ms",
        "task_tail_ms": f"p{q} of {len(per_task)} per-task scaled latencies "
                        f"({len(per_task) - math.ceil(q * len(per_task) / 100)} tasks beyond it)",
        "setup_s": f"scaled, median of {SETUP_PROBES} fresh interpreters; wall "
                   f"{[round(s, 4) for s in wall]}",
        "peak_rss_mb": "largest child process" if workload == "cli-calls" else "this process",
    }
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()}, notes


def task_time(passes):
    """Summed over tasks, each task's median scaled latency in these passes."""
    return sum(statistics.median(p[task] for p in passes) for task in passes[0])


def traced_passes(ledger, workload, seed):
    """Untraced and traced passes in turn, so host drift hits both."""
    import tracing
    from workloads import CliResult

    untraced, traced, summaries = [], [], []
    spans = None
    for i in range(1, TRACE_ROUNDS + 1):
        tasks, _ = build(workload, seed, inproc=True)
        gc.collect()
        untraced.append(ledger.judge(ledger.execute(tasks), f"untraced-{i}"))
        tracer = tracing.Tracer()
        tracer.install()
        try:
            tasks, _ = tracer.root("setup", lambda: build(workload, seed, inproc=True))
            gc.collect()
            results = ledger.execute(tasks, tracer)
        finally:
            tracer.uninstall()
        summary = tracer.summary()
        traced.append(ledger.judge(results, f"traced-{i}"))
        summary["counts"]["cli.bytes_out"] = sum(
            len(raw.out) for _, raw, *_ in results if isinstance(raw, CliResult)
        )
        summaries.append(summary)
        if spans is None:
            spans = tracer.dump()
    first = summaries[0]
    diff = {
        k: [s["counts"].get(k) for s in summaries]
        for k in sorted(set().union(*(s["counts"] for s in summaries)))
        if len({s["counts"].get(k) for s in summaries}) > 1
    }
    return first, diff, spans, task_time(traced) / task_time(untraced)


def layer_metrics(summary, overhead):
    counts, self_ms, total_ms = summary["counts"], summary["self_ms"], summary["total_ms"]

    def ratio(a, b):
        return a / b if b else 0.0

    bare = []
    imported = []
    for _ in range(IMPORT_PROBES):
        bare.append(timed_child([sys.executable, "-c", "pass"])[0])
        imported.append(timed_child([sys.executable, "-c", "import intalg.cli"])[0])
    values = {
        "algebra.self_ms": sum(v for k, v in self_ms.items() if k.startswith("algebra.")),
        "homogeneity.partition_accept_ratio": ratio(
            counts.get("homogeneity.check_semi_homogeneous.accepted", 0),
            counts.get("homogeneity.check_semi_homogeneous.calls", 0),
        ),
        "product.is_independent.meets_per_call": ratio(
            counts.get("product.is_independent.meets", 0),
            counts.get("product.is_independent.calls", 0),
        ),
        "cli.import_ms": (statistics.median(imported) - statistics.median(bare)) * 1e3,
        "cli.call_ms": ratio(total_ms.get("cli.main", 0.0), counts.get("cli.main.calls", 0)),
        "trace.overhead_ratio": overhead,
    }
    metrics = {}
    for name, (unit, _) in LAYER_METRICS.items():
        if name in values:
            value = values[name]
        elif name.endswith(".self_ms"):
            value = self_ms.get(name[: -len(".self_ms")], 0.0)
        else:
            value = counts.get(name, 0)
        metrics[name] = {"value": value, "unit": unit}
    return metrics


def environment(workload, seed, sizes):
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu_count": os.cpu_count(),
        "git_sha": git_sha(),
        "src_sha256": src_digest(),
        "workload": workload,
        "seed": seed,
        "inputs": sizes,
    }


def check_digest(digests, workload, seed, digest):
    """Compare the digest of all answers with the recorded one, if any."""
    want = digests.get(str(seed), {}).get(workload)
    if want is None:
        return f"not checked: digests are recorded for seed(s) {', '.join(sorted(digests))}"
    return "match" if want == digest else f"MISMATCH: recorded {want}"


def write_json(name, obj):
    with open(os.path.join(OUT, name), "w") as handle:
        json.dump(obj, handle, sort_keys=True)
        handle.write("\n")


def parse_args(argv=None):
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="build the inputs and exit (times setup_s)")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    import_intalg()
    args = parse_args(argv)
    os.makedirs(OUT, exist_ok=True)
    if args.setup_only:
        build(args.workload, args.seed, inproc=False)
        return 0

    calib_start = median_calib()
    expected = recorded()
    _, sizes = build(args.workload, args.seed, inproc=bool(args.trace))
    ledger = Ledger(args.workload, expected["answers"][args.workload])
    tag = f"{args.workload}-seed{args.seed}"
    report = {"notes": {}}
    if args.trace:
        summary, diff, spans, overhead = traced_passes(ledger, args.workload, args.seed)
        metrics = layer_metrics(summary, overhead)
        report.update(
            summary=summary,
            counts_repeat=diff or "identical",
            layer_map={k: v[1] for k, v in LAYER_METRICS.items()},
        )
        write_json(f"{tag}-spans.json", spans)
        passes = 2 * TRACE_ROUNDS
    else:
        measured, passes = 0, 0
        while passes < MIN_PASSES or measured < args.seconds * 1e9:
            tasks, _ = build(args.workload, args.seed, inproc=False)
            gc.collect()  # the previous pass's garbage is not collected inside this one
            results = ledger.execute(tasks)
            ledger.judge(results, f"pass-{passes}")
            measured += sum(latency for _, _, _, latency, _ in results)
            passes += 1
        metrics, report["notes"] = end_to_end(ledger, args.workload, args.seed)

    digest = ledger.digest()
    recorded_digest = check_digest(expected["digests"], args.workload, args.seed, digest)
    env = environment(args.workload, args.seed, sizes)
    env["host.calib_ms"] = {"start": calib_start, "end": median_calib()}
    attempted = ledger.attempted
    failed = len({(f["task"], f["pass"]) for f in ledger.failures})
    if recorded_digest.startswith("MISMATCH"):
        failed = min(attempted, failed + 1)
        ledger.failures.append(
            {"task": "*", "pass": "*", "error": f"answer digest {recorded_digest}"}
        )
    report.update(
        env=env, metrics=metrics, passes=passes, distinct_tasks=len(ledger.first),
        attempted=attempted, failed=failed, fail_ratio=failed / attempted,
        answer_digest=digest, recorded_digest=recorded_digest, failures=ledger.failures[:50],
    )
    write_json(f"{tag}-trace{args.trace}.json", report)
    with open(os.path.join(OUT, f"{tag}-trace{args.trace}-tasks.jsonl"), "w") as handle:
        for row in ledger.rows:
            handle.write(json.dumps(row, sort_keys=True) + "\n")

    print(f"env {json.dumps(env, sort_keys=True)}")
    for name, m in metrics.items():
        note = report["notes"].get(name)
        print(f"{name} {m['value']:.6g} {m['unit']}" + (f"  [{note}]" if note else ""))
    print(f"fail_ratio {failed / attempted:.6g} ratio  [{failed} failed of {attempted} attempted]")
    print(f"answers digest {digest} ({recorded_digest}); "
          f"{passes} pass(es) over {len(ledger.first)} tasks")
    if args.trace:
        print(f"counts_repeat {json.dumps(report['counts_repeat'], sort_keys=True)}")
    for f in ledger.failures[:10]:
        print(f"FAILED {f['task']} [{f['pass']}]: {f['error']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
