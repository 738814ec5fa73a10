"""skeinmod benchmark: four closed-loop workloads, one caller, no threads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root (or any checkout of it); the library is
imported from ``src/`` next to this directory, so nothing needs installing.

--trace 0 measures the end-to-end metrics: set-up time (median over five
fresh processes), then timed passes over the seeded task list for about S
seconds, reporting the median pass time, percentiles of the per-task median
latencies, and peak memory. Every time is wall time scaled to a nominal
machine speed that a calibration chunk measures around it (see speed.py);
raw wall time is printed too. --trace 1 runs one untraced and one traced
pass over the same list, reports the per-layer metrics and the tracing
overhead, and writes the spans under ``.perfbench/``.

Every task's output is checked outside the timer (property checks for any
seed, golden digests for the golden seed), and the last line of standard
output is one JSON object: correct, attempted, failed, metrics. The exit
code is 0 only when every task passed.

The golden digests are re-recorded with
``python3 -c "import sys; sys.path[:0] = ['src', 'perfbench']; import run; run.record_golden()"``.
"""

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback

import speed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench")
GOLDEN_DIR = os.path.join(HERE, "golden")
GOLDEN_SEED = 1
SETUP_SAMPLES = 5  # fresh processes timed for setup_s
WORKLOADS = ("seifert-census", "boundary-rewrite", "handle-slide-quotient", "cli-queries")


def _import_workloads():
    """Import the library from this checkout's ``src/`` and nowhere else."""
    package = os.path.join(SRC, "skeinmod", "__init__.py")
    if not os.path.isfile(package):
        raise SystemExit("perfbench: no library sources at %s" % package)
    for path in (HERE, SRC):
        if path not in sys.path:
            sys.path.insert(0, path)
    import skeinmod
    import workloads

    if os.path.abspath(skeinmod.__file__) != package:
        raise SystemExit("perfbench: imported skeinmod from %s, not %s" % (skeinmod.__file__, package))
    return workloads


def setup(workload, seed):
    """Import the library, build the task list and warm the lazy tables.
    Returns (speed-scaled seconds taken, workloads module, task list)."""
    meter = speed.Speedometer()
    for _ in range(8):  # the first chunks of a fresh process run cold; keep the last five
        meter.sample(force=True)
    del meter.times[:3], meter.chunks[:3]
    start = time.perf_counter()
    workloads = _import_workloads()
    tasks = workloads.REGISTRY[workload].tasks(seed)
    workloads.warm_up()
    end = time.perf_counter()
    for _ in range(5):
        meter.sample(force=True)
    return (end - start) * meter.factor(start, end), workloads, tasks


def _setup_samples(workload, seed, count):
    samples = []
    for _ in range(count):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--setup-only",
             "--workload", workload, "--seed", str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return samples


class PassResult:
    def __init__(self, seconds, wall, latencies, outputs, errors):
        self.seconds = seconds  # speed-scaled sum of task latencies
        self.wall = wall
        self.latencies = latencies  # speed-scaled, per task
        self.outputs = outputs
        self.errors = errors  # task index -> message, for tasks that raised


def run_pass(wl, tasks, meter, tracer=None):
    """One timed pass over the task list; a task that raises is recorded
    and the pass goes on. Calibration chunks run between tasks, outside
    every task's timer."""
    outputs = [None] * len(tasks)
    spans = [None] * len(tasks)
    errors = {}
    clock = time.perf_counter
    started = clock()
    for idx, task in enumerate(tasks):
        meter.sample()
        if tracer is not None:
            tracer.task = idx
        t0 = clock()
        try:
            outputs[idx] = wl.run(task)
        except Exception:
            errors[idx] = traceback.format_exc(limit=3)
        spans[idx] = (t0, clock())
    wall = clock() - started
    meter.sample(force=True)
    latencies = [(t1 - t0) * meter.factor(t0, t1) for t0, t1 in spans]
    return PassResult(sum(latencies), wall, latencies, outputs, errors)


def _digests(wl, tasks, result):
    return [
        None if idx in result.errors else wl.digest(task, out)
        for idx, (task, out) in enumerate(zip(tasks, result.outputs))
    ]


def _outputs_sha(digests):
    return hashlib.sha256("\n".join(str(d) for d in digests).encode("utf-8")).hexdigest()


def _golden(workload):
    path = os.path.join(GOLDEN_DIR, workload + ".json")
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def check_pass(wl, workload, seed, tasks, result, digests):
    """Failures of one pass, outside the timer: raised tasks, property
    checks, cross-task checks, and golden digests on the golden seed."""
    failures = dict(result.errors)
    for idx, (task, out) in enumerate(zip(tasks, result.outputs)):
        if idx in failures:
            continue
        try:
            problem = wl.check(task, out)
        except Exception:
            problem = "check raised: " + traceback.format_exc(limit=3)
        if problem:
            failures[idx] = problem
    for n, problem in enumerate(wl.check_list(tasks, result.outputs), 1):
        failures[-n] = problem
    if seed == GOLDEN_SEED:
        golden = _golden(workload)
        for idx, (got, want) in enumerate(zip(digests, golden["digests"])):
            if got != want and idx not in failures:
                failures[idx] = "digest differs from the golden output"
    return failures


def _report_failures(failures, tasks):
    for idx, problem in sorted(failures.items())[:5]:
        task = tasks[idx] if 0 <= idx < len(tasks) else "(task list)"
        print("FAILED %r: %s" % (task, problem.strip()), file=sys.stderr)


def measure(workload, seed, seconds, trace, limit=None, setup_samples=SETUP_SAMPLES):
    """Run the benchmark in this process and return the result object."""
    own_setup, workloads, tasks = setup(workload, seed)
    if limit is not None:
        tasks = tasks[:limit]
    wl = workloads.REGISTRY[workload]
    if not trace:
        setups = [own_setup] + _setup_samples(workload, seed, setup_samples - 1)

    meter = speed.Speedometer()
    first = run_pass(wl, tasks, meter)
    reference = _digests(wl, tasks, first)
    failures = check_pass(wl, workload, seed, tasks, first, reference)
    attempted, failed = len(tasks), len(failures)
    _report_failures(failures, tasks)
    first.outputs = None  # so peak memory does not grow with the number of passes

    if trace:
        import tracer as tracer_module

        tr = tracer_module.Tracer()
        tr.install()
        try:
            traced = run_pass(wl, tasks, meter, tracer=tr)
        finally:
            tr.uninstall()
        traced_digests = _digests(wl, tasks, traced)
        attempted += len(tasks)
        failed += sum(1 for a, b in zip(reference, traced_digests) if a != b or b is None)
        same = _outputs_sha(traced_digests) == _outputs_sha(reference)
        print("outputs_sha256 untraced %s traced %s" % (_outputs_sha(reference), _outputs_sha(traced_digests)))
        os.makedirs(OUT_DIR, exist_ok=True)
        tr.write(os.path.join(OUT_DIR, "spans-%s-%d.gz" % (workload, seed)))
        metrics = tr.metrics()
        metrics["trace.overhead"] = (traced.seconds / first.seconds - 1, "ratio")
        correct = failed == 0 and same
    else:
        pass_times = [first.seconds]
        walls = [first.wall]
        per_task = [[lat] for lat in first.latencies]
        # start another pass while at least half of it fits in the window
        while sum(walls) + walls[-1] / 2 < seconds:
            result = run_pass(wl, tasks, meter)
            digests = _digests(wl, tasks, result)
            result.outputs = None
            bad = {i for i, (a, b) in enumerate(zip(reference, digests)) if a != b or b is None}
            attempted += len(tasks)
            failed += len(bad)
            pass_times.append(result.seconds)
            walls.append(result.wall)
            for samples, lat in zip(per_task, result.latencies):
                samples.append(lat)
        # each task's median over the passes, so one slow sample cannot
        # move the percentiles; p90 of >= 100 tasks has >= 10 beyond it
        latencies = [statistics.median(samples) for samples in per_task]
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "pass_s": (statistics.median(pass_times), "s"),
            "task_p50_ms": (statistics.median(latencies) * 1000, "ms"),
            "task_p90_ms": (statistics.quantiles(latencies, n=10, method="inclusive")[-1] * 1000, "ms"),
            "peak_rss_mb": (rss_kb / 1024, "MB"),
        }
        print("workload %s seed %d: %d tasks (one median latency each), %d passes, %d setup samples"
              % (workload, seed, len(tasks), len(pass_times), len(setups)))
        print("outputs_sha256 %s" % _outputs_sha(reference))
        print("pass wall time %.4f s median, before speed scaling" % statistics.median(walls))
        correct = failed == 0
    for name, (value, unit) in metrics.items():
        print("%-52s %14.6g %s" % (name, value, unit))
    print("%-52s %14.6g %s" % ("error_rate", failed / attempted, "ratio"))
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def record_golden(seed=GOLDEN_SEED):
    """Write the per-task output digests of every workload at the golden seed."""
    os.makedirs(GOLDEN_DIR, exist_ok=True)
    for workload in WORKLOADS:
        _, workloads, tasks = setup(workload, seed)
        wl = workloads.REGISTRY[workload]
        result = run_pass(wl, tasks, speed.Speedometer())
        if result.errors:
            raise RuntimeError("golden run of %s raised: %r" % (workload, result.errors))
        digests = _digests(wl, tasks, result)
        with open(os.path.join(GOLDEN_DIR, workload + ".json"), "w", encoding="utf-8") as fh:
            json.dump({"workload": workload, "seed": seed, "digests": digests}, fh, indent=0)
            fh.write("\n")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_only:
        seconds, _workloads, _tasks = setup(args.workload, args.seed)
        print(json.dumps({"setup_s": seconds}))
        return 0
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result, sort_keys=True))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
