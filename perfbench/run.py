"""Benchmark of the `delta2n` command line: wall time, CPU time and peak RSS.

    python3 perfbench/run.py --workload characters-n6 --seed 1 --seconds 10 --trace 0

Every measured run is a fresh `delta2n` CLI child process, because each
library layer memoizes in module-level state and a warm in-process repeat
would measure nothing.  Load is a closed loop with one client: the next child
starts only after the previous one has exited, and children keep starting
until --seconds have passed.  Each child's output is checked against the
goldens in goldens.json; a failed run counts toward `failed` and its timing
is discarded.

With --trace 1 the same untraced loop runs first, then one extra child runs
the CLI in-process under tracer.py, and the last line carries the per-layer
metrics instead of the end-to-end ones.  See README.md for the workloads and
the metric-to-layer map.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path
from typing import NamedTuple

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"

sys.path.insert(0, str(BENCH_DIR))
import gate  # noqa: E402
import tracer  # noqa: E402

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMBA_NUM_THREADS")
SETUP_CHILDREN = 8
# Every child is killed at this point, so a hung run still exits within 180 s.
RUN_DEADLINE_S = 165.0

# The shared host this benchmark was built on switches between a fast and a
# slow state for minutes at a time: the same characters-n6 child takes 3.4 s
# in one and 5.3 s in the other, and CPU time inflates as much as wall time.
# A state lasts longer than a run, so no statistic over a run's samples can
# remove it.  The parent therefore starts a bare interpreter right before and
# right after every child, and divides the child's times by the host speed
# factor h = mean(the two start-up times) / REF_NOMINAL_S: they read as
# seconds at the speed at which a bare start takes REF_NOMINAL_S.  The two
# vCPUs also drift apart for seconds at a time, so the probe only tracks the
# child when both run on the same CPU: the benchmark pins itself, and with it
# every child, to one CPU.  Raw times and h are printed and kept in the
# result file.
REFERENCE_CMD = (sys.executable, "-c", "pass")
REF_NOMINAL_S = 0.040


class Workload(NamedTuple):
    argv: tuple
    gate: str
    cache: str  # "none", "fresh" (new empty dir per child) or "warm" (filled in set-up)


# Why each workload was chosen: BENCHMARK.json and README.md.
WORKLOADS = {
    "characters-n6": Workload(("characters", "--n", "6", "--format", "json"), "characters-n6", "none"),
    "verify-n5": Workload(("verify", "--n", "5", "--format", "json"), "verify-n5", "none"),
    "complex-n7-cold": Workload(("complex", "--n", "7", "--format", "json"), "complex-n7", "fresh"),
    "complex-n7-warm": Workload(("complex", "--n", "7", "--format", "json"), "complex-n7", "warm"),
}

END_TO_END = (("wall_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MB"), ("setup_s", "s"))


class Child(NamedTuple):
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    h: float  # host speed factor around this child
    returncode: int
    stdout: str
    stderr: str


class Bench:
    """One benchmark run: the child environment, a scratch dir and the tallies."""

    def __init__(self, seed):
        self.seed = seed
        self.start = time.perf_counter()
        self.nproc = os.cpu_count()
        self.cpu = max(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {self.cpu})  # inherited by every child
        self.env = child_env(len(os.sched_getaffinity(0)))
        OUT.mkdir(exist_ok=True)
        self.scratch = Path(tempfile.mkdtemp(prefix="run-", dir=OUT))
        self.attempted = 0
        self.failures = []

    def close(self):
        shutil.rmtree(self.scratch, ignore_errors=True)

    def run(self, cmd, out, err):
        """Run cmd to its exit.  Returns (wall s, exit code, rusage)."""
        limit = max(1.0, RUN_DEADLINE_S - (time.perf_counter() - self.start))
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=self.env, cwd=ROOT)
        killer = threading.Timer(limit, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)  # blocks; no polling delay
        finally:
            killer.cancel()
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        return wall, proc.returncode, usage

    def reference(self):
        """Wall time of a bare interpreter start: the host speed probe."""
        wall, code, _ = self.run(REFERENCE_CMD, subprocess.DEVNULL, subprocess.DEVNULL)
        if code != 0:
            raise RuntimeError(f"{' '.join(REFERENCE_CMD)} exited {code}")
        return wall

    def spawn(self, cmd):
        """Run one child between two speed probes; wall time spans spawn to reap."""
        before = self.reference()
        out_path, err_path = self.scratch / "stdout", self.scratch / "stderr"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            wall, code, usage = self.run(cmd, out, err)
        return Child(
            wall,
            usage.ru_utime + usage.ru_stime,
            usage.ru_maxrss / 1024.0,  # Linux reports KiB
            (before + self.reference()) / 2 / REF_NOMINAL_S,
            code,
            out_path.read_text(errors="replace"),
            err_path.read_text(errors="replace"),
        )

    def checked(self, cmd, kind):
        """Spawn, gate the output, and tally the attempt.  None on failure."""
        self.attempted += 1
        child = self.spawn(cmd)
        reason = gate.check(kind, child.returncode, child.stdout, self.seed)
        if reason is None:
            return child
        tail = child.stderr.strip().splitlines()[-1:] or [""]
        self.failures.append(f"{reason} {tail[0]}".strip())
        return None

    def setup_child(self, children):
        """One child that only imports the CLI module; appended on success."""
        self.attempted += 1
        child = self.spawn([sys.executable, "-c", "import delta2n.cli"])
        if child.returncode == 0:
            children.append(child)
        else:
            self.failures.append(f"import delta2n.cli exited {child.returncode}")

    def elapsed(self):
        return time.perf_counter() - self.start


def child_env(cpus):
    env = {k: v for k, v in os.environ.items() if k != tracer.CACHE_ENV}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    for var in THREAD_VARS:
        env[var] = str(cpus)
    return env


_PROBE = """
import json, platform
import numpy
import delta2n.kernels as k
try:
    import numba
    numba_version = numba.__version__
except ImportError:
    numba_version = None
print(json.dumps({
    "python": platform.python_version(),
    "numpy": numpy.__version__,
    "numba": numba_version,
    "numba_used": bool(getattr(k, "HAVE_NUMBA", False)),
}))
"""


def environment(bench, workload_name):
    child = bench.spawn([sys.executable, "-c", _PROBE])
    record = json.loads(child.stdout) if child.returncode == 0 else {"probe_failed": child.stderr}
    record.update(
        workload=workload_name,
        seed=bench.seed,
        nproc=bench.nproc,
        pinned_cpu=bench.cpu,
        thread_caps={v: bench.env[v] for v in THREAD_VARS},
        git_commit=git_commit(),
        source_sha256=source_digest(),
        load="closed loop, 1 client, 1 child at a time",
    )
    return record


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    res = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
    )
    return res.stdout.strip() or None


def source_digest():
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def workload_cmd(w, bench, cache_dir=None):
    cmd = [sys.executable, "-m", "delta2n.cli", *w.argv, "--seed", str(bench.seed)]
    if cache_dir is not None:
        cmd += ["--cache", str(cache_dir)]
    return cmd


def run_workload(name, bench, seconds, trace):
    w = WORKLOADS[name]
    record = environment(bench, name)
    warm_dir = None
    if w.cache == "warm":
        warm_dir = bench.scratch / "warm-cache"
        bench.checked(workload_cmd(w, bench, warm_dir), w.gate)

    samples, setup, started = [], [], 0
    t0 = time.perf_counter()
    while not samples or time.perf_counter() - t0 < seconds:
        if bench.elapsed() > RUN_DEADLINE_S / 2:
            break  # leave room for the traced child and the exit deadline
        # Set-up children are spread over the window instead of run back to
        # back, so that a load spike of a second or two on a shared host
        # skews a few of them, not all.
        due = (time.perf_counter() - t0) * SETUP_CHILDREN / seconds
        while started < SETUP_CHILDREN and started <= due:
            bench.setup_child(setup)
            started += 1
        cache_dir = warm_dir
        if w.cache == "fresh":
            cache_dir = Path(tempfile.mkdtemp(prefix="cache-", dir=bench.scratch))
        child = bench.checked(workload_cmd(w, bench, cache_dir), w.gate)
        if w.cache == "fresh":
            shutil.rmtree(cache_dir)
        if child is not None:
            samples.append(child)
    for _ in range(started, SETUP_CHILDREN):
        bench.setup_child(setup)

    result = {
        "record": record,
        "samples": [c[:5] for c in samples],
        "setup_samples": [c[:5] for c in setup],
    }
    if samples and setup:
        result["end_to_end"] = {
            "wall_s": ([c.wall_s for c in samples], [c.h for c in samples]),
            "cpu_s": ([c.cpu_s for c in samples], [c.h for c in samples]),
            "peak_rss_mb": ([c.peak_rss_mb for c in samples], None),
            "setup_s": ([c.wall_s for c in setup], [c.h for c in setup]),
        }
    if trace and samples:
        result["layers"] = traced_run(name, w, bench, warm_dir, samples)
    return result


def traced_run(name, w, bench, warm_dir, samples):
    cache_dir = warm_dir
    if w.cache == "fresh":
        cache_dir = Path(tempfile.mkdtemp(prefix="cache-", dir=bench.scratch))
    run_id = f"{name}-seed{bench.seed}-{os.getpid()}"
    trace_path = OUT / f"trace-{name}-seed{bench.seed}.json"
    cli_cmd = workload_cmd(w, bench, cache_dir)[3:]  # drop "python -m delta2n.cli"
    cmd = [sys.executable, str(BENCH_DIR / "tracer.py"), str(trace_path), run_id, "--", *cli_cmd]
    child = bench.checked(cmd, w.gate)
    if child is None or not trace_path.exists():
        return None
    trace = json.loads(trace_path.read_text())
    metrics, absent = tracer.layer_metrics(trace)
    # Compare at the traced child's host speed, not the untraced children's.
    untraced = child.h * statistics.median(c.wall_s / c.h for c in samples)
    metrics["trace.total_s"] = (child.wall_s, "s")
    metrics["trace.overhead_s"] = (child.wall_s - untraced, "s")
    return {
        "metrics": metrics,
        "absent": absent,
        "hook_errors": trace["hook_errors"],
        "trace_file": str(trace_path.relative_to(ROOT)),
    }


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def report(name, result, bench, trace):
    """Print the human-readable block; return the metrics for the JSON line."""
    rec = result["record"]
    numba = "numba" if rec.get("numba_used") else "numpy fallback (numba not used)"
    print(f"workload {name}: seed {bench.seed}, {rec['load']}, {numba}, nproc {bench.nproc}, "
          f"pinned to CPU {bench.cpu}")
    metrics = {}
    e2e = result.get("end_to_end")
    if e2e:
        hs = e2e["wall_s"][1] + e2e["setup_s"][1]
        print(f"  host speed factor h: median {statistics.median(hs):.4f} over {len(hs)} children "
              f"(bare interpreter start / {REF_NOMINAL_S} s); s-valued metrics are raw / h")
        for metric, unit in END_TO_END:
            raw, speeds = e2e[metric]
            vals = [v / h for v, h in zip(raw, speeds)] if speeds else raw
            value = statistics.median(vals)
            lo, hi = quartiles(vals)
            metrics[metric] = {"value": value, "unit": unit}
            print(f"  {metric:<12} {value:12.4f} {unit:<3} median of {len(vals)} "
                  f"(q1 {lo:.4f}, q3 {hi:.4f}, max {max(vals):.4f}; raw median {statistics.median(raw):.4f})")
    frac = len(bench.failures) / bench.attempted if bench.attempted else 1.0
    print(f"  {'failed_frac':<12} {frac:12.4f} -   ({len(bench.failures)} of "
          f"{bench.attempted} children failed)")
    for reason in bench.failures:
        print(f"    failure: {reason}")
    if trace:
        layers = result.get("layers")
        metrics = {}
        if layers:
            print(f"  traced run: {layers['trace_file']}")
            for metric, (value, unit) in layers["metrics"].items():
                metrics[metric] = {"value": value, "unit": unit}
                print(f"    {metric:<52} {value:>16.6g} {unit}")
            if layers["absent"]:
                print("    absent (function missing, reported as 0): " + ", ".join(layers["absent"]))
            for err in layers["hook_errors"]:
                print(f"    counter hook failed: {err}")
        else:
            print("  traced run failed: no per-layer metrics")
    print("record " + json.dumps(rec, sort_keys=True))
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "delta2n" / "cli.py").is_file():
        print(f"error: no delta2n source under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        bench = Bench(args.seed)
        try:
            result = run_workload(name, bench, args.seconds, bool(args.trace))
        finally:
            bench.close()
        (OUT / f"result-{name}-seed{args.seed}-trace{args.trace}.json").write_text(
            json.dumps({**result, "failures": bench.failures}, indent=1)
        )
        metrics = report(name, result, bench, bool(args.trace))
        wanted = [m[0] for m in (tracer.PER_LAYER if args.trace else END_TO_END)]
        correct = not bench.failures and all(m in metrics for m in wanted)
        combined["correct"] &= correct
        combined["attempted"] += bench.attempted
        combined["failed"] += len(bench.failures)
        prefix = f"{name}." if len(names) > 1 else ""
        combined["metrics"].update({prefix + k: v for k, v in metrics.items()})
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
