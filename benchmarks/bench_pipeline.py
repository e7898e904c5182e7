"""Whole CLI processes, timed from outside: wall time, CPU time and peak RSS
of one fresh `python -m delta2n.cli` child per run.

The runs are `characters` and `verify` at n = 5..8 and `complex` at n = 7, 8,
each with `--format json`.  `complex` runs twice: with no cache directory,
and as `complex_cache` with `--cache` pointing at a new empty directory per
child, so that run builds and writes both boundaries.  Two reference children
show the fixed cost every run pays:

    python_pass   `python -c pass`: interpreter start and exit
    import_cli    `python -c "import delta2n.cli"`: start, imports and exit

Each child is reaped with `os.wait4`, so CPU time (user + system) and peak
RSS (`ru_maxrss`) are that child's own.  The children inherit this process's
environment apart from DELTA2N_CACHE_DIR; numpy's BLAS may use every core.
`--src DIR` measures the checkout at DIR (default: the one holding this
script); `--before DIR` measures a second checkout, such as a clone of the
parent commit, alternating with the first run by run so that a host speed
change hits both alike; which side goes first flips every repeat.  Both
sides must print the same results (the JSON payload without its metadata).
A child that runs past `--timeout` seconds is stopped and recorded as timed
out, and that (side, run) is not retried.

    python3 benchmarks/bench_pipeline.py --before ../parent --out BENCH_pipeline.json
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

FRESH_CACHE = "{cache}"  # an argument replaced by a new empty directory per child
RUNS = (
    ("python_pass", ("-c", "pass")),
    ("import_cli", ("-c", "import delta2n.cli")),
    *(
        (f"{command}_n{n}", ("-m", "delta2n.cli", command, "--n", str(n), "--format", "json"))
        for command in ("characters", "verify")
        for n in (5, 6, 7, 8)
    ),
    *(
        (f"complex_n{n}", ("-m", "delta2n.cli", "complex", "--n", str(n), "--format", "json"))
        for n in (7, 8)
    ),
    *(
        (f"complex_cache_n{n}", ("-m", "delta2n.cli", "complex", "--n", str(n), "--format", "json",
                                 "--cache", FRESH_CACHE))
        for n in (7, 8)
    ),
)
CACHE_ENV = "DELTA2N_CACHE_DIR"


def result_digest(stdout):
    """Digest of a CLI run's JSON payload without its metadata (timings)."""
    if not stdout:
        return None
    payload = json.loads(stdout)
    payload.pop("metadata")
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()[:16]


def measure(src, args, timeout):
    """One fresh interpreter; None when it runs past the timeout."""
    if FRESH_CACHE in args:
        with tempfile.TemporaryDirectory(prefix="bench-cache-") as cache:
            return measure(src, [cache if a == FRESH_CACHE else a for a in args], timeout)
    env = {k: v for k, v in os.environ.items() if k != CACHE_ENV}
    env["PYTHONPATH"] = str(Path(src).resolve() / "src")
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, *args], stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, env=env
    )
    killer = threading.Timer(timeout, proc.kill)
    killer.start()
    try:
        stdout = proc.stdout.read()  # drain before reaping: a full pipe would block the child
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        killer.cancel()
        proc.stdout.close()
    wall = time.perf_counter() - t0
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    if wall >= timeout:
        return None
    if code != 0:
        raise SystemExit(f"{' '.join(args)} in {src} exited {code}")
    return {
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024,  # Linux reports KiB
        "result": result_digest(stdout.decode()),
    }


def summarize(runs, timed_out):
    if timed_out:
        return {"timed_out": True}
    out = {}
    for metric in ("wall_s", "cpu_s", "peak_rss_mb"):
        values = [r[metric] for r in runs]
        out[metric] = {
            "median": round(statistics.median(values), 4),
            "min": round(min(values), 4),
            "runs": [round(v, 4) for v in values],
        }
    out["result"] = runs[0]["result"]
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", default=str(Path(__file__).resolve().parent.parent),
                    help="checkout to measure (its src/ goes on PYTHONPATH)")
    ap.add_argument("--before", default=None, help="baseline checkout measured alongside")
    ap.add_argument("--repeat", type=int, default=5)
    ap.add_argument("--timeout", type=float, default=120.0,
                    help="seconds before a child is stopped and recorded as timed out")
    ap.add_argument("--out", default=None, help="write the JSON record here")
    args = ap.parse_args()

    sides = {"after": args.src}
    if args.before:
        sides = {"before": args.before, "after": args.src}
    runs = {side: {name: [] for name, _ in RUNS} for side in sides}
    timed_out = {side: set() for side in sides}
    for rep in range(args.repeat):
        order = list(sides.items())[:: -1 if rep % 2 else 1]
        for name, child_args in RUNS:
            for side, src in order:
                if name in timed_out[side]:
                    continue
                rec = measure(src, child_args, args.timeout)
                if rec is None:
                    timed_out[side].add(name)
                    continue
                runs[side][name].append(rec)
    record = {
        "script": "benchmarks/bench_pipeline.py",
        "repeat": args.repeat,
        "timeout_s": args.timeout,
        "host": {
            "machine": platform.machine(),
            "cpus": os.cpu_count(),
            "python": platform.python_version(),
        },
    }
    for side in sides:
        record[side] = {
            name: summarize(rs, name in timed_out[side]) for name, rs in runs[side].items()
        }
    if args.before:
        change = {}
        for name, after in record["after"].items():
            before = record["before"][name]
            if before.get("timed_out") or after.get("timed_out"):
                change[name] = None
                continue
            if before["result"] != after["result"]:
                raise SystemExit(f"{name}: results differ: {before['result']} vs {after['result']}")
            change[name] = {
                metric: round(after[metric]["median"] / before[metric]["median"] - 1, 4)
                for metric in ("wall_s", "cpu_s", "peak_rss_mb")
            }
        record["median_change"] = change
    text = json.dumps(record, indent=1)
    if args.out:
        Path(args.out).write_text(text + "\n")

    def show(entry):
        if entry.get("timed_out"):
            return f"{'timed out':>26}"
        wall, cpu, rss = (entry[m]["median"] for m in ("wall_s", "cpu_s", "peak_rss_mb"))
        return f"{wall:>7.3f}s {cpu:>7.3f}s cpu {rss:>5.1f}MB"

    width = max(len(name) for name, _ in RUNS)
    for name, after in record["after"].items():
        line = f"{name.ljust(width)}  {show(after)}"
        if args.before:
            line += f"  before {show(record['before'][name])}"
        print(line)


if __name__ == "__main__":
    main()
