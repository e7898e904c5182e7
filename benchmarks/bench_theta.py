"""Stage timings of the graph layer: bases, boundaries, d^2 check, action
tables, and whole `complex` runs.

Each (stage, n) pair runs in a fresh interpreter, so no stage sees another's
memos.  The stages are:

    bases       basis_arrays for degrees n, n+1, n+2          (n = 6, 7, 8)
    boundaries  boundary_matrix for d_{n+1}, d_{n+2}          (n = 6, 7, 8)
    d2          d_{n+1} . d_{n+2} == 0                        (n = 6, 7, 8)
    act         act() of every class representative, 3 degrees (n = 6, 7)
    cli_cold    `python -m delta2n.cli complex --n N --format json --cache DIR`
                on a new empty DIR                            (n = 7, 8)
    cli_warm    the same on a DIR filled by an untimed run    (n = 7, 8)

Only the named stage is timed; what it needs (bases, boundaries) is built
first, untimed.  The cli stages time the whole process from outside, and
take its peak RSS from os.wait4, so it is the child's own.  `--src DIR`
measures the checkout at DIR (default: the one holding this script);
`--before DIR` measures a second checkout, such as a clone of the parent
commit, alternating with the first run by run so that a host speed change
hits both alike.

    python3 benchmarks/bench_theta.py --before ../parent --out BENCH_complex.json
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

STAGES = (
    ("bases", 6), ("bases", 7), ("bases", 8),
    ("boundaries", 6), ("boundaries", 7), ("boundaries", 8),
    ("d2", 6), ("d2", 7), ("d2", 8),
    ("act", 6), ("act", 7),
    ("cli_cold", 7), ("cli_warm", 7), ("cli_cold", 8), ("cli_warm", 8),
)


def run_stage(stage, n):
    """Child side: build the prerequisites, time one stage, return a record."""
    import resource

    from delta2n.chain_complex import basis_arrays, boundary_matrix

    degrees = (n, n + 1, n + 2)
    if stage != "bases":
        for p in degrees:
            basis_arrays(n, p)
    if stage == "d2":
        mats = [boundary_matrix(n, p) for p in (n + 1, n + 2)]
    t0 = time.perf_counter()
    if stage == "bases":
        result = [len(basis_arrays(n, p).keys) for p in degrees]
    elif stage == "boundaries":
        result = [boundary_matrix(n, p).nnz for p in (n + 1, n + 2)]
    elif stage == "d2":
        result = mats[0].matmul(mats[1]).is_zero()
    elif stage == "act":
        from delta2n.equivariant_homology import act
        from delta2n.symmetric_group import class_representative, partitions_of

        result = [
            act(class_representative(mu), p).trace()
            for p in degrees
            for mu in partitions_of(n)
        ]
    else:
        raise ValueError(f"unknown stage {stage!r}")
    seconds = time.perf_counter() - t0
    return {
        "seconds": seconds,
        "result": result,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def measure_cli(env, stage, n):
    """One fresh `complex --n N` process on a new cache dir, filled first by
    an untimed run for cli_warm."""
    with tempfile.TemporaryDirectory() as cache:
        cmd = [sys.executable, "-m", "delta2n.cli", "complex", "--n", str(n),
               "--format", "json", "--cache", cache]
        if stage == "cli_warm":
            subprocess.run(cmd, capture_output=True, env=env, check=True)
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, env=env)
        out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
        seconds = time.perf_counter() - t0
        proc.stdout.close()
        proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode:
        raise SystemExit(f"{stage} n={n} exited with status {proc.returncode}")
    payload = json.loads(out)
    return {
        "seconds": seconds,
        "result": [payload["dims"], payload["boundary_nnz"], payload["d_squared_zero"]],
        "peak_rss_mb": usage.ru_maxrss / 1024,
    }


def measure(src, stage, n):
    env = dict(os.environ, PYTHONPATH=str(Path(src).resolve() / "src"))
    if stage.startswith("cli"):
        return measure_cli(env, stage, n)
    child = subprocess.run(
        [sys.executable, __file__, "--child", stage, str(n)],
        capture_output=True, text=True, env=env, check=True,
    )
    return json.loads(child.stdout.splitlines()[-1])


def summarize(runs):
    secs = [r["seconds"] for r in runs]
    return {
        "median_s": round(statistics.median(secs), 4),
        "min_s": round(min(secs), 4),
        "runs_s": [round(s, 4) for s in secs],
        "peak_rss_mb": round(max(r["peak_rss_mb"] for r in runs), 1),
        "result": runs[0]["result"],
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", default=str(Path(__file__).resolve().parent.parent),
                    help="checkout to measure (its src/ goes on PYTHONPATH)")
    ap.add_argument("--before", default=None, help="baseline checkout measured alongside")
    ap.add_argument("--repeat", type=int, default=3)
    ap.add_argument("--out", default=None, help="write the JSON record here")
    ap.add_argument("--child", nargs=2, metavar=("STAGE", "N"), help=argparse.SUPPRESS)
    args = ap.parse_args()

    if args.child:
        print(json.dumps(run_stage(args.child[0], int(args.child[1]))))
        return

    sides = {"after": args.src}
    if args.before:
        sides = {"before": args.before, "after": args.src}
    runs = {side: {} for side in sides}
    for _ in range(args.repeat):
        for stage, n in STAGES:
            for side, src in sides.items():
                rec = measure(src, stage, n)
                runs[side].setdefault(f"{stage}_n{n}", []).append(rec)
    record = {
        "script": "benchmarks/bench_theta.py",
        "repeat": args.repeat,
        "host": {
            "machine": platform.machine(),
            "cpus": os.cpu_count(),
            "python": platform.python_version(),
        },
    }
    for side in sides:
        record[side] = {key: summarize(rs) for key, rs in runs[side].items()}
    if args.before:
        speedup = {}
        for key, after in record["after"].items():
            before = record["before"][key]
            if before["result"] != after["result"]:
                raise SystemExit(f"{key}: results differ: {before['result']} vs {after['result']}")
            speedup[key] = round(before["median_s"] / after["median_s"], 2)
        record["speedup_median"] = speedup
    text = json.dumps(record, indent=1)
    if args.out:
        Path(args.out).write_text(text + "\n")
    width = max(len(key) for key in record["after"])
    for key, after in record["after"].items():
        line = f"{key.ljust(width)}  {after['median_s']:>9.3f}s"
        if args.before:
            line += f"  before {record['before'][key]['median_s']:>9.3f}s"
            line += f"  {record['speedup_median'][key]:>6.1f}x"
        print(line)


if __name__ == "__main__":
    main()
