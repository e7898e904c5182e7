"""Stage timings of `characters --n N`: Specht modules, chain characters, the
top character, the whole CLI run, and the largest block of n = 9.

Each (stage, n) pair runs in a fresh interpreter, so no stage sees another's
memos.  Every stage runs for n = 5, 6, 7; specht, top and cli also for n = 8;
blocks only for n = 9.  The stages are:

    specht            specht_matrices for every lambda of n
    chain_characters  chain_character for degrees n, n+1, n+2
    top               homology_character_top(n)
    cli               `python -m delta2n.cli characters --n N --format json`
    blocks            isotypic_block_ranks(BLOCK_LAMBDA, 9), the lambda of n = 9
                      with the largest block (its Specht module and the orbit
                      representatives are built first, untimed)

Only the named stage is timed; the bases and Specht modules it needs are
built first, untimed (the cli stage times the whole process from outside).
`--src DIR` measures the checkout at DIR (default: the one holding this
script); `--before DIR` measures a second checkout, such as a clone of the
parent commit, alternating with the first run by run so that a host speed
change hits both alike; which side goes first flips every repeat.  A child
that runs past `--timeout` seconds is stopped and recorded as timed out, and
that (side, stage, n) is not retried.

    python3 benchmarks/bench_orbits.py --before ../parent --out BENCH_specht.json
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

STAGES = (
    tuple((stage, n) for n in (5, 6, 7) for stage in ("specht", "chain_characters", "top", "cli"))
    + tuple((stage, 8) for stage in ("specht", "top", "cli"))
    + (("blocks", 9),)
)
BLOCK_LAMBDA = (4, 2, 2, 1)


def run_stage(stage, n):
    """Child side: build the prerequisites, time one stage, return a record."""
    import resource

    from delta2n import equivariant_homology as eh
    from delta2n.chain_complex import build_basis, chain_orbits
    from delta2n.symmetric_group import partitions_of, specht_matrices

    degrees = (n, n + 1, n + 2)
    if stage == "blocks":
        specht_matrices(BLOCK_LAMBDA)
        for p in degrees:
            chain_orbits(n, p)
    elif stage != "specht":
        for p in degrees:
            build_basis(n, p)
        for lam in partitions_of(n):
            specht_matrices(lam)
    t0 = time.perf_counter()
    if stage == "specht":
        result = [specht_matrices(lam).dim for lam in partitions_of(n)]
    elif stage == "chain_characters":
        result = [list(eh.chain_character(n, p).as_ints()) for p in degrees]
    elif stage == "top":
        result = list(eh.homology_character_top(n).as_ints())
    elif stage == "blocks":
        result = [list(r) for r in eh.isotypic_block_ranks(BLOCK_LAMBDA, n)]
    else:
        raise ValueError(f"unknown stage {stage!r}")
    seconds = time.perf_counter() - t0
    return {
        "seconds": seconds,
        "result": result,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def measure(src, stage, n, timeout):
    """One fresh interpreter; None when it runs past the timeout."""
    env = dict(os.environ, PYTHONPATH=str(Path(src).resolve() / "src"))
    if stage == "cli":
        cmd = [sys.executable, "-m", "delta2n.cli", "characters", "--n", str(n), "--format", "json"]
    else:
        cmd = [sys.executable, __file__, "--child", stage, str(n)]
    t0 = time.perf_counter()
    try:
        child = subprocess.run(cmd, capture_output=True, text=True, env=env, check=True,
                               timeout=timeout)
    except subprocess.TimeoutExpired:
        return None
    wall = time.perf_counter() - t0
    if stage != "cli":
        return json.loads(child.stdout.splitlines()[-1])
    blocks = json.loads(child.stdout)["characters"]
    return {
        "seconds": wall,
        "result": [block["values"] for block in blocks],
        "peak_rss_mb": None,
    }


def summarize(runs, timed_out):
    if timed_out:
        return {"timed_out": True}
    secs = [r["seconds"] for r in runs]
    rss = [r["peak_rss_mb"] for r in runs if r["peak_rss_mb"] is not None]
    return {
        "median_s": round(statistics.median(secs), 4),
        "min_s": round(min(secs), 4),
        "runs_s": [round(s, 4) for s in secs],
        "peak_rss_mb": round(max(rss), 1) if rss else None,
        "result": runs[0]["result"],
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", default=str(Path(__file__).resolve().parent.parent),
                    help="checkout to measure (its src/ goes on PYTHONPATH)")
    ap.add_argument("--before", default=None, help="baseline checkout measured alongside")
    ap.add_argument("--repeat", type=int, default=3)
    ap.add_argument("--timeout", type=float, default=120.0,
                    help="seconds before a child is stopped and recorded as timed out")
    ap.add_argument("--out", default=None, help="write the JSON record here")
    ap.add_argument("--child", nargs=2, metavar=("STAGE", "N"), help=argparse.SUPPRESS)
    args = ap.parse_args()

    if args.child:
        print(json.dumps(run_stage(args.child[0], int(args.child[1]))))
        return

    sides = {"after": args.src}
    if args.before:
        sides = {"before": args.before, "after": args.src}
    runs = {side: {f"{stage}_n{n}": [] for stage, n in STAGES} for side in sides}
    timed_out = {side: set() for side in sides}
    for rep in range(args.repeat):
        order = list(sides.items())[:: -1 if rep % 2 else 1]
        for stage, n in STAGES:
            for side, src in order:
                key = f"{stage}_n{n}"
                if key in timed_out[side]:
                    continue
                rec = measure(src, stage, n, args.timeout)
                if rec is None:
                    timed_out[side].add(key)
                    continue
                runs[side][key].append(rec)
    record = {
        "script": "benchmarks/bench_orbits.py",
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
            key: summarize(rs, key in timed_out[side]) for key, rs in runs[side].items()
        }
    if args.before:
        speedup = {}
        for key, after in record["after"].items():
            before = record["before"][key]
            if before.get("timed_out") or after.get("timed_out"):
                speedup[key] = None
                continue
            if before["result"] != after["result"]:
                raise SystemExit(f"{key}: results differ: {before['result']} vs {after['result']}")
            speedup[key] = round(before["median_s"] / after["median_s"], 2)
        record["speedup_median"] = speedup
    text = json.dumps(record, indent=1)
    if args.out:
        Path(args.out).write_text(text + "\n")

    def show(entry):
        return "  timed out" if entry.get("timed_out") else f"{entry['median_s']:>9.3f}s"

    width = max(len(key) for key in record["after"])
    for key, after in record["after"].items():
        line = f"{key.ljust(width)}  {show(after)}"
        if args.before:
            line += f"  before {show(record['before'][key])}"
            if record["speedup_median"][key] is not None:
                line += f"  {record['speedup_median'][key]:>6.1f}x"
        print(line)


if __name__ == "__main__":
    main()
