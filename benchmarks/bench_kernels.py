"""Timing harness for the modular row reduction kernel, jit vs pure numpy.

Run without flags to get a side-by-side table; the script re-executes itself
in a subprocess with DELTA2N_NO_NUMBA=1 to time the fallback path, so both
columns measure exactly what an installed user would get.

    python3 benchmarks/bench_kernels.py --size 400 --repeat 3
"""

import argparse
import json
import os
import subprocess
import sys
import time

import numpy as np


def bench_rref(size, repeat, prime=2147483629):
    from delta2n.kernels import rref_modp

    rng = np.random.default_rng(42)
    base = rng.integers(0, prime, size=(size, size), dtype=np.int64)
    rref_modp(base.copy(), prime)  # warm the jit
    best = float("inf")
    for _ in range(repeat):
        a = base.copy()
        t0 = time.perf_counter()
        rref_modp(a, prime)
        best = min(best, time.perf_counter() - t0)
    return best


def run_all(args):
    from delta2n import kernels

    return {
        "mode": "numba" if kernels.HAVE_NUMBA else "numpy",
        f"rref {args.size}x{args.size}": bench_rref(args.size, args.repeat),
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--size", type=int, default=400, help="rref matrix size")
    ap.add_argument("--repeat", type=int, default=3)
    ap.add_argument("--emit-json", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args()

    if args.emit_json:
        print(json.dumps(run_all(args)))
        return

    here = run_all(args)
    env = dict(os.environ, DELTA2N_NO_NUMBA="1")
    child = subprocess.run(
        [sys.executable, __file__, "--emit-json", "--size", str(args.size),
         "--repeat", str(args.repeat)],
        capture_output=True, text=True, env=env, check=True,
    )
    there = json.loads(child.stdout.splitlines()[-1])
    if here["mode"] == there["mode"]:
        print("numba unavailable: both runs used the numpy fallback")
    names = [key for key in here if key != "mode"]
    width = max(len(s) for s in names)
    print(f"{'kernel'.ljust(width)}  {here['mode']:>10}  {there['mode']:>10}  speedup")
    for name in names:
        a, b = here[name], there[name]
        print(f"{name.ljust(width)}  {a:>9.4f}s  {b:>9.4f}s  {b / a:>6.1f}x")


if __name__ == "__main__":
    main()
