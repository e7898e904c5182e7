"""Stage timings of the delta2n pipeline, one fresh interpreter per run.

Every invocation runs `python_pass` first, `python -c pass`: interpreter
start and exit, the host-speed reference each record carries.  The other
stages come in three groups, chosen by name on the command line (one or
more; default all):

    graph     bases        basis_arrays for degrees n, n+1, n+2     (n = 6, 7, 8)
              boundaries   boundary_matrix for d_{n+1}, d_{n+2}     (n = 6..9)
              d2           d_{n+1} . d_{n+2} == 0                   (n = 6..9)
              act          act() of every class representative,
                           three degrees                            (n = 6, 7)
    homology  specht       specht_matrices for every lambda of n    (n = 5..8)
              chain_characters  chain_character, three degrees      (n = 5, 6, 7)
              top          homology_character_top(n)                (n = 5..8)
              blocks       isotypic_block_ranks(BLOCK_LAMBDA, 9), the lambda
                           of n = 9 with the largest block, its own
                           and its conjugate's Specht modules built
                           untimed                                  (n = 9)
              blocks_all   isotypic_ranks(9), all 30 lambda with their
                           Specht modules                           (n = 9)
    cli       import_cli   `python -c "import delta2n.cli"`
              help_cli     `delta2n.cli --help`: argv parsed, the usage
                           printed, no numpy loaded
              import_cli_src, characters_src   the same import, and
                           characters at n = 6, compiling the package
                           from source (see below)
              characters, verify   `delta2n.cli ... --n N --format json`
                                                                    (n = 5..8)
              complex      the same with no cache; complex_cache on a new
                           empty --cache dir; complex_warm on a dir filled
                           by an untimed run first                  (n = 7, 8)
              characters_shell, verify_shell   characters (n = 6, 8) and
                           verify (n = 6) as a shell starts them (see below)

A graph or homology stage runs as `bench.py --child STAGE N`: the child builds
what the stage needs (bases, boundaries, orbit representatives, Specht
modules), then times the stage alone and prints {"stage_s", "result"}, and
the boundaries and d2 stages also the MiB the two boundaries keep in their
coordinate arrays ("coords_mb").  A cli stage's result is a digest of its
JSON payload without the metadata (None for help_cli, whose usage text is
no result and differs between versions).

Every child is reaped with os.wait4, so its wall time, CPU time (user +
system), system time and peak RSS are its own, and is killed at --timeout
seconds; a stage that times out on a side is recorded so and not retried
there.  bench.py pins itself, and with it every child, to one CPU, and the
children run with one OpenMP/OpenBLAS/MKL thread, so timings do not depend
on how many cores are idle.  The *_shell stages are the exception: their
children run on every CPU bench.py was started on and with none of those
thread variables set, as a command typed in a shell runs, so they show what
the CLI's own thread default does, which a pinned child cannot (on one CPU
OpenBLAS starts one thread whatever the variables say).

Each run of a stage is two children, one for time and one for memory.  The
timed child runs under glibc's default malloc, as a user's run does; its
wall, CPU, system and stage times are recorded.  The memory child runs with
the mmap threshold fixed at its default, 128 KiB (MALLOC_MMAP_THRESHOLD_),
and only its peak RSS (and coords_mb) is recorded: left dynamic, the
threshold rises to the size of each large block freed, so whether a later
numpy temporary is mapped afresh or carved from a heap that keeps the pages
depends on the order of earlier allocations, and that moved n = 8 peaks by
0.3-0.8 MB, either way, between two checkouts holding the same memory.  But
fixed, it maps every temporary over 128 KiB afresh and faults it in page by
page, which doubled the time of elimination-heavy stages, so it is kept out
of the timed children.  --repeat counts runs of each kind.
Each side's children write and read bytecode only in that side's own
PYTHONPYCACHEPREFIX, under a temporary directory the driver makes, fills
with two untimed imports per side and removes, so a stale __pycache__ in
one checkout cannot make it look faster.  The *_src stages measure the
other condition, the one perfbench children run under where
PYTHONDONTWRITEBYTECODE is set: their children read a copy of the side's
src/ without any __pycache__, with PYTHONDONTWRITEBYTECODE=1 and no
PYTHONPYCACHEPREFIX, so every delta2n module they import is compiled from
source on every run, while the standard library's own bytecode is read.
`--src DIR` measures the checkout at DIR (default: the one holding this
script).  `--before DIR` measures a second checkout, such as a clone of the
parent commit, alternating with the first run by run, and flips which side
goes first every repeat, so that a host speed change hits both alike.  The
record's "paired_change" gives, per stage and metric, the pair_summary of
the repeats' adjacent (before, after) runs.  The children put DIR/src on
PYTHONPATH and run the stage code of this script, so DIR needs no copy of
it.  The driver exits as soon as any two runs of a stage give different
results.

    python3 benchmarks/bench.py --before ../parent --out BENCH_topic.json
    python3 benchmarks/bench.py homology cli --repeat 3

`--paired KEY ...` compares graph or homology stages in process, each KEY a
stage and its n as the records name them (blocks_all_n6 is
isotypic_ranks(6)): one long-lived worker per side (`bench.py --serve`, the
side's src/ on PYTHONPATH), both on bench.py's one CPU, is sent --rounds
pairs of requests in ABBA order; a fresh pair of workers takes over every
ROUNDS_PER_WORKER rounds, each worker answering one untimed request first,
and which side's worker starts first alternates from pair to pair.  Each
request empties the package's caches (delta2n.clear_caches()) and runs the
stage as its child would.  The record's "paired" entry holds, per KEY,
every pair of stage times with their pair_summary, the pairs of stage CPU
times with their median ratio, and how many worker pairs answered.  With
--paired, no group runs unless named.

    python3 benchmarks/bench.py --paired blocks_all_n6 --before ../parent --rounds 40

Each comparison answers its own question.  --paired answers the time of a
library stage, and a claim of a change under 10 % quotes it: fresh children
cannot resolve a few percent on a host whose speed wanders.  --before
answers peak RSS, which only grows in a long-lived worker, and the wall
time of a whole CLI process.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

SCRIPT = str(Path(__file__).resolve())
BLOCK_LAMBDA = (4, 2, 2, 1)
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
EMPTY_CACHE, WARM_CACHE = "{empty}", "{warm}"  # replaced by a new directory per child
# run once per side before timing, so the timed children read bytecode
# rather than compile it: a stage child and the CLI with its lazy imports
WARM_UP = ((SCRIPT, "--child", "specht", "2"), ("-c", "import delta2n.cli, delta2n.symfunc_check"))
# what the timed child and the memory child of a run each contribute
TIME_METRICS = ("stage_s", "wall_s", "cpu_s", "sys_s")
MEMORY_METRICS = ("peak_rss_mb", "coords_mb")
METRICS = TIME_METRICS + MEMORY_METRICS
# glibc's default mmap threshold, fixed in the memory children only: see the
# module docstring
MMAP_THRESHOLD = 128 * 1024
# --paired rounds one pair of workers answers before a fresh pair takes over:
# a long-lived worker carries a bias of its own (two identical copies read
# median ratios from 0.988 to 1.006 with one pair per run), which fresh
# pairs average out
ROUNDS_PER_WORKER = 10


def _child(stage, ns):
    return {f"{stage}_n{n}": (SCRIPT, "--child", stage, str(n)) for n in ns}


def _cli(name, command, ns, *extra):
    return {
        f"{name}_n{n}": ("-m", "delta2n.cli", command, "--n", str(n), "--format", "json", *extra)
        for n in ns
    }


GROUPS = {
    "graph": {
        **_child("bases", (6, 7, 8)),
        **_child("boundaries", (6, 7, 8, 9)),
        **_child("d2", (6, 7, 8, 9)),
        **_child("act", (6, 7)),
    },
    "homology": {
        **_child("specht", (5, 6, 7, 8)),
        **_child("chain_characters", (5, 6, 7)),
        **_child("top", (5, 6, 7, 8)),
        **_child("blocks", (9,)),
        **_child("blocks_all", (9,)),
    },
    "cli": {
        "import_cli": ("-c", "import delta2n.cli"),
        "import_cli_src": ("-c", "import delta2n.cli"),
        "help_cli": ("-m", "delta2n.cli", "--help"),
        **_cli("characters", "characters", (5, 6, 7, 8)),
        **_cli("characters_src", "characters", (6,)),
        **_cli("verify", "verify", (5, 6, 7, 8)),
        **_cli("complex", "complex", (7, 8)),
        **_cli("complex_cache", "complex", (7, 8), "--cache", EMPTY_CACHE),
        **_cli("complex_warm", "complex", (7, 8), "--cache", WARM_CACHE),
        **_cli("characters_shell", "characters", (6, 8)),
        **_cli("verify_shell", "verify", (6,)),
    },
}


def stages_of(groups):
    """The stages an invocation naming these groups runs, in order: python_pass
    first, whatever groups are named."""
    return {"python_pass": ("-c", "pass"),
            **{key: cmd for g in groups for key, cmd in GROUPS[g].items()}}


# stages whose children compile the package from source (source_env)
FROM_SOURCE = ("import_cli_src", "characters_src_n6")
# stages whose children run as a shell starts them (shell_env, on every CPU)
SHELL = ("characters_shell_n6", "characters_shell_n8", "verify_shell_n6")


def _trace(action):
    """Trace of the action from its gather tables (gidx, gsgn), the sum of
    gsgn over the fixed points of gidx."""
    idx, sgn = action
    return int(sgn[idx == range(len(idx))].sum())


def run_stage(stage, n):
    """Child side: build what the stage needs, then time the stage alone."""
    from delta2n import equivariant_homology as eh
    from delta2n.chain_complex import basis_arrays, boundary_matrix
    from delta2n.symmetric_group import (
        class_representative,
        conjugate_partition,
        partitions_of,
        specht_matrices,
    )

    degrees = (n, n + 1, n + 2)
    if stage in ("boundaries", "d2", "act"):
        for p in degrees:
            basis_arrays(n, p)
    if stage == "d2":
        d_next, d_top = (boundary_matrix(n, p) for p in (n + 1, n + 2))
    if stage in ("chain_characters", "top", "blocks", "blocks_all"):
        for p in degrees:
            eh.chain_orbits(n, p)  # the name the blocks read, wherever it is defined
    if stage == "blocks":
        # the block reads the module of one member of its conjugate pair:
        # build both, so that neither side times a construction
        for lam in (BLOCK_LAMBDA, conjugate_partition(BLOCK_LAMBDA)):
            specht_matrices(lam)
    elif stage in ("chain_characters", "top"):
        for lam in partitions_of(n):
            specht_matrices(lam)
    t0, c0 = time.perf_counter(), time.process_time()
    if stage == "bases":
        result = [basis_arrays(n, p).dim for p in degrees]
    elif stage == "boundaries":
        result = [boundary_matrix(n, p).nnz for p in (n + 1, n + 2)]
    elif stage == "d2":
        result = d_next.matmul(d_top).is_zero()
    elif stage == "act":
        result = [
            _trace(eh.act(class_representative(mu), p)) for p in degrees for mu in partitions_of(n)
        ]
    elif stage == "specht":
        result = [specht_matrices(lam).dim for lam in partitions_of(n)]
    elif stage == "chain_characters":
        result = [eh.chain_character(n, p).tolist() for p in degrees]
    elif stage == "top":
        result = eh.homology_character_top(n).tolist()
    elif stage == "blocks":
        result = [list(r) for r in eh.isotypic_block_ranks(BLOCK_LAMBDA, n)]
    elif stage == "blocks_all":
        result = [[list(x) for x in r] for r in eh.isotypic_ranks(n).values()]
    else:
        raise ValueError(f"unknown stage {stage!r}")
    record = {"stage_s": time.perf_counter() - t0, "stage_cpu_s": time.process_time() - c0,
              "result": result}
    if stage in ("boundaries", "d2"):
        kept = sum(boundary_matrix(n, p).coords.nbytes for p in (n + 1, n + 2))
        record["coords_mb"] = kept / 2**20
    return record


def child_env(src, pycache):
    """The environment of a timed child measuring the checkout src, its
    bytecode written to and read from pycache alone."""
    env = {
        k: v
        for k, v in os.environ.items()
        if k not in ("PYTHONDONTWRITEBYTECODE", "MALLOC_MMAP_THRESHOLD_")
    }
    env.update(
        dict.fromkeys(THREAD_VARS, "1"),
        PYTHONPATH=str(Path(src).resolve() / "src"),
        PYTHONPYCACHEPREFIX=str(pycache),
    )
    return env


def memory_env(env):
    """The environment env of a timed child, for the memory child of the
    same run: glibc's mmap threshold fixed."""
    return dict(env, MALLOC_MMAP_THRESHOLD_=str(MMAP_THRESHOLD))


def shell_env(env):
    """The environment env without any thread variable, as a shell passes
    it to a command."""
    return {k: v for k, v in env.items() if k not in THREAD_VARS}


def source_env(src, copy, env):
    """The environment env of a child measuring the checkout src, changed so
    that the child compiles every delta2n module from source: src/ is copied
    to copy without any __pycache__, and the child runs on that copy with
    PYTHONDONTWRITEBYTECODE=1 and no PYTHONPYCACHEPREFIX."""
    shutil.copytree(Path(src) / "src", copy, ignore=shutil.ignore_patterns("__pycache__"))
    env = {k: v for k, v in env.items() if k != "PYTHONPYCACHEPREFIX"}
    env.update(PYTHONDONTWRITEBYTECODE="1", PYTHONPATH=str(Path(copy).resolve()))
    return env


def result_digest(stdout):
    """Digest of a CLI run's JSON payload without its metadata (timings);
    None when the run printed no JSON object, as help_cli does."""
    if not stdout.startswith("{"):
        return None
    payload = json.loads(stdout)
    payload.pop("metadata")
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()[:16]


def measure(args, env, timeout, cpus=None):
    """One fresh interpreter, on the CPUs cpus when given (else on the
    caller's); None when it runs past the timeout."""
    if EMPTY_CACHE in args or WARM_CACHE in args:
        with tempfile.TemporaryDirectory(prefix="bench-cache-") as cache:
            filled = [cache if a in (EMPTY_CACHE, WARM_CACHE) else a for a in args]
            if WARM_CACHE in args:
                subprocess.run([sys.executable, *filled], env=env, check=True,
                               stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
            return measure(filled, env, timeout, cpus)
    pinned = os.sched_getaffinity(0)
    with tempfile.TemporaryFile() as err:
        t0 = time.perf_counter()
        os.sched_setaffinity(0, cpus or pinned)  # the child inherits it
        try:
            proc = subprocess.Popen([sys.executable, *args], stdout=subprocess.PIPE, stderr=err,
                                    env=env)
        finally:
            os.sched_setaffinity(0, pinned)
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
            err.seek(0)
            tail = err.read().decode(errors="replace")[-2000:]
            raise SystemExit(f"{' '.join(args)} with {env['PYTHONPATH']} exited {code}\n{tail}")
    rec = {
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "sys_s": usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024,  # Linux reports KiB
    }
    if args[0] == SCRIPT:
        rec.update(json.loads(stdout.decode().splitlines()[-1]))
    else:
        rec["result"] = result_digest(stdout.decode())
    return rec


def summarize(runs, timed_out):
    if timed_out:
        return {"timed_out": True}
    out = {}
    for metric in METRICS:
        if metric in runs[0]:
            values = [r[metric] for r in runs]
            out[metric] = {
                "median": round(statistics.median(values), 6),
                "min": round(min(values), 6),
                "runs": [round(v, 6) for v in values],
            }
    out["result"] = runs[0]["result"]
    return out


def sign_test(wins, pairs):
    """Two-sided exact sign-test p-value of `wins` wins in `pairs` untied pairs."""
    k = min(wins, pairs - wins)
    return min(1.0, 2 * sum(math.comb(pairs, i) for i in range(k + 1)) / 2**pairs)


def pair_summary(pairs):
    """The summary every record gives of (before, after) pairs: the median
    ratio after/before over nonzero befores (None if none; a short child's
    system time can read 0), the after side's wins (lower) and the ties, and
    the sign-test p-value of the wins among the untied pairs."""
    ratios = [a / b for b, a in pairs if b]
    wins, ties = sum(a < b for b, a in pairs), sum(a == b for b, a in pairs)
    return {
        "pairs": len(pairs),
        "median_ratio": round(statistics.median(ratios), 4) if ratios else None,
        "after_won": wins,
        "ties": ties,
        "sign_test_p": sign_test(wins, len(pairs) - ties),
    }


def paired_change(before, after):
    """Per metric the runs carry, the pair_summary of each repeat's runs."""
    return {
        metric: pair_summary([(b[metric], a[metric]) for b, a in zip(before, after)])
        for metric in METRICS if metric in after[0]
    }


def serve():
    """Worker side of --paired: for each line "STAGE N" read, empty the
    package's caches, run the stage and write its record as one line."""
    import delta2n

    for line in sys.stdin:
        stage, n = line.split()
        delta2n.clear_caches()
        print(json.dumps(run_stage(stage, int(n))), flush=True)


def paired_record(times, cpu):
    """The pair_summary of (before, after) stage times, one pair per round,
    every pair kept, and the median ratio of the (before, after) CPU times cpu."""
    return {
        **pair_summary(times),
        "pairs": [{"before": b, "after": a} for b, a in times],
        "cpu_pairs": [{"before": b, "after": a} for b, a in cpu],
        "cpu_median_ratio": pair_summary(cpu)["median_ratio"],
        "median_before": round(statistics.median(b for b, _ in times), 6),
        "median_after": round(statistics.median(a for _, a in times), 6),
    }


def _workers(envs):
    """One --serve worker per side, and the function that asks one of them to
    run a stage and returns its record."""
    workers = {
        side: subprocess.Popen([sys.executable, SCRIPT, "--serve"], stdin=subprocess.PIPE,
                               stdout=subprocess.PIPE, text=True, env=env)
        for side, env in envs.items()
    }

    def ask(side, stage, n):
        workers[side].stdin.write(f"{stage} {n}\n")
        workers[side].stdin.flush()
        line = workers[side].stdout.readline()
        if not line:
            raise SystemExit(f"the {side} worker exited on {stage} {n}")
        return json.loads(line)

    return workers, ask


def run_paired(keys, envs, rounds):
    """--paired: per key, rounds pairs of in-process stage times, asked in
    ABBA order of one worker per side, a fresh pair every ROUNDS_PER_WORKER
    rounds, each worker after one untimed request."""
    out = {}
    for key in keys:
        stage, _, n = key.rpartition("_n")
        times, cpu, result = [], [], None
        starts = range(0, rounds, ROUNDS_PER_WORKER)
        for start in starts:
            # the side started second read about 1 % faster when it was always
            # the same one, so which side starts first flips every pair
            sides = list(envs)[:: -1 if start // ROUNDS_PER_WORKER % 2 else 1]
            workers, ask = _workers({side: envs[side] for side in sides})
            try:
                first = {side: ask(side, stage, n)["result"] for side in sides}
                result = first["after"] if result is None else result
                if not first["before"] == first["after"] == result:
                    raise SystemExit(f"{key}: before gave {first['before']}, after"
                                     f" {first['after']}, the first workers {result}")
                # ABBA: before first in even rounds, after first in odd
                for r in range(start, min(start + ROUNDS_PER_WORKER, rounds)):
                    order = ("before", "after") if r % 2 == 0 else ("after", "before")
                    got = {side: ask(side, stage, n) for side in order}
                    if any(rec["result"] != result for rec in got.values()):
                        raise SystemExit(f"{key}: a side's result changed between requests")
                    times.append((got["before"]["stage_s"], got["after"]["stage_s"]))
                    cpu.append((got["before"]["stage_cpu_s"], got["after"]["stage_cpu_s"]))
            finally:
                for worker in workers.values():
                    worker.stdin.close()
                    worker.wait()
        out[key] = {**paired_record(times, cpu), "result": result, "worker_pairs": len(starts)}
    return out


def table(record):
    """The record's figures as a Markdown table, one row per stage: the
    median time of the stage alone (graph, homology) or of the whole process
    (cli, python_pass), and the median peak RSS, with the before side's
    columns when the record has one, under a line naming the record's
    `python -c pass` time, repeat count and host.  main prints it at the end
    of every run, and README.md embeds it for the record its markers name;
    from the repository root,

        python3 -c 'import json, runpy; print(runpy.run_path("benchmarks/bench.py")["table"](json.load(open("BENCH_readme.json"))))'

    prints the block for BENCH_readme.json."""
    sides = [side for side in ("before", "after") if side in record]
    host = record["host"]
    reference = ", ".join(f"{record[side]['python_pass']['wall_s']['median']:.3g} s"
                          for side in sides)
    head = (["time", "peak RSS"] if len(sides) == 1 else
            [f"{what} ({side})" for what in ("time", "peak RSS") for side in sides])
    lines = [
        f"`python -c pass` {reference}; medians of {record['repeat']} runs; "
        f"{host['machine']}, {host['cpus']} CPUs, Python {host['python']}",
        "",
        "| stage | " + " | ".join(head) + " |",
        "|---" * (1 + len(head)) + "|",
    ]
    for key in record["after"]:
        entries = [record[side][key] for side in sides]
        times = ["timed out" if e.get("timed_out") else
                 f"{e['stage_s' if 'stage_s' in e else 'wall_s']['median']:.3g} s"
                 for e in entries]
        peaks = ["timed out" if e.get("timed_out") else
                 f"{e['peak_rss_mb']['median']:.1f} MB" for e in entries]
        lines.append(f"| `{key}` | " + " | ".join(times + peaks) + " |")
    return "\n".join(lines)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("groups", nargs="*", metavar="GROUP",
                    help=f"stage groups to run, of {', '.join(GROUPS)} (default: all)")
    ap.add_argument("--src", default=str(Path(SCRIPT).parent.parent),
                    help="checkout to measure (its src/ goes on PYTHONPATH)")
    ap.add_argument("--before", default=None, help="baseline checkout measured alongside")
    ap.add_argument("--repeat", type=int, default=5)
    ap.add_argument("--timeout", type=float, default=120.0,
                    help="seconds before a child is stopped and recorded as timed out")
    ap.add_argument("--out", default=None, help="write the JSON record here")
    ap.add_argument("--paired", nargs="+", default=[], metavar="KEY",
                    help="compare these stages (e.g. blocks_all_n6) in process against --before")
    ap.add_argument("--rounds", type=int, default=30, help="request pairs per --paired stage")
    ap.add_argument("--child", nargs=2, metavar=("STAGE", "N"), help=argparse.SUPPRESS)
    ap.add_argument("--serve", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args()

    if args.child:
        print(json.dumps(run_stage(args.child[0], int(args.child[1]))))
        return
    if args.serve:
        serve()
        return
    if args.paired and not args.before:
        ap.error("--paired needs --before")
    in_process = {cmd[2] for group in GROUPS.values() for cmd in group.values() if cmd[0] == SCRIPT}
    for key in args.paired:
        stage, _, n = key.rpartition("_n")
        if stage not in in_process or not n.isdigit():
            ap.error(f"--paired {key}: not STAGE_nN for a stage of {', '.join(sorted(in_process))}")
    groups = args.groups or ([] if args.paired else list(GROUPS))
    unknown = [g for g in groups if g not in GROUPS]
    if unknown:
        ap.error(f"unknown group {unknown[0]!r}; choose from {', '.join(GROUPS)}")
    stages = stages_of(groups)

    cpus = os.sched_getaffinity(0)  # the *_shell stages' children run on these
    cpu = max(cpus)
    os.sched_setaffinity(0, {cpu})  # inherited by every other child
    sides = {"before": args.before, "after": args.src} if args.before else {"after": args.src}
    pycache = tempfile.TemporaryDirectory(prefix="bench-pycache-")
    envs = {side: child_env(src, Path(pycache.name) / side) for side, src in sides.items()}
    for env in envs.values():
        for cmd in WARM_UP:
            subprocess.run([sys.executable, *cmd], env=env, check=True, stdout=subprocess.DEVNULL)
    source_envs = {
        side: source_env(src, Path(pycache.name) / f"{side}-src", envs[side])
        for side, src in sides.items()
    }

    def stage_env(side, key):
        env = source_envs[side] if key in FROM_SOURCE else envs[side]
        return shell_env(env) if key in SHELL else env

    paired = run_paired(args.paired, envs, args.rounds)
    runs = {side: {key: [] for key in stages} for side in sides}
    timed_out = {side: set() for side in sides}
    results = {}
    for rep in range(args.repeat):
        for key, cmd in stages.items():
            where = cpus if key in SHELL else None
            order = [side for side in list(sides)[:: -1 if rep % 2 else 1]
                     if key not in timed_out[side]]
            # the timed children of both sides first, adjacent, then the memory children
            timed = {side: measure(cmd, stage_env(side, key), args.timeout, where)
                     for side in order}
            for side in order:
                memory = None
                if timed[side] is not None:
                    memory = measure(cmd, memory_env(stage_env(side, key)), args.timeout, where)
                if memory is None:
                    timed_out[side].add(key)
                    continue
                for rec in (timed[side], memory):
                    first = results.setdefault(key, rec["result"])
                    if rec["result"] != first:
                        raise SystemExit(f"{key}: {side} gave {rec['result']}, an earlier run {first}")
                runs[side][key].append({
                    **{m: timed[side][m] for m in TIME_METRICS if m in timed[side]},
                    **{m: memory[m] for m in MEMORY_METRICS if m in memory},
                    "result": first,
                })
    pycache.cleanup()

    record = {
        "script": "benchmarks/bench.py",
        "groups": groups,
        "repeat": args.repeat,
        "timeout_s": args.timeout,
        "conditions": {
            "time": f"{', '.join(TIME_METRICS)} from children under glibc's default malloc",
            "memory": f"{', '.join(MEMORY_METRICS)} from separate children with "
                      f"MALLOC_MMAP_THRESHOLD_={MMAP_THRESHOLD}",
            "repeat": "each stage ran --repeat timed and --repeat memory children per side",
            "threads": f"children on CPU {cpu} with {', '.join(THREAD_VARS)} = 1, except "
                       f"{', '.join(SHELL)}: on CPUs {sorted(cpus)} with none of them set",
        },
        "host": {
            "machine": platform.machine(),
            "cpus": os.cpu_count(),
            "pinned_cpu": cpu,
            "python": platform.python_version(),
        },
    }
    for side in sides:
        record[side] = {k: summarize(rs, k in timed_out[side]) for k, rs in runs[side].items()}
    if args.before:
        record["paired_change"] = {
            key: paired_change(runs["before"][key], runs["after"][key])
            for key in stages if key not in timed_out["before"] | timed_out["after"]
        }
    if paired:
        record["paired"] = paired
        record["conditions"]["paired"] = (
            "one in-process worker per side on the pinned CPU, requests in ABBA order, "
            "delta2n.clear_caches() before each; stage wall and CPU time"
        )
    if args.out:
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n")

    for key, entry in paired.items():
        print(f"{key}: in process {entry['median_before']:.4f}s -> {entry['median_after']:.4f}s,"
              f" median ratio {entry['median_ratio']}, after won {entry['after_won']} of"
              f" {len(entry['pairs'])} (sign test p = {entry['sign_test_p']:.2g}),"
              f" {entry['worker_pairs']} worker pairs")
    print(table(record))


if __name__ == "__main__":
    main()
