"""Traced run of the `delta2n` CLI, timed from outside the library.

Run as a child process:

    python3 perfbench/tracer.py OUT.json RUN_ID -- characters --n 6 --format json

It imports `delta2n.cli`, rebinds every `delta2n.*` module's reference to the
functions in TARGETS with recording wrappers, runs `delta2n.cli.main(argv)`
in-process, and writes the spans and counters to OUT.json at exit.  Modules
import each other's functions by name, so a wrapper has to replace every
reference (for example `equivariant_homology.project_stream` as well as
`kernels.project_stream`), not only the defining module's attribute.

A target that no longer exists is recorded as absent instead of failing, so
the tracer keeps working when a refactor deletes or renames a function.

The parent process turns the trace into per-layer metrics with
`layer_metrics()`; PER_LAYER lists them with their unit and direction.
"""

import importlib
import json
import os
import re
import sys
import time

CACHE_ENV = "DELTA2N_CACHE_DIR"

# Functions timed with a span (name, start, end, parent); every span also
# counts its calls.
SPANNED = (
    "cli.main",
    "theta_graphs.enumerate_theta",
    "chain_complex.build_basis",
    "chain_complex.boundary_matrix",
    "chain_complex.build_complex",
    "chain_complex.betti",
    "equivariant_homology.homology_character_top",
    "equivariant_homology.homology_character_next",
    "equivariant_homology.act",
    "equivariant_homology.chain_character",
    "equivariant_homology.isotypic_seed_basis",
    "equivariant_homology.kernel_multiplicity",
    "equivariant_homology.kernel_character_oracle",
    "linalg.kernel_exact",
    "linalg.rank_modp",
    "linalg.is_surjective",
    "kernels.rref_modp",
    "kernels.project_stream",
    "symmetric_group.specht_matrices",
    "symfunc_check.check_euler",
)
# Hot functions (up to ~10^5 calls at n = 7): counted, never spanned.
COUNTED = (
    "theta_graphs.contract",
    "theta_graphs.canonicalize",
    "symmetric_group.decompose",
)
TARGETS = SPANNED + COUNTED

# (metric, unit, better, functions it is measured from)
PER_LAYER = (
    ("theta_graphs.enumerate_theta.s", "s", "lower", ("theta_graphs.enumerate_theta",)),
    ("theta_graphs.contract.calls", "count", "lower", ("theta_graphs.contract",)),
    ("theta_graphs.canonicalize.calls", "count", "lower", ("theta_graphs.canonicalize",)),
    ("chain_complex.build_basis.self_s", "s", "lower", ("chain_complex.build_basis",)),
    ("chain_complex.boundary_matrix.s", "s", "lower", ("chain_complex.boundary_matrix",)),
    ("chain_complex.build_complex.self_s", "s", "lower", ("chain_complex.build_complex",)),
    ("chain_complex.boundary.nnz", "count", "lower", ("chain_complex.boundary_matrix",)),
    ("chain_complex.boundary.cells", "count", "lower", ("chain_complex.boundary_matrix",)),
    ("chain_complex.cache.hits", "count", "higher", ("chain_complex.boundary_matrix",)),
    ("chain_complex.cache.misses", "count", "lower", ("chain_complex.boundary_matrix",)),
    ("chain_complex.cache.bytes_written", "B", "lower", ("chain_complex.boundary_matrix",)),
    ("chain_complex.cache.bytes_read", "B", "lower", ("chain_complex.boundary_matrix",)),
    ("chain_complex.betti.s", "s", "lower", ("chain_complex.betti",)),
    ("chain_complex.betti.calls", "count", "lower", ("chain_complex.betti",)),
    ("equivariant_homology.homology_character_top.s", "s", "lower",
     ("equivariant_homology.homology_character_top",)),
    ("equivariant_homology.homology_character_top.calls", "count", "lower",
     ("equivariant_homology.homology_character_top",)),
    ("equivariant_homology.homology_character_next.s", "s", "lower",
     ("equivariant_homology.homology_character_next",)),
    ("linalg.kernel_exact.s", "s", "lower", ("linalg.kernel_exact",)),
    ("linalg.kernel_exact.calls", "count", "lower", ("linalg.kernel_exact",)),
    ("linalg.kernel_exact.primes", "count", "lower", ("linalg.kernel_exact", "kernels.rref_modp")),
    ("linalg.rank_modp.s", "s", "lower", ("linalg.rank_modp",)),
    ("linalg.rank_modp.calls", "count", "lower", ("linalg.rank_modp",)),
    ("linalg.rank_modp.cells", "count", "lower", ("linalg.rank_modp",)),
    ("linalg.is_surjective.s", "s", "lower", ("linalg.is_surjective",)),
    ("kernels.rref_modp.s", "s", "lower", ("kernels.rref_modp",)),
    ("kernels.rref_modp.calls", "count", "lower", ("kernels.rref_modp",)),
    ("kernels.rref_modp.cells", "count", "lower", ("kernels.rref_modp",)),
    ("kernels.project_stream.s", "s", "lower", ("kernels.project_stream",)),
    ("kernels.project_stream.calls", "count", "lower", ("kernels.project_stream",)),
    ("kernels.project_stream.group_elements", "count", "lower", ("kernels.project_stream",)),
    ("kernels.project_stream.gathers", "count", "lower", ("kernels.project_stream",)),
    ("equivariant_homology.act.s", "s", "lower", ("equivariant_homology.act",)),
    ("equivariant_homology.act.calls", "count", "lower", ("equivariant_homology.act",)),
    ("equivariant_homology.chain_character.s", "s", "lower",
     ("equivariant_homology.chain_character",)),
    ("equivariant_homology.isotypic_seed_basis.s", "s", "lower",
     ("equivariant_homology.isotypic_seed_basis",)),
    ("equivariant_homology.kernel_multiplicity.s", "s", "lower",
     ("equivariant_homology.kernel_multiplicity",)),
    ("equivariant_homology.seed_yield", "ratio", "higher",
     ("equivariant_homology.isotypic_seed_basis", "kernels.project_stream")),
    ("equivariant_homology.seed_yield.kept", "count", "higher",
     ("equivariant_homology.isotypic_seed_basis",)),
    ("equivariant_homology.seed_yield.projected", "count", "lower",
     ("equivariant_homology.isotypic_seed_basis", "kernels.project_stream")),
    ("equivariant_homology.kernel_character_oracle.s", "s", "lower",
     ("equivariant_homology.kernel_character_oracle",)),
    ("equivariant_homology.kernel_character_oracle.self_s", "s", "lower",
     ("equivariant_homology.kernel_character_oracle",)),
    ("symmetric_group.specht_matrices.s", "s", "lower", ("symmetric_group.specht_matrices",)),
    ("symmetric_group.decompose.calls", "count", "lower", ("symmetric_group.decompose",)),
    ("symfunc_check.check_euler.s", "s", "lower", ("symfunc_check.check_euler",)),
    ("cli.main.s", "s", "lower", ("cli.main",)),
    ("cli.self_s", "s", "lower", ("cli.main",)),
    ("trace.total_s", "s", "lower", ()),
    ("trace.overhead_s", "s", "lower", ()),
)


class Recorder:
    """Spans and counters of one traced run, kept in memory until exit."""

    def __init__(self, run_id):
        self.run_id = run_id
        self.spans = []  # [name, start, end, parent index or -1]
        self.stack = []  # indices of the open spans
        self.counters = {}
        self.absent = []
        self.hook_errors = []
        self.boundaries_seen = set()

    def add(self, key, amount=1):
        self.counters[key] = self.counters.get(key, 0) + amount

    def active(self, name):
        return any(self.spans[i][0] == name for i in self.stack)

    def hook(self, name, fn, *args):
        # A hook only derives counters; a failure in one must not end the run.
        try:
            return fn(self, *args)
        except Exception as exc:  # noqa: BLE001 - recorded and reported
            self.hook_errors.append(f"{name}: {type(exc).__name__}: {exc}")
            return None

    def dump(self, path, status):
        payload = {
            "run_id": self.run_id,
            "status": status,
            "spans": [
                {"name": n, "start": s, "end": e, "parent": p, "run_id": self.run_id}
                for n, s, e, p in self.spans
            ],
            "counters": self.counters,
            "absent": self.absent,
            "hook_errors": self.hook_errors,
        }
        with open(path, "w") as fh:
            json.dump(payload, fh)


def _arg(args, kwargs, pos, name):
    if name in kwargs:
        return kwargs[name]
    return args[pos] if len(args) > pos else None


def _shape(a):
    return tuple(getattr(a, "shape", ()))


def _cells(a):
    out = 1
    for s in _shape(a):
        out *= int(s)
    return out


def _cache_listing(cache_dir):
    if not cache_dir or not os.path.isdir(cache_dir):
        return {}
    out = {}
    for entry in os.scandir(cache_dir):
        if entry.is_file():
            st = entry.stat()
            out[entry.name] = (st.st_size, st.st_mtime_ns)
    return out


def _boundary_before(rec, args, kwargs):
    cache_dir = _arg(args, kwargs, 2, "cache_dir") or os.environ.get(CACHE_ENV)
    return cache_dir, _cache_listing(cache_dir)


def _boundary_after(rec, state, args, kwargs, result):
    n, p = _arg(args, kwargs, 0, "n"), _arg(args, kwargs, 1, "p")
    if (n, p) in rec.boundaries_seen:
        return  # served from the in-process memo: no assembly, no cache access
    rec.boundaries_seen.add((n, p))
    rec.add("chain_complex.boundary.nnz", int(result.nnz))
    rec.add("chain_complex.boundary.cells", _cells(result))
    cache_dir, before = state
    if not cache_dir:
        return
    after = _cache_listing(cache_dir)
    written = [size for name, (size, mtime) in after.items() if before.get(name) != (size, mtime)]
    # The cache file of (n, p) carries "n{n}_p{p}" in its name.
    own = re.compile(rf"n{n}_p{p}(?!\d)")
    matching = [size for name, (size, _) in after.items() if own.search(name)]
    if written:
        rec.add("chain_complex.cache.misses")
        rec.add("chain_complex.cache.bytes_written", sum(written))
    elif matching:
        rec.add("chain_complex.cache.hits")
        rec.add("chain_complex.cache.bytes_read", sum(matching))
    else:
        rec.add("chain_complex.cache.misses")


def _rank_modp_after(rec, state, args, kwargs, result):
    rec.add("linalg.rank_modp.cells", _cells(_arg(args, kwargs, 0, "mat")))


def _rref_modp_after(rec, state, args, kwargs, result):
    rec.add("kernels.rref_modp.cells", _cells(_arg(args, kwargs, 0, "a")))
    if rec.active("linalg.kernel_exact"):
        rec.add("linalg.kernel_exact.primes")


def _project_stream_after(rec, state, args, kwargs, result):
    swaps = _arg(args, kwargs, 0, "swaps")
    gidx = _arg(args, kwargs, 1, "gidx")
    x = _arg(args, kwargs, 4, "x")
    group = len(swaps) + 1  # the walk visits every element of S_n once
    dim = _shape(gidx)[-1]
    xs = _shape(x)
    k = xs[1] if len(xs) > 1 else 1
    rec.add("kernels.project_stream.group_elements", group)
    rec.add("kernels.project_stream.gathers", group * dim * k)
    if rec.active("equivariant_homology.isotypic_seed_basis"):
        rec.add("equivariant_homology.seed_yield.projected", k)


def _seed_basis_after(rec, state, args, kwargs, result):
    xs = _shape(result)
    rec.add("equivariant_homology.seed_yield.kept", xs[1] if len(xs) > 1 else 0)


HOOKS = {
    "chain_complex.boundary_matrix": (_boundary_before, _boundary_after),
    "linalg.rank_modp": (None, _rank_modp_after),
    "kernels.rref_modp": (None, _rref_modp_after),
    "kernels.project_stream": (None, _project_stream_after),
    "equivariant_homology.isotypic_seed_basis": (None, _seed_basis_after),
}


def _span_wrapper(rec, name, fn):
    before, after = HOOKS.get(name, (None, None))
    calls = name + ".calls"
    spans, stack = rec.spans, rec.stack

    def wrapper(*args, **kwargs):
        rec.add(calls)
        state = rec.hook(name, before, args, kwargs) if before else None
        idx = len(spans)
        spans.append([name, time.perf_counter(), None, stack[-1] if stack else -1])
        stack.append(idx)
        try:
            result = fn(*args, **kwargs)
        finally:
            spans[idx][2] = time.perf_counter()
            stack.pop()
        if after:
            rec.hook(name, after, state, args, kwargs, result)
        return result

    return wrapper


def _count_wrapper(rec, name, fn):
    counters = rec.counters
    key = name + ".calls"
    counters[key] = 0

    def wrapper(*args, **kwargs):
        counters[key] += 1
        return fn(*args, **kwargs)

    return wrapper


def install(rec):
    """Wrap every target and rebind each `delta2n.*` reference to it."""
    importlib.import_module("delta2n.cli")  # loads every layer the CLI uses
    wrappers = {}  # id(original) -> (original, wrapper)
    for name in TARGETS:
        modname, attr = name.rsplit(".", 1)
        try:
            module = importlib.import_module(f"delta2n.{modname}")
        except ImportError:
            rec.absent.append(name)
            continue
        original = getattr(module, attr, None)
        if attr.startswith("_") or not callable(original):
            rec.absent.append(name)
            continue
        make = _span_wrapper if name in SPANNED else _count_wrapper
        wrappers[id(original)] = (original, make(rec, name, original))
    for modname, mod in list(sys.modules.items()):
        if modname != "delta2n" and not modname.startswith("delta2n."):
            continue
        for key, value in list(vars(mod).items()):
            original, wrapper = wrappers.get(id(value), (None, None))
            if original is value:
                setattr(mod, key, wrapper)


def layer_metrics(trace):
    """Per-layer metrics from a trace file's payload.

    `.s` is inclusive time (a span nested in a span of the same name is not
    counted twice), `.self_s` is the span time not covered by child spans,
    `.calls` and the counters are exact.  Metrics whose function was absent
    are 0 and listed in the returned `absent` list.
    """
    spans = trace["spans"]
    child_time = [0.0] * len(spans)
    for sp in spans:
        if sp["parent"] >= 0:
            child_time[sp["parent"]] += sp["end"] - sp["start"]
    out = {}
    for i, sp in enumerate(spans):
        name, dur = sp["name"], sp["end"] - sp["start"]
        out[name + ".self_s"] = out.get(name + ".self_s", 0.0) + dur - child_time[i]
        parent = sp["parent"]
        while parent >= 0 and spans[parent]["name"] != name:
            parent = spans[parent]["parent"]
        if parent < 0:
            out[name + ".s"] = out.get(name + ".s", 0.0) + dur
    out.update(trace["counters"])
    kept = out.get("equivariant_homology.seed_yield.kept", 0)
    projected = out.get("equivariant_homology.seed_yield.projected", 0)
    out["equivariant_homology.seed_yield"] = kept / projected if projected else 0.0
    out["cli.self_s"] = out.get("cli.main.self_s", 0.0)
    absent = set(trace["absent"])
    metrics, missing = {}, []
    for metric, unit, _, sources in PER_LAYER:
        if absent.intersection(sources):
            missing.append(metric)
        metrics[metric] = (out.get(metric, 0), unit)
    return metrics, missing


def main(argv):
    if len(argv) < 3 or argv[2] != "--":
        print("usage: tracer.py OUT.json RUN_ID -- CLI_ARGS...", file=sys.stderr)
        return 1
    out_path, run_id, cli_argv = argv[0], argv[1], argv[3:]
    rec = Recorder(run_id)
    install(rec)
    cli = sys.modules["delta2n.cli"]
    status = None
    try:
        status = cli.main(cli_argv)
    finally:
        sys.stdout.flush()
        rec.dump(out_path, status)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
