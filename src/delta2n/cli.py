"""Command-line front end: enumeration, complexes, Betti numbers, characters,
decompositions, cross-checks, character tables, and the n=5 isotypic analysis.

Exit codes: 0 success, 1 invalid configuration or input, 2 internal
consistency failure (boundary/block/rank/character checks, integer
overflow).
"""

import argparse
import gc
import io
import json
import os
import sys
import time
from typing import Callable, NamedTuple, Optional

from . import (
    InternalConsistencyError,
    MalformedGraphError,
    NotACharacterError,
    RankCertificateError,
    __version__,
)

# every computing layer, and with it numpy, is imported inside the handlers
# that run it: importing this module, parsing the arguments and rejecting a
# bad configuration load none.  complex and enumerate never load the homology
# layer (equivariant_homology, symfunc_check, symmetric_group), and
# characters never loads the labeled complex (chain_complex)

# accepted and echoed in metadata only: no result depends on it
DEFAULT_SEED = 271828
# the BLAS thread counts entry() sets to 1 when none of them is set
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
# the youngest generation's collection threshold entry() sets (default 700):
# at 700, importing numpy alone runs about 50 collections, which find a few
# hundred cyclic objects, five times as many as a whole characters --n 8 after it
GC_THRESHOLD = 20_000


class RunConfig(NamedTuple):
    command: str
    n: Optional[int] = None
    seed: int = DEFAULT_SEED
    cache: Optional[str] = None
    fmt: str = "text"
    degree: Optional[int] = None
    values: Optional[str] = None


class Result(NamedTuple):
    """What a subcommand computed: the JSON payload (without metadata), the
    text lines (without the metadata header) and, for csv, the rows."""

    payload: dict
    lines: list
    rows: Optional[list] = None


class _Stages:
    """Wall-clock accounting per pipeline stage."""

    def __init__(self):
        self.entries = []

    def run(self, name, fn):
        t0 = time.perf_counter()
        out = fn()
        self.entries.append((name, time.perf_counter() - t0))
        return out


def _part_str(lam):
    return ",".join(str(a) for a in lam)


def _character_block(n, classes, degree, values, mults, seed):
    return {
        "n": n,
        "degree": degree,
        "classes": classes,
        "values": [int(v) for v in values],
        "decomposition": {_part_str(lam): int(k) for lam, k in sorted(mults.items())},
        "seed": seed,
    }


def _character_text(title, classes, values, mults):
    widths = [max(len(c), len(str(v))) for c, v in zip(classes, values)]
    head = "  ".join(c.rjust(w) for c, w in zip(classes, widths))
    row = "  ".join(str(v).rjust(w) for v, w in zip(values, widths))
    dec = " + ".join(
        (f"{k}*chi_{_part_str(lam)}" if k > 1 else f"chi_{_part_str(lam)}")
        for lam, k in sorted(mults.items(), reverse=True)
    )
    return [title, head, row, f"decomposition: {dec}"]


def _cmd_enumerate(config, stages):
    from .chain_complex import basis_arrays, build_basis
    from .theta_graphs import to_line

    n = config.n
    degrees = [config.degree] if config.degree is not None else list(range(n, n + 3))
    bases = [stages.run(f"enumerate_p{p}", lambda p=p: basis_arrays(n, p)) for p in degrees]
    payload = {
        "n": n,
        "degrees": [
            {
                "degree": p,
                "classes": basis.dim + basis.odd,
                "with_odd_automorphism": basis.odd,
                "dim": basis.dim,
                "graphs": (
                    [to_line(g) for g in build_basis(n, p).graphs]
                    if config.degree is not None
                    else None
                ),
            }
            for p, basis in zip(degrees, bases)
        ],
    }
    lines = []
    for entry in payload["degrees"]:
        lines.append(
            "degree {degree}: {classes} classes, {with_odd_automorphism} odd, "
            "dim C_{degree} = {dim}".format(**entry)
        )
        if entry["graphs"]:
            lines.extend("  " + s for s in entry["graphs"])
    return Result(payload, lines)


def _cmd_complex(config, stages):
    from .chain_complex import boundary_matrix, build_complex

    n = config.n
    # the boundaries stage enumerates the bases, unless it reads both
    # matrices from a warm --cache; build_complex reuses the memoized
    # boundaries and adds the d^2 = 0 check
    try:
        stages.run(
            "boundaries", lambda: [boundary_matrix(n, p, config.cache) for p in (n + 1, n + 2)]
        )
    except OSError as exc:  # only the cache directory touches the file system
        raise ConfigError(f"cannot use --cache directory {config.cache}: {exc.strerror or exc}")
    cx = stages.run("d_squared", lambda: build_complex(n, config.cache))
    payload = {
        "n": n,
        "dims": {str(p): cx.dims[p] for p in range(n, n + 3)},
        "boundary_nnz": {str(p): cx.d(p).nnz for p in (n + 1, n + 2)},
        "d_squared_zero": True,  # enforced during construction
    }
    lines = [
        "dims: " + ", ".join(f"C_{p} = {payload['dims'][str(p)]}" for p in range(n, n + 3)),
        "boundary nnz: "
        + ", ".join(f"d_{p}: {payload['boundary_nnz'][str(p)]}" for p in (n + 1, n + 2)),
        "d^2 = 0: verified",
    ]
    return Result(payload, lines)


def _cmd_betti(config, stages):
    from .chain_complex import betti

    n = config.n
    top, nxt = stages.run("betti", lambda: betti(n))
    payload = {"n": n, "betti": {f"H_{n + 2}": top, f"H_{n + 1}": nxt}}
    return Result(payload, [f"H_{n + 2}: {top}, H_{n + 1}: {nxt}"])


def _homology_characters(n, stages):
    from .equivariant_homology import homology_character_next, homology_character_top

    top = stages.run("blocks", lambda: homology_character_top(n))
    nxt = stages.run("assemble_next", lambda: homology_character_next(n))
    return top, nxt


def _cmd_characters(config, stages):
    from .equivariant_homology import isotypic_ranks
    from .symfunc_check import check_euler
    from .symmetric_group import partitions_of

    n = config.n
    top, nxt = _homology_characters(n, stages)
    report = check_euler(n, top, nxt)
    failed = [_part_str(e.cycle_type) for e in report if not e.ok]
    if failed:
        raise InternalConsistencyError(
            "Euler characteristic cross-check failed on classes " + ", ".join(failed)
        )
    table = isotypic_ranks(n)  # memoized: the table both rows were read from
    mults_top = {lam: r.top for lam, r in table.items() if r.top}
    mults_nxt = {lam: r.next for lam, r in table.items() if r.next}
    classes = [_part_str(mu) for mu in partitions_of(n)]
    blocks = [
        _character_block(n, classes, n + 2, top.tolist(), mults_top, config.seed),
        _character_block(n, classes, n + 1, nxt.tolist(), mults_nxt, config.seed),
    ]
    lines = _character_text(f"H_{n + 2}:", classes, blocks[0]["values"], mults_top)
    lines += _character_text(f"H_{n + 1}:", classes, blocks[1]["values"], mults_nxt)
    rows = [["degree"] + classes] + [[b["degree"]] + b["values"] for b in blocks]
    return Result({"characters": blocks}, lines, rows)


def _cmd_decompose(config, stages):
    from fractions import Fraction  # only --values is parsed as rationals

    from .symmetric_group import decompose, partitions_of

    n = config.n
    parts = partitions_of(n)
    try:
        raw = [Fraction(v.strip()) for v in config.values.split(",")]
    except (ValueError, ZeroDivisionError, AttributeError):
        raise ConfigError("--values must be a comma-separated list of rationals")
    if len(raw) != len(parts):
        raise ConfigError(
            f"need {len(parts)} values (one per class of S_{n}), got {len(raw)}"
        )
    if any(v.denominator != 1 for v in raw):
        # S_n characters are integer-valued
        raise ConfigError("input is not a character: its values are not all integers")
    f = [int(v) for v in raw]
    try:
        mults = stages.run("decompose", lambda: decompose(n, f))
    except NotACharacterError as exc:
        raise ConfigError(f"input is not a character: {exc}")
    payload = {
        "n": n,
        "decomposition": {_part_str(lam): k for lam, k in sorted(mults.items())},
    }
    lines = [f"chi_{_part_str(lam)}: {k}" for lam, k in sorted(mults.items(), reverse=True)]
    return Result(payload, lines)


def _cmd_verify(config, stages):
    from .equivariant_homology import kernel_character_oracle
    from .symfunc_check import check_euler, ratio_str

    n = config.n
    top, nxt = _homology_characters(n, stages)
    report = stages.run("euler_check", lambda: check_euler(n, top, nxt))
    entries = [
        {
            "class": _part_str(e.cycle_type),
            "coefficient": ratio_str(e.coefficient, e.denominator),
            "bracket": ratio_str(e.bracket, e.denominator),
            "ok": e.ok,
        }
        for e in report
    ]
    agree = None
    if n <= 6:
        oracle = stages.run("kernel_trace", lambda: kernel_character_oracle(n))
        agree = oracle.tolist() == top.tolist()
    ok = all(entry.ok for entry in report) and agree is not False
    payload = {
        "n": n,
        "euler_check": entries,
        "method_agreement": agree,
        "ok": ok,
    }
    lines = [
        f"euler check: z2 against the chain characters of C_{n}..C_{n + 2} "
        f"(H_{n + 2} cancels, so only method agreement checks it)",
        f"{'class':>16}  {'coefficient':>14}  {'bracket':>14}  ok",
    ]
    for entry in entries:
        lines.append(
            f"{entry['class']:>16}  {entry['coefficient']:>14}  "
            f"{entry['bracket']:>14}  {'pass' if entry['ok'] else 'FAIL'}"
        )
    if agree is None:
        lines.append("method agreement: skipped (kernel trace beyond budget)")
    else:
        lines.append(f"method agreement: {'pass' if agree else 'FAIL'}")
    lines.append("verify: " + ("pass" if ok else "FAIL"))
    return Result(payload, lines)


def _cmd_chartable(config, stages):
    from .symmetric_group import character_table, partitions_of

    n = config.n
    table = stages.run("chartable", lambda: character_table(n))
    classes = [_part_str(mu) for mu in partitions_of(n)]
    rows = {_part_str(lam): row for lam, row in zip(partitions_of(n), table.tolist())}
    width = max(len(c) for c in classes) + 2
    lines = [" " * 12 + "".join(c.rjust(width) for c in classes)]
    for lam in reversed(partitions_of(n)):
        vals = rows[_part_str(lam)]
        lines.append(
            _part_str(lam).ljust(12) + "".join(str(v).rjust(width) for v in vals)
        )
    return Result({"n": n, "classes": classes, "rows": rows}, lines)


def _cmd_analyze_d25(config, stages):
    from .chain_complex import build_basis
    from .d25_analysis import (
        equivariant_isomorphism,
        find_isotypic_cycle,
        orbit_basis,
        projection_on_kernel,
    )
    from .symfunc_check import ratio_str
    from .theta_graphs import to_line

    basis = build_basis(5, 7)
    v = stages.run("cycle_search", find_isotypic_cycle)
    support = [(to_line(basis.graphs[i]), int(v[i])) for i in range(basis.dim) if v[i]]
    p311, p_scale = stages.run("projection", lambda: projection_on_kernel((3, 1, 1)))
    vb = stages.run("orbit_basis", lambda: orbit_basis(v))
    mh0, scale = stages.run("intertwiner", lambda: equivariant_isomorphism(vb))
    h0 = [[ratio_str(x, scale) for x in row] for row in mh0.tolist()]
    payload = {
        "n": 5,
        "cycle_support": [{"graph": g, "coefficient": c} for g, c in support],
        "projection_trace": ratio_str(sum(p311.diagonal().tolist()), p_scale),
        "orbit_rank": 6,
        "h0": h0,
    }
    lines = ["isotypic cycle support (graph, coefficient):"]
    lines.extend(f"  {g}  {c:+d}" for g, c in support)
    lines.append(f"projection trace on kernel: {payload['projection_trace']}")
    lines.append("orbit basis rank: 6 (exact)")
    lines.append("h0:")
    lines.extend("  " + "  ".join(x.rjust(4) for x in row) for row in h0)
    return Result(payload, lines)


class Command(NamedTuple):
    handler: Callable
    n_range: Optional[tuple]  # (lo, hi) for --n, or None: the command takes no --n
    options: tuple = ()  # read beyond --seed and --format
    formats: tuple = ("text", "json")


_COMMANDS = {
    "enumerate": Command(_cmd_enumerate, (2, 8), ("--degree",)),
    "complex": Command(_cmd_complex, (2, 8), ("--cache",)),
    "betti": Command(_cmd_betti, (4, 8)),
    "characters": Command(_cmd_characters, (4, 8), formats=("text", "json", "csv")),
    "decompose": Command(_cmd_decompose, (2, 8), ("--values",)),
    "verify": Command(_cmd_verify, (4, 8)),
    "chartable": Command(_cmd_chartable, (2, 8)),
    "analyze-d25": Command(_cmd_analyze_d25, None),
}


class ConfigError(ValueError):
    pass


def _render(config, stages, result):
    if config.fmt == "json":
        timings = {name: round(dt, 6) for name, dt in stages.entries}
        metadata = {"version": __version__, "seed": config.seed, "timings": timings}
        return json.dumps({"metadata": metadata, **result.payload}, indent=2, sort_keys=True) + "\n"
    if config.fmt == "csv":
        import csv  # only --format csv needs it

        buf = io.StringIO()
        csv.writer(buf).writerows(result.rows)
        return buf.getvalue()
    lines = [f"# version={__version__} seed={config.seed}"]
    lines += [f"# stage {name}: {dt:.3f}s" for name, dt in stages.entries]
    return "\n".join(lines + result.lines) + "\n"


def run(config: RunConfig) -> str:
    """Execute one subcommand and return its formatted output."""
    command = _COMMANDS[config.command]
    if command.n_range:
        lo, hi = command.n_range
        if config.n is None:
            raise ConfigError(f"{config.command} requires --n")
        if not lo <= config.n <= hi:
            raise ConfigError(f"--n must be in {lo}..{hi} for {config.command}")
    if config.seed < 0:
        raise ConfigError("--seed must be non-negative")
    stages = _Stages()
    result = command.handler(config, stages)
    out = _render(config, stages, result)
    if result.payload.get("ok") is False:
        raise InternalConsistencyError("verification failed:\n" + out)
    return out


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="delta2n",
        description="Equivariant rational homology of the genus-2 tropical "
        "moduli spaces via full-theta chain complexes.",
    )
    options = {
        "--degree": {"type": int},
        "--cache": {},
        "--values": {},
    }
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in _COMMANDS.items():
        p = sub.add_parser(name)
        if command.n_range:
            p.add_argument("--n", type=int)
        p.add_argument("--seed", type=int, default=DEFAULT_SEED)
        p.add_argument("--format", dest="fmt", choices=command.formats, default="text")
        for option in command.options:
            p.add_argument(option, **options[option])
    return parser


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # --help exits 0, a usage error 2
        return 0 if exc.code == 0 else 1
    try:
        output = run(RunConfig(**vars(args)))
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (
        InternalConsistencyError,
        RankCertificateError,
        MalformedGraphError,
        OverflowError,
    ) as exc:
        print(f"internal consistency failure: {exc}", file=sys.stderr)
        return 2
    sys.stdout.write(output)
    return 0


def entry():
    """Process entry point: run ``main`` on sys.argv and exit with its status.

    Unless the environment sets one of THREAD_VARS, numpy's BLAS runs one
    thread: a pool of one per CPU costs every run start-up and CPU time,
    and no product up to n = 9 gains clear wall time from it.  Every
    float64 product is exact (``int_matmul``), so no result depends on the
    thread count.  From before numpy loads, the cyclic collector runs its
    youngest generation after GC_THRESHOLD net allocations instead of 700."""
    if not any(var in os.environ for var in THREAD_VARS):
        os.environ.update(dict.fromkeys(THREAD_VARS, "1"))  # read when numpy loads
    gc.set_threshold(GC_THRESHOLD, *gc.get_threshold()[1:])
    status = main()
    # nothing is collected after this point, so the final collection would only walk the heap
    gc.freeze()
    sys.exit(status)


if __name__ == "__main__":
    entry()
