import csv
import gc
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from delta2n import (
    InternalConsistencyError,
    chain_complex,
    clear_caches,
    cli,
    d25_analysis,
    equivariant_homology,
    symfunc_check,
    symmetric_group,
    theta_graphs,
)
from delta2n.chain_complex import build_basis
from delta2n.cli import DEFAULT_SEED
from delta2n.symfunc_check import EulerClassCheck


def _run(capsys, *argv):
    status = cli.main(list(argv))
    captured = capsys.readouterr()
    return status, captured.out, captured.err


def _child_env(**extra):
    # child interpreters import the same delta2n as this process, installed or not
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path, **extra)


def _payload(out, drop_timings=True):
    payload = json.loads(out)
    if drop_timings:
        payload["metadata"].pop("timings")
    return payload


@pytest.fixture
def fresh_caches():
    # the block ranks are memoized: recompute them under the test's patches,
    # and let no patched result outlive the test
    clear_caches()
    yield
    clear_caches()


# ---------------------------------------------------------------------------
# happy paths


def test_betti_text():
    # exact line shape, library-level golden values
    proc = subprocess.run(
        [sys.executable, "-m", "delta2n.cli", "betti", "--n", "5"],
        capture_output=True,
        text=True,
        env=_child_env(),
    )
    assert proc.returncode == 0
    assert "H_7: 15, H_6: 5" in proc.stdout


def test_betti_json(capsys):
    status, out, _ = _run(capsys, "betti", "--n", "4", "--format", "json")
    assert status == 0
    payload = json.loads(out)
    assert payload["betti"] == {"H_6": 3, "H_5": 1}
    assert set(payload["metadata"]) == {"version", "seed", "timings"}
    assert payload["metadata"]["seed"] == DEFAULT_SEED


def test_characters_json_decompositions(capsys):
    status, out, err = _run(capsys, "characters", "--n", "4", "--format", "json")
    assert status == 0
    assert "advisory" not in err
    blocks = {b["degree"]: b for b in json.loads(out)["characters"]}
    assert blocks[6]["decomposition"] == {"2,1,1": 1}
    assert blocks[5]["decomposition"] == {"4": 1}
    assert blocks[6]["values"] == [3, -1, -1, 0, 1]
    assert blocks[5]["values"] == [1, 1, 1, 1, 1]
    assert blocks[6]["classes"] == ["1,1,1,1", "2,1,1", "2,2", "3,1", "4"]


def test_characters_csv(capsys):
    status, out, _ = _run(capsys, "characters", "--n", "4", "--format", "csv")
    assert status == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["degree", "1,1,1,1", "2,1,1", "2,2", "3,1", "4"]
    assert rows[1] == ["6", "3", "-1", "-1", "0", "1"]
    assert rows[2] == ["5", "1", "1", "1", "1", "1"]


def test_characters_text_decomposition_line(capsys):
    status, out, _ = _run(capsys, "characters", "--n", "4")
    assert status == 0
    assert "decomposition: chi_2,1,1" in out
    assert "decomposition: chi_4" in out


@pytest.mark.parametrize("n", [4, 5, 6, 7])
def test_printed_numbers_agree_with_the_inner_product_reference(capsys, monkeypatch, n):
    # characters, verify and betti read every number from the isotypic_ranks
    # table and call no decompose; each printed decomposition is still the
    # inner-product decomposition of its own row, and the Betti numbers are
    # the dimensions the decompositions give
    reference = symmetric_group.decompose
    monkeypatch.setattr(symmetric_group, "decompose", _raise(AssertionError("decompose called")))
    payloads = {}
    for command in ("characters", "verify", "betti"):
        status, out, err = _run(capsys, command, "--n", str(n), "--format", "json")
        assert status == 0, err
        payloads[command] = json.loads(out)
    dims = {}
    for block in payloads["characters"]["characters"]:
        mults = {
            tuple(map(int, lam.split(","))): k for lam, k in block["decomposition"].items()
        }
        assert mults == reference(n, block["values"])
        dims[f"H_{block['degree']}"] = sum(
            symmetric_group.hook_dimension(lam) * k for lam, k in mults.items()
        )
        assert dims[f"H_{block['degree']}"] == block["values"][0]  # the class 1^n
    assert payloads["betti"]["betti"] == dims


def test_enumerate_text_all_degrees(capsys):
    status, out, _ = _run(capsys, "enumerate", "--n", "4")
    assert status == 0
    for p in (4, 5, 6):
        assert f"dim C_{p} = " in out


def test_enumerate_single_degree_lists_graphs(capsys):
    status, out, _ = _run(
        capsys, "enumerate", "--n", "4", "--degree", "6", "--format", "json"
    )
    assert status == 0
    (entry,) = json.loads(out)["degrees"]
    assert entry["degree"] == 6
    assert entry["dim"] == build_basis(4, 6).dim
    assert len(entry["graphs"]) == entry["dim"]
    assert entry["classes"] == entry["dim"] + entry["with_odd_automorphism"]


def test_complex_reports_dims(capsys):
    status, out, _ = _run(capsys, "complex", "--n", "4", "--format", "json")
    assert status == 0
    payload = json.loads(out)
    assert payload["dims"] == {"4": 0, "5": 4, "6": 6}
    assert payload["d_squared_zero"] is True
    assert list(payload["metadata"]["timings"]) == ["boundaries", "d_squared"]


def test_verify_passes(capsys):
    status, out, _ = _run(capsys, "verify", "--n", "4", "--format", "json")
    assert status == 0
    payload = json.loads(out)
    assert payload["ok"] is True
    assert payload["method_agreement"] is True
    assert all(entry["ok"] for entry in payload["euler_check"])


# the euler_check entries of verify --format json, (class, coefficient,
# bracket, ok), as str(Fraction) wrote them when both sides were Fractions
EULER_ENTRIES = {
    4: [
        ("1,1,1,1", "-1/12", "-1/12", True),
        ("2,1,1", "1/2", "1/2", True),
        ("2,2", "1/4", "1/4", True),
        ("3,1", "1/3", "1/3", True),
        ("4", "0", "0", True),
    ],
    5: [
        ("1,1,1,1,1", "1/12", "1/12", True),
        ("2,1,1,1", "1/6", "1/6", True),
        ("2,2,1", "-1/4", "-1/4", True),
        ("3,1,1", "1/6", "1/6", True),
        ("3,2", "-1/6", "-1/6", True),
        ("4,1", "0", "0", True),
        ("5", "0", "0", True),
    ],
    6: [
        ("1,1,1,1,1,1", "-1/12", "-1/12", True),
        ("2,1,1,1,1", "0", "0", True),
        ("2,2,1,1", "-3/4", "-3/4", True),
        ("2,2,2", "-1/6", "-1/6", True),
        ("3,1,1,1", "0", "0", True),
        ("3,2,1", "0", "0", True),
        ("3,3", "-1/6", "-1/6", True),
        ("4,1,1", "0", "0", True),
        ("4,2", "0", "0", True),
        ("5,1", "0", "0", True),
        ("6", "1/6", "1/6", True),
    ],
}


@pytest.mark.parametrize("n", sorted(EULER_ENTRIES))
def test_verify_euler_entries_pinned(capsys, n):
    status, out, _ = _run(capsys, "verify", "--n", str(n), "--format", "json")
    assert status == 0
    entries = json.loads(out)["euler_check"]
    got = [(e["class"], e["coefficient"], e["bracket"], e["ok"]) for e in entries]
    assert got == EULER_ENTRIES[n]


def test_chartable_json(capsys):
    status, out, _ = _run(capsys, "chartable", "--n", "3", "--format", "json")
    assert status == 0
    payload = json.loads(out)
    assert payload["classes"] == ["1,1,1", "2,1", "3"]
    assert payload["rows"] == {
        "3": [1, 1, 1],
        "2,1": [2, 0, -1],
        "1,1,1": [1, -1, 1],
    }


def test_decompose_sum_of_irreducibles(capsys):
    status, out, _ = _run(capsys, "decompose", "--n", "3", "--values", "3,1,0")
    assert status == 0
    assert "chi_3: 1" in out
    assert "chi_2,1: 1" in out


def test_analyze_d25(capsys):
    # the whole payload, metadata removed, byte for byte: the cycle support,
    # the projection trace and every entry of h0 as the CLI writes it
    status, out, _ = _run(capsys, "analyze-d25", "--format", "json")
    assert status == 0
    payload = json.loads(out)
    payload.pop("metadata")
    golden = (Path(__file__).parent / "data" / "analyze_d25.json").read_text()
    assert json.dumps(payload, indent=2, sort_keys=True) + "\n" == golden
    assert payload["projection_trace"] == "6" and payload["orbit_rank"] == 6


def test_analyze_d25_fails_when_no_cycle_is_found(capsys, monkeypatch):
    monkeypatch.setattr(d25_analysis, "scaled_projection", lambda lam, x: 0 * x)
    status, out, err = _run(capsys, "analyze-d25", "--format", "json")
    assert status == 2 and out == ""
    assert "no (3,1,1)-isotypic cycle" in err


@pytest.mark.parametrize(
    "error", [d25_analysis.DegenerateVectorError, d25_analysis.WrongIsotypeError]
)
def test_analyze_d25_failure_exits_2(capsys, monkeypatch, error):
    monkeypatch.setattr(d25_analysis, "orbit_basis", _raise(error("stub failure")))
    status, out, err = _run(capsys, "analyze-d25")
    assert status == 2 and out == ""
    assert "internal consistency failure: stub failure" in err


# ---------------------------------------------------------------------------
# the process entry point


def test_entry_point_prints_what_main_returns(capsys):
    argv = ["characters", "--n", "5", "--format", "json"]
    proc = subprocess.run(
        [sys.executable, "-m", "delta2n.cli", *argv],
        capture_output=True,
        text=True,
        env=_child_env(),
    )
    assert proc.returncode == 0, proc.stderr
    status, out, _ = _run(capsys, *argv)
    assert status == 0
    assert _payload(proc.stdout) == _payload(out)


def test_entry_point_rejects_an_unknown_option():
    proc = subprocess.run(
        [sys.executable, "-m", "delta2n.cli", "betti", "--n", "4", "--frobnicate"],
        capture_output=True,
        text=True,
        env=_child_env(),
    )
    assert proc.returncode == 1 and proc.stdout == ""


def test_help_exits_0_with_the_usage_on_stdout():
    for argv in (["--help"], ["characters", "--help"]):
        proc = subprocess.run(
            [sys.executable, "-m", "delta2n.cli", *argv],
            capture_output=True,
            text=True,
            env=_child_env(),
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("usage: delta2n") and proc.stderr == ""


@pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
def test_a_closed_pipe_exits_1_without_a_traceback(unbuffered):
    # the reader is gone before the first byte: unbuffered, the write itself
    # fails; buffered, the flush before the exit does
    env = {k: v for k, v in _child_env().items() if k != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "delta2n.cli", "chartable", "--n", "6"],
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 1 and proc.stderr == ""


def test_entry_flushes_buffered_output_before_it_exits(capsys, tmp_path):
    # a regular file is fully buffered, and entry() ends with os._exit, which
    # flushes nothing itself: every byte must be written before it
    argv = ["enumerate", "--n", "6", "--degree", "8"]
    path = tmp_path / "out.txt"
    with path.open("w") as out:
        proc = subprocess.run(
            [sys.executable, "-m", "delta2n.cli", *argv], stdout=out, env=_child_env()
        )
    assert proc.returncode == 0
    status, want, _ = _run(capsys, *argv)
    assert status == 0 and len(want) > 8192
    got = path.read_text()
    assert [ln for ln in got.splitlines() if not ln.startswith("# stage")] == [
        ln for ln in want.splitlines() if not ln.startswith("# stage")
    ]


@pytest.mark.parametrize(
    "preset, added",
    [({}, dict.fromkeys(cli.THREAD_VARS, "1")), ({"OMP_NUM_THREADS": "2"}, {})],
    ids=["none-set", "omp-set"],
)
def test_entry_sets_one_blas_thread_unless_a_thread_count_is_set(preset, added):
    # the variables must be in place before numpy loads, which happens only
    # inside a handler, and a thread count the user chose is left alone
    script = """
import json, os, sys
from delta2n import cli
before = dict(os.environ)
def main():
    after = dict(os.environ)
    print(json.dumps({
        "numpy": "numpy" in sys.modules,
        "changed": {k: v for k, v in after.items() if before.get(k) != v},
        "removed": sorted(before.keys() - after.keys()),
    }))
    return 0
cli.main = main
cli.entry()
"""
    env = {k: v for k, v in _child_env().items() if k not in cli.THREAD_VARS}
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env={**env, **preset}
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {"numpy": False, "changed": added, "removed": []}


def test_main_leaves_the_heap_unfrozen(capsys):
    # only the process entry point freezes; tests and tracers call main in-process
    before = gc.get_freeze_count()
    assert _run(capsys, "betti", "--n", "4")[0] == 0
    assert gc.get_freeze_count() == before


def test_console_script_and_main_block_call_one_entry_function():
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(cli.__file__).resolve().parents[2] / "pyproject.toml"
    target = tomllib.loads(pyproject.read_text())["project"]["scripts"]["delta2n"]
    module, func = target.split(":")
    assert module == cli.__name__ and callable(getattr(cli, func))
    main_block = Path(cli.__file__).read_text().split('if __name__ == "__main__":')[1]
    assert main_block.strip() == f"{func}()"


def test_complex_and_enumerate_load_only_the_graph_layer(tmp_path):
    # neither command runs the homology layer, naming a cache file needs no
    # hashlib, whose _hashlib maps OpenSSL's libcrypto, and only decompose
    # parses rationals, so fractions and the decimal it imports stay unloaded
    script = f"""
import contextlib, io, sys
from delta2n import cli
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main(["complex", "--n", "5", "--cache", {str(tmp_path)!r}]) == 0
    assert cli.main(["enumerate", "--n", "4"]) == 0
prefixes = ("delta2n", "_hashlib", "fractions", "decimal", "_decimal")
print(*sorted(m for m in sys.modules if m.startswith(prefixes)))
"""
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=_child_env()
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == [
        "delta2n",
        "delta2n.chain_complex",
        "delta2n.cli",
        "delta2n.linalg",
        "delta2n.theta_graphs",
    ]
    assert len(list(tmp_path.iterdir())) == 2


def test_characters_and_verify_load_only_the_orbit_layer():
    # the blocks read orbit representatives alone and the Euler check compares
    # integers, so neither the labeled complex nor fractions (with the decimal
    # it imports) is loaded; verify's kernel-trace oracle, which reads the
    # global boundary, runs only up to n = 6.  analyze-d25 reads the labeled
    # complex, but its rationals are integer matrices over a scale, so it
    # loads no fractions either
    script = """
import contextlib, io, sys
prefixes = ("delta2n", "fractions", "decimal", "_decimal")
print(*sorted(m for m in sys.modules if m.startswith(prefixes)))
from delta2n import cli
print(*sorted(m for m in sys.modules if m.startswith(prefixes)))
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main(["characters", "--n", "6"]) == 0
    assert cli.main(["verify", "--n", "7"]) == 0
print(*sorted(m for m in sys.modules if m.startswith(prefixes)))
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main(["analyze-d25", "--format", "json"]) == 0
print(*sorted(m for m in sys.modules if m.startswith(prefixes[1:])))
print("delta2n.kernels" in sys.modules)
"""
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=_child_env()
    )
    assert proc.returncode == 0, proc.stderr
    *lines, kernels = proc.stdout.splitlines()
    before, imported, ran, analyzed = (line.split() for line in lines)
    assert before == []
    assert imported == ["delta2n", "delta2n.cli"]
    assert not {"delta2n.chain_complex", "fractions", "decimal", "_decimal"} & set(ran)
    assert analyzed == []
    # no command loads the module kept only for the benchmark's tracer
    assert kernels == "False"


def test_cli_loads_no_numpy_until_a_handler_computes():
    # importing the CLI, printing its help and rejecting a bad --n compute
    # nothing, so they load neither numpy nor any computing layer; argv is
    # read from the command table, so no argument parser (argparse, or the
    # gettext it and getopt import) is loaded either, and only JSON output
    # loads json
    script = """
import contextlib, io, sys
from delta2n import cli
prefixes = ("numpy", "delta2n", "argparse", "gettext", "json")
loaded = lambda: sorted(m for m in sys.modules if m.startswith(prefixes))
print(*loaded())
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    assert cli.main(["--help"]) == 0
    assert cli.main(["characters", "--n", "99"]) == 1
print(*loaded())
"""
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=_child_env()
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["delta2n delta2n.cli"] * 2


def test_only_entry_writes_the_environment():
    # importing every module of the package and running a command in-process
    # leave os.environ as they found it
    script = """
import contextlib, importlib, io, os, pkgutil
import delta2n
before = dict(os.environ)
for info in pkgutil.iter_modules(delta2n.__path__):
    importlib.import_module(f"delta2n.{info.name}")
from delta2n import cli
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main(["characters", "--n", "4"]) == 0
print(dict(os.environ) == before)
"""
    env = {k: v for k, v in _child_env().items() if k not in cli.THREAD_VARS}
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["True"]


def test_only_entry_raises_the_collection_threshold():
    # importing every module and running a command in-process leave the
    # collector's thresholds alone; entry() raises only the youngest one's
    script = """
import contextlib, gc, importlib, io, json, pkgutil
import delta2n
before = gc.get_threshold()
for info in pkgutil.iter_modules(delta2n.__path__):
    importlib.import_module(f"delta2n.{info.name}")
from delta2n import cli
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main(["characters", "--n", "4"]) == 0
untouched = gc.get_threshold()
def main():
    print(json.dumps([before, untouched, gc.get_threshold()]))
    return 0
cli.main = main
cli.entry()
"""
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=_child_env()
    )
    assert proc.returncode == 0, proc.stderr
    before, untouched, during = json.loads(proc.stdout)
    assert untouched == before
    assert during == [cli.GC_THRESHOLD, *before[1:]] != before


def test_package_errors_keep_their_layer_names():
    # the errors live in the package root; a layer's name for the error it
    # raises is the same class, and linalg names only the one it raises
    import delta2n
    from delta2n import linalg

    assert linalg.RankCertificateError is delta2n.RankCertificateError
    assert not hasattr(linalg, "InternalConsistencyError")
    assert theta_graphs.MalformedGraphError is delta2n.MalformedGraphError
    assert symmetric_group.NotACharacterError is delta2n.NotACharacterError


def test_clear_caches_loads_no_module():
    # a module not yet imported holds no memo, so emptying them all, in a
    # fresh process or after a top character, imports nothing
    script = """
import sys
import delta2n
names = ("delta2n.chain_complex", "delta2n.d25_analysis", "fractions", "decimal")
delta2n.clear_caches()
print(*sorted(m for m in names if m in sys.modules))
from delta2n.equivariant_homology import homology_character_top
homology_character_top(5)
delta2n.clear_caches()
print(*sorted(m for m in names if m in sys.modules))
"""
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=_child_env()
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["", ""]


# ---------------------------------------------------------------------------
# determinism and caching


def test_seed_changes_metadata_not_results(capsys):
    _, a, _ = _run(
        capsys, "characters", "--n", "5", "--format", "json", "--seed", "3"
    )
    _, b, _ = _run(
        capsys, "characters", "--n", "5", "--format", "json", "--seed", "99"
    )
    pa, pb = _payload(a), _payload(b)
    assert pa["metadata"]["seed"] == 3
    assert pb["metadata"]["seed"] == 99
    for block_a, block_b in zip(pa["characters"], pb["characters"]):
        assert block_a["values"] == block_b["values"]
        assert block_a["decomposition"] == block_b["decomposition"]


def test_cache_option_warm_rerun_in_fresh_processes(tmp_path):
    # fresh processes: the in-process matrix memo would otherwise shadow the
    # on-disk cache entirely
    cache = tmp_path / "cx"
    cmd = [sys.executable, "-m", "delta2n.cli", "complex", "--n", "4", "--format", "json"]
    cmd += ["--cache", str(cache)]
    cold = subprocess.run(cmd, capture_output=True, text=True, env=_child_env())
    assert cold.returncode == 0
    assert any(cache.iterdir())
    warm = subprocess.run(cmd, capture_output=True, text=True, env=_child_env())
    assert warm.returncode == 0
    assert _payload(cold.stdout) == _payload(warm.stdout)


def test_cache_option_builds_each_boundary_once(capsys, monkeypatch, tmp_path):
    # complex reads d_6 and d_7 through the --cache dir in two stages: each is
    # built once and cached once
    built = []
    real = chain_complex._build_matrix
    monkeypatch.setattr(
        chain_complex, "_build_matrix", lambda n, p: built.append(p) or real(n, p)
    )
    status, _, _ = _run(capsys, "complex", "--n", "5", "--cache", str(tmp_path))
    assert status == 0
    assert sorted(built) == [6, 7]
    assert len(list(tmp_path.iterdir())) == 2


def test_warm_cache_enumerates_no_basis(capsys, monkeypatch, tmp_path, fresh_caches):
    # a warm run checks the cached files against dim C_p by orbit-stabilizer,
    # so it reads both boundaries and builds no basis
    argv = ["complex", "--n", "5", "--format", "json", "--cache", str(tmp_path)]
    status, cold, _ = _run(capsys, *argv)
    assert status == 0
    clear_caches()

    def enumerated(n, shape):
        raise AssertionError(f"a warm run enumerated slot shape {shape} at n={n}")

    monkeypatch.setattr(chain_complex, "_shape_rows", enumerated)
    status, warm, _ = _run(capsys, *argv)
    assert status == 0
    assert _payload(warm) == _payload(cold)


@pytest.mark.parametrize("axis", [0, 1], ids=["rows", "cols"])
def test_cache_file_off_the_orbit_stabilizer_shape_is_rebuilt(
    capsys, monkeypatch, tmp_path, fresh_caches, axis
):
    # d_7's file with one header dimension off by one, its entries still in
    # range: the warm run rebuilds d_7 alone and rewrites its file
    argv = ["complex", "--n", "5", "--format", "json", "--cache", str(tmp_path)]
    _, cold, _ = _run(capsys, *argv)
    path = chain_complex._cache_path(tmp_path, 5, 7)
    good = np.load(path)
    bad = good.copy()
    bad[axis, 0] += 1
    np.save(path, bad)
    clear_caches()
    built = []
    real = chain_complex._build_matrix
    monkeypatch.setattr(
        chain_complex, "_build_matrix", lambda n, p: built.append(p) or real(n, p)
    )
    status, warm, _ = _run(capsys, *argv)
    assert status == 0 and _payload(warm) == _payload(cold)
    assert built == [7]
    assert np.array_equal(np.load(path), good)


def test_old_int64_cache_file_is_rebuilt(capsys, monkeypatch, tmp_path, fresh_caches):
    # files in the int64 format of earlier versions, under the current cache
    # names: foreign at this size, so complex rebuilds and rewrites them in int16
    _, want, _ = _run(capsys, "complex", "--n", "5", "--format", "json")
    paths = []
    for p in (6, 7):
        mat = chain_complex.boundary_matrix(5, p)
        paths.append(chain_complex._cache_path(tmp_path, 5, p))
        old = np.hstack([np.array([[mat.rows], [mat.cols], [0]]), mat.coords])
        np.save(paths[-1], old.astype(np.int64))
    clear_caches()
    status, out, _ = _run(
        capsys, "complex", "--n", "5", "--format", "json", "--cache", str(tmp_path)
    )
    assert status == 0 and _payload(out) == _payload(want)
    assert sorted(tmp_path.iterdir()) == sorted(paths)
    assert all(np.load(path).dtype == np.int16 for path in paths)


@pytest.mark.parametrize("below", [[], ["sub"]], ids=["file", "below_file"])
def test_unusable_cache_dir_is_config_error(capsys, tmp_path, below):
    (tmp_path / "file").write_text("not a directory\n")
    cache = tmp_path.joinpath("file", *below)
    status, out, err = _run(capsys, "complex", "--n", "5", "--cache", str(cache))
    assert status == 1 and out == ""
    assert err.startswith(f"error: cannot use --cache directory {cache}: ")
    assert err.count("\n") == 1


def test_characters_builds_no_global_boundary(capsys, monkeypatch, fresh_caches):
    calls = []

    def record(name, real):
        return lambda *args: calls.append(name) or real(*args)

    for owner, name in [
        (chain_complex, "_build_matrix"),
        (chain_complex, "betti"),
        (equivariant_homology, "act"),
        (equivariant_homology, "kernel_exact"),
    ]:
        monkeypatch.setattr(owner, name, record(name, getattr(owner, name)))
    status, out, _ = _run(capsys, "characters", "--n", "5", "--format", "json")
    assert status == 0
    assert {b["degree"]: b["values"] for b in json.loads(out)["characters"]} == {
        7: [15, 3, -1, 0, 0, -1, 0],
        6: [5, 1, 1, -1, 1, -1, 0],
    }
    assert calls == []


# ---------------------------------------------------------------------------
# errors and warnings


def test_missing_n_is_config_error(capsys):
    status, _, err = _run(capsys, "betti")
    assert status == 1
    assert "requires --n" in err


def test_n_out_of_range(capsys):
    for n in ("3", "9"):
        status, _, err = _run(capsys, "betti", "--n", n)
        assert status == 1
        assert "must be in 4..8" in err


def test_unknown_command(capsys):
    assert _run(capsys, "frobnicate")[0] == 1


_REJECTED = [
    *[[cmd, "--n", "4", "--format", "csv"] for cmd in
      ("enumerate", "complex", "betti", "verify", "chartable")],
    ["decompose", "--n", "3", "--values", "3,1,0", "--format", "csv"],
    ["analyze-d25", "--format", "csv"],
    *[[cmd, "--n", "4", "--cache", "DIR"] for cmd in ("betti", "characters", "verify")],
    ["analyze-d25", "--cache", "DIR"],
    *[[cmd, "--n", "4", "--degree", "5"] for cmd in ("complex", "betti", "characters")],
    ["analyze-d25", "--n", "5"],
    ["characters", "--n", "4", "--method", "projection"],
    ["verify", "--n", "4", "--method", "kernel-trace"],
]
_ACCEPTED = [
    ["characters", "--n", "4", "--format", "csv"],
    ["complex", "--n", "4", "--cache", "DIR"],
]


@pytest.mark.parametrize(
    "argv, status", [(a, 1) for a in _REJECTED] + [(a, 0) for a in _ACCEPTED]
)
def test_each_command_accepts_only_the_options_it_reads(capsys, tmp_path, argv, status):
    argv = [str(tmp_path) if a == "DIR" else a for a in argv]
    assert _run(capsys, *argv)[0] == status


def test_an_option_value_may_follow_an_equals_sign(capsys):
    status, spaced, _ = _run(capsys, "characters", "--n", "6", "--format", "json")
    assert status == 0
    status, joined, _ = _run(capsys, "characters", "--n=6", "--format=json")
    assert status == 0
    assert _payload(joined) == _payload(spaced)


@pytest.mark.parametrize("command", list(cli._COMMANDS))
def test_help_after_any_command_prints_the_usage(capsys, command):
    for flag in ("-h", "--help"):
        status, out, err = _run(capsys, command, flag)
        assert status == 0 and err == ""
        assert out.startswith("usage: delta2n")


def test_usage_names_every_command_and_its_options(capsys):
    _, usage, _ = _run(capsys, "--help")
    # one line per command, indented two spaces: its name, then its options
    rows = [ln.split() for ln in usage.splitlines() if ln[:2] == "  " and ln[2:3].isalpha()]
    lines = {name: words for name, *words in rows}
    assert list(lines) == list(cli._COMMANDS)
    for name, command in cli._COMMANDS.items():
        options = {word for word in lines[name] if word.startswith("--")}
        want = {*command.options, "--format"} | ({"--n"} if command.n_range else set())
        assert options == want
        assert "|".join(command.formats) in lines[name]
    assert "--seed" in usage


@pytest.mark.parametrize(
    "argv, message",
    [
        (["betti", "--n", "x"], "--n must be an integer"),
        (["betti", "--n", "4", "--seed", "1.5"], "--seed must be an integer"),
        (["betti", "--n"], "--n needs a value"),
        (["betti", "--n", "4", "extra"], "does not take 'extra'"),
        (["enumerate", "--n", "4", "--deg", "5"], "does not take '--deg'"),
    ],
    ids=["n-not-int", "seed-not-int", "trailing-n", "positional", "abbreviated"],
)
def test_a_malformed_argument_exits_1_with_one_error_line(capsys, argv, message):
    # no abbreviation of an option is accepted: --deg is not --degree
    status, out, err = _run(capsys, *argv)
    assert status == 1 and out == ""
    assert err.startswith("error: ") and message in err and err.count("\n") == 1


def test_negative_seed_rejected(capsys):
    status, _, err = _run(capsys, "betti", "--n", "4", "--seed", "-1")
    assert status == 1
    assert "seed" in err


def test_decompose_rejects_non_character(capsys):
    status, _, err = _run(capsys, "decompose", "--n", "3", "--values", "1,0,0")
    assert status == 1
    assert "not a character" in err


def test_decompose_rejects_non_integer_values(capsys):
    status, out, err = _run(capsys, "decompose", "--n", "4", "--values", "1/2,0,0,0,0")
    assert status == 1 and out == ""
    assert "not a character" in err


def test_decompose_wrong_length(capsys):
    status, _, err = _run(capsys, "decompose", "--n", "3", "--values", "1,1")
    assert status == 1
    assert "need 3 values" in err


def test_decompose_unparseable_values(capsys):
    status, _, err = _run(capsys, "decompose", "--n", "3", "--values", "1,zebra,0")
    assert status == 1
    assert "comma-separated" in err


def test_corrupted_specht_generator_exits_2(capsys, monkeypatch, fresh_caches):
    # one wrong entry in one generator must end the run with status 2 and a
    # message, not a traceback
    real = symmetric_group._substitute

    def corrupt(e, b):
        x = real(e, b)
        x[0, -1] += 1
        return x

    monkeypatch.setattr(symmetric_group, "_substitute", corrupt)
    status, out, err = _run(capsys, "characters", "--n", "5")
    assert status == 2
    assert out == ""
    assert "internal consistency failure" in err and "E X = B" in err


def test_swapped_multiplicities_of_equal_dimension_exit_2(capsys, monkeypatch, fresh_caches):
    # (4,1) and (2,1,1,1) both have dimension 4, so swapping their
    # multiplicities in C_6 (3 and 1) keeps sum_lam d_lam m_lam = dim C_6;
    # the character of C_6 on the other classes tells them apart
    real = equivariant_homology._pair_ranks
    swap = {(4, 1): (2, 1, 1, 1), (2, 1, 1, 1): (4, 1)}

    def swapped(members, n, reps=None):
        out = real(members, n, reps)
        for lam in set(swap) & set(out):
            mults = list(out[lam].mults)
            mults[1] = real((swap[lam],), n, reps)[swap[lam]].mults[1]
            out[lam] = out[lam]._replace(mults=tuple(mults))
        return out

    monkeypatch.setattr(equivariant_homology, "_pair_ranks", swapped)
    status, out, err = _run(capsys, "characters", "--n", "5")
    assert status == 2 and out == ""
    assert "internal consistency failure: isotypic multiplicities of C_6" in err


@pytest.mark.parametrize(
    "slot, failure",
    [((0, 1, 3, 2, 4, 5), "does not give a projection"), ((0, 3, 1, 2, 5, 4), "d_7 . d_8 != 0")],
    ids=["stabilizer_slot", "boundary_slot"],
)
def test_flipped_twist_sign_of_one_slot_exits_2(capsys, monkeypatch, fresh_caches, slot, failure):
    # the conjugate member weights rho of each slot by the slot's parity in
    # the plan: one slot of the wrong sign breaks P_o^2 = |H_o| P_o where a
    # stabilizer names it, and d_{n+1} d_{n+2} = 0 where only a boundary term does
    real = equivariant_homology.perm_parity

    def flipped(perm):
        return -real(perm) if tuple(perm) == slot else real(perm)

    monkeypatch.setattr(equivariant_homology, "perm_parity", flipped)
    status, out, err = _run(capsys, "characters", "--n", "6")
    assert status == 2 and out == ""
    assert err.startswith("internal consistency failure: ") and failure in err


def _flip_last_sign(stab):
    *rest, (h, eps) = stab
    return (*rest, (h, -eps))


@pytest.mark.parametrize(
    "mutate", [_flip_last_sign, lambda stab: stab[:-1]], ids=["flip_one_sign", "drop_one_element"]
)
def test_corrupted_stabilizer_fails_the_projection_check(capsys, monkeypatch, fresh_caches, mutate):
    # flipping one eps, or dropping one element, of a signed stabilizer of
    # order >= 3 leaves no signed subgroup (a subset of |H| - 1 elements is
    # one only when |H| = 2), so some P_o = sum_h eps(h) rho(h) is no multiple
    # of a projection: the multiplicity spaces stop the run
    real = equivariant_homology.signed_stabilizer

    def corrupt(rep):
        stab = real(rep)
        return mutate(stab) if len(stab) >= 3 else stab

    monkeypatch.setattr(equivariant_homology, "signed_stabilizer", corrupt)
    with pytest.raises(InternalConsistencyError, match="does not give a projection"):
        equivariant_homology.isotypic_ranks(5)
    status, out, err = _run(capsys, "characters", "--n", "5")
    assert status == 2 and out == ""
    assert "internal consistency failure: stabilizer of" in err
    assert "does not give a projection" in err


def test_malformed_graph_inside_a_run_exits_2(capsys, monkeypatch, fresh_caches):
    # no command takes a graph as input, so a malformed one is an internal fault
    def fail(rep):
        raise theta_graphs.MalformedGraphError(f"{rep} is malformed")

    monkeypatch.setattr(equivariant_homology, "signed_stabilizer", fail)
    status, out, err = _run(capsys, "characters", "--n", "5")
    assert status == 2 and out == ""
    assert "internal consistency failure:" in err and "is malformed" in err


def test_corrupted_parity_table_exits_2(capsys, monkeypatch, fresh_caches):
    # one symmetry's edge parity flipped gives wrong boundary signs
    real = chain_complex.symmetry_table

    def table(shape, base):
        weights, parity = real(shape, base)
        return weights, parity * np.where(np.arange(len(parity)) == 1, -1, 1)

    monkeypatch.setattr(chain_complex, "symmetry_table", table)
    status, out, err = _run(capsys, "complex", "--n", "5")
    assert status == 2 and out == ""
    assert "internal consistency failure: d_6 . d_7 != 0 at n=5" in err


def test_enumerate_checks_the_orbit_stabilizer_dimension(capsys, monkeypatch, fresh_caches):
    # dropping one of the two degree-7 orbits halves dim C_7 by
    # orbit-stabilizer, against the 60 graphs enumerated
    real = theta_graphs.chain_orbits
    monkeypatch.setattr(
        theta_graphs, "chain_orbits", lambda n, p: real(n, p)[: 1 if p == 7 else None]
    )
    status, out, err = _run(capsys, "enumerate", "--n", "5")
    assert status == 2 and out == ""
    assert "internal consistency failure: enumeration gives dim C_7 = 60, orbit-stabilizer 30" in err


def test_missing_basis_key_exits_2(capsys, monkeypatch, fresh_caches):
    # a contraction whose canonical key is not among the row keys, and that
    # has no odd automorphism, left the basis
    real = chain_complex.basis_arrays

    def arrays(n, p):
        out = real(n, p)
        return out._replace(keys=np.delete(out.keys, 5)) if p == 6 else out

    monkeypatch.setattr(chain_complex, "basis_arrays", arrays)
    status, out, err = _run(capsys, "complex", "--n", "5")
    assert status == 2 and out == ""
    assert "internal consistency failure: contraction left the basis at n=5, p=7" in err


def test_consistency_failure_exits_2(capsys, monkeypatch):
    bad = EulerClassCheck((4,), 1, 0, 1, False)
    monkeypatch.setattr(symfunc_check, "check_euler", lambda n, top, nxt: [bad])
    status, _, err = _run(capsys, "verify", "--n", "4")
    assert status == 2
    assert "internal consistency failure" in err


def _raise(exc):
    def boom(*args, **kwargs):
        raise exc

    return boom


def _corrupt_terms(monkeypatch, degree, corrupt):
    """Pass the boundary terms of every degree-`degree` graph through corrupt."""
    real = equivariant_homology.boundary_terms

    def terms(g):
        out = list(real(g))
        return corrupt(out) if g.num_edges == degree + 1 else out

    monkeypatch.setattr(equivariant_homology, "boundary_terms", terms)


def test_block_d_squared_failure_exits_2(capsys, monkeypatch, fresh_caches):
    # one flipped contraction sign in d_7 breaks d_6 . d_7 = 0
    _corrupt_terms(monkeypatch, 7, lambda out: [(out[0][0], -out[0][1])] + out[1:])
    status, out, err = _run(capsys, "characters", "--n", "5")
    assert status == 2 and out == ""
    assert "internal consistency failure: d_6 . d_7 != 0 on the" in err


def test_projection_failure_exits_2(capsys, monkeypatch, fresh_caches):
    # the block method's check that d_6 is onto fails
    _corrupt_terms(monkeypatch, 6, lambda out: [])
    status, out, err = _run(capsys, "characters", "--n", "5")
    assert status == 2 and out == ""
    assert "internal consistency failure: d_6 is not onto on the" in err


def test_a_bad_kernel_lift_exits_2(capsys, shifted_lifts, fresh_caches):
    # the blocks of n = 5 take three kernel lifts; each shifted lift fails
    # its check a @ (L K) == 0, so no rank is certified
    status, out, err = _run(capsys, "characters", "--n", "5")
    assert status == 2 and out == ""
    assert "internal consistency failure: kernel reconstruction did not converge" in err
    assert shifted_lifts


def test_block_dimension_failure_exits_2(capsys, monkeypatch, fresh_caches):
    # blocks built without one of the two degree-7 orbits miss half of the
    # isotypic multiplicities of C_7, which the character of C_7 shows
    real = equivariant_homology._pair_ranks

    def ranks(members, n, reps=None):
        reps = tuple(theta_graphs.chain_orbits(n, p) for p in (n, n + 1, n + 2))
        return real(members, n, reps[:2] + (reps[2][:1],))

    monkeypatch.setattr(equivariant_homology, "_pair_ranks", ranks)
    status, out, err = _run(capsys, "characters", "--n", "5")
    assert status == 2 and out == ""
    assert "isotypic multiplicities of C_7 do not give its character at n=5" in err


def _set_top_rank(monkeypatch, lam, rank):
    """Make _pair_ranks give rank(r) as the rank of d_{n+2} on the ``lam`` block."""
    real = equivariant_homology._pair_ranks

    def patched(members, n, reps=None):
        out = real(members, n, reps)
        if lam in out:
            r = out[lam]
            out[lam] = r._replace(ranks=(r.ranks[0], rank(r)))
        return out

    monkeypatch.setattr(equivariant_homology, "_pair_ranks", patched)


def test_not_a_character_exits_2(capsys, monkeypatch, fresh_caches):
    # a rank of d_{n+2} above m_lam(C_{n+2}) leaves k_lam < 0, which no
    # identity on the multiplicities sees: the non-negativity check does
    _set_top_rank(monkeypatch, (3, 1), lambda r: r.mults[2] + 1)
    status, out, err = _run(capsys, "characters", "--n", "4")
    assert status == 2 and out == ""
    assert "internal consistency failure: negative multiplicity" in err
    assert "(3, 1) in H_6 at n=4" in err


def _failed_verify_payload(err):
    head, _, body = err.partition("\n")
    assert head == "internal consistency failure: verification failed:"
    return json.loads(body)


def _plus_trivial(f):
    return f + np.ones_like(f)


def _repeat_first_orbit_of_c_next(monkeypatch):
    """List the first orbit of C_{n+1} twice, for the blocks and the chain
    character alike: the isotypic multiplicities still give the chain
    characters, and the repeated orbit adds its multiplicities to k'_lam
    alone (its copy's rows repeat, so no rank moves), so only the Euler
    identity, against z2, sees the wrong C_{n+1}."""
    real = equivariant_homology.chain_orbits

    def repeated(n, p):
        reps = real(n, p)
        return reps + reps[:1] if p == n + 1 else reps

    monkeypatch.setattr(equivariant_homology, "chain_orbits", repeated)


def test_euler_check_catches_corrupt_chain_character(capsys, monkeypatch, fresh_caches):
    _repeat_first_orbit_of_c_next(monkeypatch)
    status, _, err = _run(capsys, "verify", "--n", "5", "--format", "json")
    assert status == 2
    payload = _failed_verify_payload(err)
    assert [e["class"] for e in payload["euler_check"] if not e["ok"]] == ["1,1,1,1,1", "2,1,1,1"]
    assert payload["method_agreement"] is True


def test_characters_fails_on_corrupt_chain_character(capsys, monkeypatch, fresh_caches):
    _repeat_first_orbit_of_c_next(monkeypatch)
    status, out, err = _run(capsys, "characters", "--n", "5", "--format", "json")
    assert status == 2 and out == ""
    assert err == (
        "internal consistency failure: Euler characteristic cross-check failed "
        "on classes 1,1,1,1,1, 2,1,1,1\n"
    )


@pytest.mark.parametrize("degree, named", [(1, "(2, 1, 1, 1) in H_7"), (2, "(4, 1) in H_7")])
def test_sign_twisted_stabilizers_leave_a_negative_multiplicity(
    capsys, monkeypatch, fresh_caches, degree, named
):
    # eps(h) sgn(h) on the stabilizers of one degree gives multiplicity
    # spaces that the boundary does not respect: the multiplicities still
    # give the (equally corrupted) chain characters, and the blocks pass
    # d^2 = 0 and onto, but their ranks leave one k_lam below zero
    real = equivariant_homology.signed_stabilizer
    corrupt = set(theta_graphs.chain_orbits(5, 5 + degree))

    def twisted(rep):
        stab = real(rep)
        if rep not in corrupt:
            return stab
        return tuple((h, eps * theta_graphs.perm_parity(h)) for h, eps in stab)

    monkeypatch.setattr(equivariant_homology, "signed_stabilizer", twisted)
    status, out, err = _run(capsys, "characters", "--n", "5")
    assert status == 2 and out == ""
    assert f"internal consistency failure: negative multiplicity -1 of S^{named} at n=5" in err


def test_betti_fails_on_corrupt_chain_character(capsys, monkeypatch, fresh_caches):
    # betti runs no Euler check: the multiplicity check is what sees it
    real = equivariant_homology.chain_character
    monkeypatch.setattr(
        equivariant_homology,
        "chain_character",
        lambda n, p: _plus_trivial(real(n, p)) if p == n + 1 else real(n, p),
    )
    status, out, err = _run(capsys, "betti", "--n", "5")
    assert status == 2 and out == ""
    assert "isotypic multiplicities of C_6 do not give its character at n=5" in err


def test_method_agreement_catches_corrupt_top_character(capsys, monkeypatch, fresh_caches):
    # one rank of d_{n+2} too low raises k_lam and k'_lam by one each, so the
    # error cancels in H_{n+1} - H_{n+2} and the Euler check passes on every
    # class: only the kernel-trace oracle sees it, and it runs once.
    # characters runs no oracle and exits 0 under this mutation, as verify
    # does from n = 7, where the oracle is skipped (ROADMAP items 1 and 7)
    _set_top_rank(monkeypatch, (3, 1, 1), lambda r: r.ranks[1] - 1)
    calls = []
    real_oracle = equivariant_homology.kernel_character_oracle
    monkeypatch.setattr(
        equivariant_homology,
        "kernel_character_oracle",
        lambda *args: calls.append(args) or real_oracle(*args),
    )
    status, _, err = _run(capsys, "verify", "--n", "5", "--format", "json")
    assert status == 2
    payload = _failed_verify_payload(err)
    assert all(entry["ok"] for entry in payload["euler_check"])
    assert payload["method_agreement"] is False
    assert len(calls) == 1
