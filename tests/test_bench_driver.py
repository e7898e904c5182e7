"""Smoke test of benchmarks/bench.py: its library stages still run against
the package, so a renamed function breaks this test, not a later benchmark."""

import importlib.util
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

from delta2n.chain_complex import basis_arrays
from delta2n.equivariant_homology import chain_character
from delta2n.symmetric_group import hook_dimension, partitions_of

ROOT = Path(__file__).resolve().parent.parent


def _child_record(stage, n):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    child = subprocess.run(
        [sys.executable, str(ROOT / "benchmarks" / "bench.py"), "--child", stage, str(n)],
        capture_output=True, text=True, env=env, check=True, timeout=60,
    )
    record = json.loads(child.stdout.splitlines()[-1])
    assert record["stage_s"] >= 0
    return record


def _child_result(stage, n):
    return _child_record(stage, n)["result"]


def test_bases_child():
    assert _child_result("bases", 6) == [basis_arrays(6, p).dim for p in (6, 7, 8)]


def test_boundaries_child_reports_the_kept_coords():
    record = _child_record("boundaries", 5)
    assert record["result"] == [60, 180]
    assert record["coords_mb"] == 3 * (60 + 180) * 2 / 2**20  # int16 coords


def test_specht_child():
    assert _child_result("specht", 5) == [hook_dimension(lam) for lam in partitions_of(5)]


def test_chain_characters_child():
    want = [chain_character(5, p).tolist() for p in (5, 6, 7)]
    assert _child_result("chain_characters", 5) == want


def test_top_child():
    assert _child_result("top", 5) == [15, 3, -1, 0, 0, -1, 0]


def _bench():
    spec = importlib.util.spec_from_file_location("bench", ROOT / "benchmarks" / "bench.py")
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    return bench


def test_child_env_gives_each_side_its_own_bytecode(tmp_path):
    bench = _bench()
    env = bench.child_env(ROOT, tmp_path / "after")
    assert env["PYTHONPATH"] == str(ROOT / "src")
    assert env["PYTHONPYCACHEPREFIX"] == str(tmp_path / "after")
    assert "PYTHONDONTWRITEBYTECODE" not in env


def test_child_env_fixes_the_mmap_threshold(tmp_path):
    # a dynamic threshold makes peak RSS depend on earlier allocations' order
    bench = _bench()
    assert bench.child_env(ROOT, tmp_path)["MALLOC_MMAP_THRESHOLD_"] == "131072"


def test_source_stages_compile_the_package_from_source(tmp_path):
    # the children of import_cli_src and characters_src run on a copy of src/
    # with no bytecode to read and none written, as perfbench children do
    # under PYTHONDONTWRITEBYTECODE
    bench = _bench()
    checkout = tmp_path / "checkout"
    shutil.copytree(ROOT / "src", checkout / "src")
    (checkout / "src" / "delta2n" / "__pycache__").mkdir(exist_ok=True)  # stale: not copied
    env = bench.source_env(checkout, tmp_path / "src", bench.child_env(checkout, tmp_path / "pyc"))
    assert env["PYTHONDONTWRITEBYTECODE"] == "1"
    assert "PYTHONPYCACHEPREFIX" not in env
    assert env["PYTHONPATH"] == str(tmp_path / "src")
    assert sorted(bench.FROM_SOURCE) == ["characters_src_n6", "import_cli_src"]
    for key in bench.FROM_SOURCE:
        record = bench.measure(bench.GROUPS["cli"][key], env, 60)
        assert record["wall_s"] > 0
    assert record["result"] is not None  # characters printed its JSON payload
    assert (tmp_path / "src" / "delta2n" / "cli.py").is_file()
    assert not list((tmp_path / "src").rglob("__pycache__"))
