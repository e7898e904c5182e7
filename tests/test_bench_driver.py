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


def test_every_invocation_carries_the_host_speed_reference():
    # a record of any group alone still has python_pass to scale its times by
    bench = _bench()
    for groups in (["graph"], ["homology"], ["cli"], list(bench.GROUPS)):
        stages = bench.stages_of(groups)
        assert next(iter(stages)) == "python_pass"
        assert set(stages) == {"python_pass"}.union(*(bench.GROUPS[g] for g in groups))


def test_child_env_gives_each_side_its_own_bytecode(tmp_path):
    bench = _bench()
    env = bench.child_env(ROOT, tmp_path / "after")
    assert env["PYTHONPATH"] == str(ROOT / "src")
    assert env["PYTHONPYCACHEPREFIX"] == str(tmp_path / "after")
    assert "PYTHONDONTWRITEBYTECODE" not in env


def test_only_memory_runs_fix_the_mmap_threshold(tmp_path, monkeypatch):
    # a dynamic threshold makes peak RSS depend on earlier allocations' order,
    # a fixed one maps and faults in every large temporary: the timed child
    # runs under default malloc, even when bench.py's own environment fixes it
    monkeypatch.setenv("MALLOC_MMAP_THRESHOLD_", "65536")
    bench = _bench()
    timed = bench.child_env(ROOT, tmp_path)
    assert "MALLOC_MMAP_THRESHOLD_" not in timed
    assert "MALLOC_MMAP_THRESHOLD_" not in bench.shell_env(timed)
    memory = bench.memory_env(timed)
    assert memory == dict(timed, MALLOC_MMAP_THRESHOLD_="131072")
    assert set(bench.TIME_METRICS).isdisjoint(bench.MEMORY_METRICS)
    assert "peak_rss_mb" in bench.MEMORY_METRICS and "sys_s" in bench.TIME_METRICS


def test_shell_stages_run_on_every_cpu_with_no_thread_variable(tmp_path):
    # the *_shell stages run the CLI as a shell starts it, so that its own
    # thread default shows: no thread variable, and not on bench.py's one CPU
    bench = _bench()
    assert sorted(bench.SHELL) == sorted(k for k in bench.GROUPS["cli"] if "_shell_" in k)
    for key in bench.SHELL:
        assert bench.GROUPS["cli"][key] == bench.GROUPS["cli"][key.replace("_shell", "")]
    env = bench.shell_env(bench.child_env(ROOT, tmp_path))
    assert not set(bench.THREAD_VARS) & set(env)
    cpus = os.sched_getaffinity(0)
    probe = "import json, os; print(json.dumps({'metadata': {}, 'cpus': sorted(os.sched_getaffinity(0))}))"
    digest = bench.result_digest(json.dumps({"metadata": {}, "cpus": sorted(cpus)}))
    os.sched_setaffinity(0, {min(cpus)})  # as bench.py pins itself
    try:
        record = bench.measure(["-c", probe], env, 60, cpus)
        assert os.sched_getaffinity(0) == {min(cpus)}
    finally:
        os.sched_setaffinity(0, cpus)
    assert record["result"] == digest and record["sys_s"] <= record["cpu_s"]


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


def test_every_timed_run_carries_its_host_probe(tmp_path):
    # a whole --before run of one short stage: each side's timed run of every
    # stage records host_s, and the pairs are also compared as wall_s / host_s
    out = tmp_path / "record.json"
    bench_py = ROOT / "benchmarks" / "bench.py"
    argv = ["bench.py", "tiny", "--repeat", "1", "--before", str(ROOT), "--out", str(out)]
    script = (
        "import importlib.util, sys\n"
        f"spec = importlib.util.spec_from_file_location('bench', {str(bench_py)!r})\n"
        "bench = importlib.util.module_from_spec(spec)\n"
        "spec.loader.exec_module(bench)\n"
        "bench.GROUPS = {'tiny': bench._child('specht', (2,))}\n"
        f"sys.argv = {argv!r}\n"
        "bench.main()\n"
    )
    subprocess.run([sys.executable, "-c", script], check=True, capture_output=True, timeout=120)
    record = json.loads(out.read_text())
    for side in ("before", "after"):
        assert set(record[side]) == {"python_pass", "specht_n2"}
        for stage in record[side].values():
            assert len(stage["host_s"]["runs"]) == 1 and stage["host_s"]["median"] > 0
    for pair in record["paired_change"].values():
        assert pair["wall_s/host_s"]["pairs"] == 1


def test_paired_change_skips_a_zero_base():
    # a short child's system time can read 0: no ratio is taken over it
    bench = _bench()
    before = [{"wall_s": 1.0, "sys_s": 0.0}, {"wall_s": 2.0, "sys_s": 0.0}]
    after = [{"wall_s": 0.5, "sys_s": 0.01}, {"wall_s": 1.0, "sys_s": 0.0}]
    assert bench.paired_change(before, after) == {
        "wall_s": {"median": -0.5, "after_won": 2, "pairs": 2},
        "sys_s": {"median": None, "after_won": 0, "pairs": 2},
    }
    # with host probes, the pair is also compared at the host's speed
    before = [dict(r, host_s=0.1) for r in before]
    after = [dict(r, host_s=h) for r, h in zip(after, (0.05, 0.05))]
    assert bench.paired_change(before, after)["wall_s/host_s"] == {
        "median": 0.0, "after_won": 0, "pairs": 2,
    }
    assert bench.change(0.02, 0.0) is None and bench.change(0.02, 0.01) == 1.0


def test_paired_mode_records_every_pair_and_its_sign_test(tmp_path):
    # two in-process workers, one per side, answer ABBA-ordered requests for a
    # short stage: every pair is kept with its median ratio, wins and p-value
    out = tmp_path / "record.json"
    argv = [str(ROOT / "benchmarks" / "bench.py"), "--paired", "specht_n3", "--rounds", "4",
            "--before", str(ROOT), "--repeat", "1", "--out", str(out)]
    subprocess.run([sys.executable, *argv], check=True, capture_output=True, timeout=120)
    record = json.loads(out.read_text())
    assert set(record["after"]) == {"python_pass"}  # no group runs unless named
    entry = record["paired"]["specht_n3"]
    assert entry["result"] == [1, 2, 1] and len(entry["pairs"]) == 4
    ratios = sorted(p["after"] / p["before"] for p in entry["pairs"])
    assert entry["median_ratio"] == round((ratios[1] + ratios[2]) / 2, 4)
    assert entry["after_won"] == sum(p["after"] < p["before"] for p in entry["pairs"])
    assert 0 < entry["sign_test_p"] <= 1
    assert len(entry["cpu_pairs"]) == 4 and entry["cpu_median_ratio"] > 0
    assert "paired" in record["conditions"]
    # only a graph or homology stage, with its n, runs in a worker
    argv[argv.index("specht_n3")] = "characters_n6"
    assert subprocess.run([sys.executable, *argv], capture_output=True, timeout=60).returncode == 2


def test_sign_test_is_the_two_sided_binomial_tail():
    bench = _bench()
    assert bench.sign_test(10, 10) == bench.sign_test(0, 10) == 2 / 2**10
    assert bench.sign_test(5, 10) == 1.0
    assert bench.sign_test(29, 30) == 2 * 31 / 2**30
