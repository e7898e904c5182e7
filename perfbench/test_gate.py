"""Self-test of the benchmark's output gate and of its metric declarations.

The gate must be able to fail: a corrupted character row, a non-zero exit and
a wrong boundary nnz each count as a failed run.
"""

import copy
import json
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import gate  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402

SEED = 5


def _characters_stdout():
    golden = gate.GOLDENS["characters-n6"]
    blocks = [
        {"n": 6, "degree": golden[part]["degree"], "classes": golden["classes"],
         "values": list(golden[part]["values"]),
         "decomposition": dict(golden[part]["decomposition"]), "seed": SEED}
        for part in ("top", "next")
    ]
    return {"metadata": {"seed": SEED}, "characters": blocks}


def _verify_stdout():
    classes = gate.GOLDENS["verify-n5"]["classes"]
    return {
        "metadata": {"seed": SEED}, "n": 5, "ok": True, "method_agreement": True,
        "euler_check": [{"class": c, "coefficient": "0", "bracket": "0", "ok": True}
                        for c in classes],
    }


def _complex_stdout():
    golden = gate.GOLDENS["complex-n7"]
    return {"metadata": {"seed": SEED}, "n": 7, **copy.deepcopy(golden)}


GOOD = {
    "characters-n6": _characters_stdout,
    "verify-n5": _verify_stdout,
    "complex-n7": _complex_stdout,
}


@pytest.mark.parametrize("kind", sorted(GOOD))
def test_golden_output_passes(kind):
    assert gate.check(kind, 0, json.dumps(GOOD[kind]()), SEED) is None


@pytest.mark.parametrize("kind", sorted(GOOD))
def test_nonzero_exit_fails(kind):
    assert gate.check(kind, 2, json.dumps(GOOD[kind]()), SEED) is not None


def test_corrupted_character_row_fails():
    payload = _characters_stdout()
    payload["characters"][0]["values"][3] += 7
    assert "character row" in gate.check("characters-n6", 0, json.dumps(payload), SEED)


def test_corrupted_decomposition_fails():
    payload = _characters_stdout()
    payload["characters"][1]["decomposition"]["4,1,1"] = 2
    assert gate.check("characters-n6", 0, json.dumps(payload), SEED) is not None


def test_wrong_nnz_fails():
    payload = _complex_stdout()
    payload["boundary_nnz"]["9"] -= 1
    assert "boundary_nnz" in gate.check("complex-n7", 0, json.dumps(payload), SEED)


def test_failed_euler_entry_fails():
    payload = _verify_stdout()
    payload["euler_check"][2]["ok"] = False
    assert gate.check("verify-n5", 0, json.dumps(payload), SEED) is not None


def test_truncated_output_fails():
    text = json.dumps(_complex_stdout())
    assert gate.check("complex-n7", 0, text[: len(text) // 2], SEED) is not None


def test_benchmark_json_matches_the_code():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        m[:3] for m in tracer.PER_LAYER
    ]


def test_missing_function_is_absent_not_fatal():
    trace = {
        "spans": [{"name": "cli.main", "start": 0.0, "end": 2.0, "parent": -1},
                  {"name": "chain_complex.betti", "start": 0.5, "end": 1.5, "parent": 0}],
        "counters": {"chain_complex.betti.calls": 1},
        "absent": ["kernels.project_stream"],
    }
    metrics, absent = tracer.layer_metrics(trace)
    assert metrics["cli.self_s"][0] == pytest.approx(1.0)
    assert metrics["chain_complex.betti.s"][0] == pytest.approx(1.0)
    assert metrics["kernels.project_stream.s"][0] == 0
    assert "kernels.project_stream.gathers" in absent
    assert "chain_complex.betti.s" not in absent


def test_tracer_survives_missing_and_private_targets(tmp_path):
    script = (
        "import sys, tracer\n"
        "tracer.SPANNED += ('kernels.no_such_function', 'linalg._as_int64_modp')\n"
        "tracer.TARGETS = tracer.SPANNED + tracer.COUNTED\n"
        "sys.exit(tracer.main(sys.argv[1:]))\n"
    )
    out = tmp_path / "trace.json"
    argv = ["decompose", "--n", "3", "--values", "1,1,1", "--format", "json"]
    res = subprocess.run(
        [sys.executable, "-c", script, str(out), "test-run", "--", *argv],
        cwd=run.BENCH_DIR, env=run.child_env(1), capture_output=True, text=True, timeout=60,
    )
    assert res.returncode == 0, res.stderr
    assert json.loads(res.stdout)["decomposition"] == {"3": 1}
    trace = json.loads(out.read_text())
    assert trace["absent"] == ["kernels.no_such_function", "linalg._as_int64_modp"]
    assert [s["name"] for s in trace["spans"]] == ["cli.main"]
    assert trace["counters"]["symmetric_group.decompose.calls"] == 1
