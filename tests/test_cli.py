import csv
import io
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from delta2n import (
    chain_complex,
    clear_caches,
    cli,
    equivariant_homology,
    symmetric_group,
    theta_graphs,
)
from delta2n.chain_complex import CACHE_ENV, build_basis
from delta2n.cli import DEFAULT_SEED
from delta2n.symfunc_check import EulerClassCheck
from delta2n.symmetric_group import ClassFunction, NotACharacterError, partitions_of


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
    assert list(payload["metadata"]["timings"]) == ["bases", "boundaries", "d_squared"]


def test_verify_passes(capsys):
    status, out, _ = _run(capsys, "verify", "--n", "4", "--format", "json")
    assert status == 0
    payload = json.loads(out)
    assert payload["ok"] is True
    assert payload["method_agreement"] is True
    assert all(entry["ok"] for entry in payload["euler_check"])


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
    status, out, _ = _run(capsys, "analyze-d25", "--format", "json")
    assert status == 0
    payload = json.loads(out)
    assert payload["projection_trace"] == "6"
    assert payload["orbit_rank"] == 6
    assert len(payload["h0"]) == 6
    assert all(len(row) == 6 for row in payload["h0"])
    coeffs = {entry["coefficient"] for entry in payload["cycle_support"]}
    assert payload["cycle_support"] and coeffs <= {1, -1}


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


def test_cache_env_default_and_warm_rerun(tmp_path):
    # fresh processes: the in-process matrix memo would otherwise shadow the
    # on-disk cache entirely
    cache = tmp_path / "cx"
    env = _child_env(**{CACHE_ENV: str(cache)})
    cmd = [sys.executable, "-m", "delta2n.cli", "complex", "--n", "4", "--format", "json"]
    cold = subprocess.run(cmd, capture_output=True, text=True, env=env)
    assert cold.returncode == 0
    assert any(cache.iterdir())
    warm = subprocess.run(cmd, capture_output=True, text=True, env=env)
    assert warm.returncode == 0
    assert _payload(cold.stdout) == _payload(warm.stdout)


def test_cache_option_builds_each_boundary_once(capsys, monkeypatch, tmp_path):
    # complex reads d_6 and d_7 through the --cache dir in two stages: each is
    # built once and cached once
    monkeypatch.delenv(CACHE_ENV, raising=False)
    built = []
    real = chain_complex._build_matrix
    monkeypatch.setattr(
        chain_complex, "_build_matrix", lambda n, p: built.append(p) or real(n, p)
    )
    status, _, _ = _run(capsys, "complex", "--n", "5", "--cache", str(tmp_path))
    assert status == 0
    assert sorted(built) == [6, 7]
    assert len(list(tmp_path.iterdir())) == 2
    assert CACHE_ENV not in os.environ


def test_characters_builds_no_global_boundary(capsys, monkeypatch, fresh_caches):
    calls = []

    def record(name, real):
        return lambda *args: calls.append(name) or real(*args)

    for owner, name in [
        (chain_complex, "_build_matrix"),
        (chain_complex, "betti"),
        (cli, "betti"),
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
    status, _, err = _run(capsys, "betti", "--n", "3")
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


def test_negative_seed_rejected(capsys):
    status, _, err = _run(capsys, "betti", "--n", "4", "--seed", "-1")
    assert status == 1
    assert "seed" in err


def test_decompose_rejects_non_character(capsys):
    status, _, err = _run(capsys, "decompose", "--n", "3", "--values", "1,0,0")
    assert status == 1
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


def test_corrupted_parity_table_exits_2(capsys, monkeypatch, fresh_caches):
    # one symmetry's edge parity flipped gives wrong boundary signs
    monkeypatch.delenv(CACHE_ENV, raising=False)
    real = theta_graphs.symmetry_table

    def table(shape, base):
        weights, parity = real(shape, base)
        return weights, parity * np.where(np.arange(len(parity)) == 1, -1, 1)

    monkeypatch.setattr(theta_graphs, "symmetry_table", table)
    status, out, err = _run(capsys, "complex", "--n", "5")
    assert status == 2 and out == ""
    assert "internal consistency failure: d_6 . d_7 != 0 at n=5" in err


def test_missing_basis_key_exits_2(capsys, monkeypatch, fresh_caches):
    # a contraction whose canonical key is not among the row keys, and that
    # has no odd automorphism, left the basis
    monkeypatch.delenv(CACHE_ENV, raising=False)
    real = chain_complex.basis_arrays

    def arrays(n, p):
        out = real(n, p)
        return out._replace(keys=np.delete(out.keys, 5)) if p == 6 else out

    monkeypatch.setattr(chain_complex, "basis_arrays", arrays)
    status, out, err = _run(capsys, "complex", "--n", "5")
    assert status == 2 and out == ""
    assert "internal consistency failure: contraction left the basis at n=5, p=7" in err


def test_n8_cost_warning(capsys, monkeypatch):
    # stub the handler: only the warning plumbing is under test
    stub = cli._COMMANDS["betti"]._replace(handler=lambda config, stages: cli.Result({}, ["stub"]))
    monkeypatch.setitem(cli._COMMANDS, "betti", stub)
    status, out, err = _run(capsys, "betti", "--n", "8")
    assert status == 0
    assert "warning" in err and "n=8" in err


def test_consistency_failure_exits_2(capsys, monkeypatch):
    bad = EulerClassCheck((4,), Fraction(1), Fraction(0), False)
    monkeypatch.setattr(cli, "check_euler", lambda n, top, nxt: [bad])
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


def test_block_dimension_failure_exits_2(capsys, monkeypatch, fresh_caches):
    # dropping one of the two degree-7 orbits halves the isotypic total
    real = equivariant_homology.chain_orbits
    monkeypatch.setattr(
        equivariant_homology, "chain_orbits", lambda n, p: real(n, p)[: 1 if p == 7 else None]
    )
    status, out, err = _run(capsys, "characters", "--n", "5")
    assert status == 2 and out == ""
    assert "isotypic multiplicities of C_7 add up to 30, but dim C_7 = 60" in err


def test_not_a_character_exits_2(capsys, monkeypatch):
    monkeypatch.setattr(cli, "decompose", _raise(NotACharacterError("negative")))
    status, out, err = _run(capsys, "characters", "--n", "4")
    assert status == 2 and out == ""
    assert "internal consistency failure: negative" in err


def _failed_verify_payload(err):
    head, _, body = err.partition("\n")
    assert head == "internal consistency failure: verification failed:"
    return json.loads(body)


def _plus_trivial(f):
    return f + ClassFunction.from_row(f.n, [1] * len(partitions_of(f.n)))


def test_euler_check_catches_corrupt_chain_character(capsys, monkeypatch):
    real = equivariant_homology.chain_character
    monkeypatch.setattr(
        equivariant_homology,
        "chain_character",
        lambda n, p: _plus_trivial(real(n, p)) if p == n + 1 else real(n, p),
    )
    status, _, err = _run(capsys, "verify", "--n", "5", "--format", "json")
    assert status == 2
    payload = _failed_verify_payload(err)
    assert not any(entry["ok"] for entry in payload["euler_check"])
    assert payload["method_agreement"] is True


def test_method_agreement_catches_corrupt_top_character(capsys, monkeypatch):
    # top cancels in the Euler check, so only the kernel-trace oracle sees it;
    # the oracle runs once
    real_top = cli.homology_character_top
    monkeypatch.setattr(
        cli, "homology_character_top", lambda *args: _plus_trivial(real_top(*args))
    )
    calls = []
    real_oracle = cli.kernel_character_oracle
    monkeypatch.setattr(
        cli, "kernel_character_oracle", lambda *args: calls.append(args) or real_oracle(*args)
    )
    status, _, err = _run(capsys, "verify", "--n", "5", "--format", "json")
    assert status == 2
    payload = _failed_verify_payload(err)
    assert all(entry["ok"] for entry in payload["euler_check"])
    assert payload["method_agreement"] is False
    assert len(calls) == 1
