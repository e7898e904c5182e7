"""Output gate: decides whether one `delta2n` child run produced correct output.

The goldens in goldens.json are copies of the acceptance-test values, kept
here so the benchmark never imports from the test suite.  A run that fails
the gate counts toward `failed` and its timing is discarded.
"""

import json
from pathlib import Path

GOLDENS = json.loads((Path(__file__).with_name("goldens.json")).read_text())


def check(kind, returncode, stdout, seed=None):
    """Return None when the run is correct, else a one-line reason."""
    if returncode != 0:
        return f"exit status {returncode}"
    try:
        payload = json.loads(stdout)
    except ValueError as exc:
        return f"output is not JSON: {exc}"
    if not isinstance(payload, dict):
        return "output is not a JSON object"
    if seed is not None and payload.get("metadata", {}).get("seed") != seed:
        return "metadata.seed does not echo the workload seed"
    return _CHECKS[kind](payload, GOLDENS[kind])


def _check_characters(payload, golden):
    blocks = {b.get("degree"): b for b in payload.get("characters", [])}
    for part in ("top", "next"):
        want = golden[part]
        got = blocks.get(want["degree"])
        if got is None:
            return f"no character block for degree {want['degree']}"
        if got.get("classes") != golden["classes"]:
            return f"degree {want['degree']}: class order differs"
        if got.get("values") != want["values"]:
            return f"degree {want['degree']}: character row {got.get('values')} != golden"
        if got.get("decomposition") != want["decomposition"]:
            return f"degree {want['degree']}: decomposition differs from golden"
    return None


def _check_verify(payload, golden):
    if payload.get("ok") is not True:
        return "verify reported ok != true"
    if payload.get("method_agreement") is not True:
        return "method_agreement != true"
    entries = payload.get("euler_check", [])
    if [e.get("class") for e in entries] != golden["classes"]:
        return "euler_check does not cover every class"
    bad = [e.get("class") for e in entries if e.get("ok") is not True]
    if bad:
        return f"euler_check failed on {', '.join(map(str, bad))}"
    return None


def _check_complex(payload, golden):
    for key in ("dims", "boundary_nnz", "d_squared_zero"):
        if payload.get(key) != golden[key]:
            return f"{key} = {payload.get(key)} != golden {golden[key]}"
    return None


_CHECKS = {
    "characters-n6": _check_characters,
    "verify-n5": _check_verify,
    "complex-n7": _check_complex,
}
