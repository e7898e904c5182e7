import pytest

from delta2n import linalg


@pytest.fixture
def shifted_lifts(monkeypatch):
    """Patch ``linalg._lift_matrix`` to add 1 to the first entry of each L K
    it returns; the fixture's value lists one entry per lift shifted."""
    real, shifted = linalg._lift_matrix, []

    def shift(residue, modulus):
        lifted = real(residue, modulus)
        if lifted is None:
            return None
        lk, scale = lifted
        lk = lk.copy()
        lk[0, 0] += 1
        shifted.append(scale)
        return lk, scale

    monkeypatch.setattr(linalg, "_lift_matrix", shift)
    return shifted
