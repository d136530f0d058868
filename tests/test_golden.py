"""The package's answers match the digests stored in `golden.json`.

See `golden.py` for what is pinned and how to regenerate the file. A
mismatch names the first item that differs; numpy's and scipy's
floating-point paths feed the digests, so the message also names their
versions when they differ from the ones the file was made with.
"""
import json

import pytest

from golden import GOLDEN, GROUPS, combined, group_digests, versions

STORED = json.loads(GOLDEN.read_text())

# The simulation digests every change since the lockstep sweep has reported.
SIMULATION_COMBINED = {
    "simulate certified": "a8057ea02c725bfdeaeb3eb3e5fe235f80f08a466c43989e052c1aa1eeef01aa",
    "simulate naive": "870c0b32de5a16b2f3db9a78b8f1746049360833ba6a097dbed7fd320060d14c",
}


def _version_note() -> str:
    if STORED["versions"] == versions():
        return ""
    return f" (digests made with {STORED['versions']}, running {versions()})"


@pytest.mark.parametrize("group", GROUPS)
def test_answers_match_stored_digests(group):
    stored = STORED["groups"][group]
    got = {label: d.hex() for label, d in group_digests(group).items()}
    assert list(got) == list(stored["items"]), f"{group}: the list of items changed"
    moved = [label for label, d in got.items() if d != stored["items"][label]]
    assert not moved, (
        f"{group}: {len(moved)} of {len(got)} answers moved, first {moved[0]!r}"
        + _version_note()
    )


@pytest.mark.parametrize("group", sorted(SIMULATION_COMBINED))
def test_stored_simulation_digests_are_the_reported_ones(group):
    stored = STORED["groups"][group]
    raw = {label: bytes.fromhex(d) for label, d in stored["items"].items()}
    assert stored["combined"] == combined(raw) == SIMULATION_COMBINED[group]
