"""Fixed-seed CLI outputs, pinned by the sha256 of their stdout.

A change that is meant to keep behaviour must keep these bytes; a change
that alters an output on purpose re-records the hash here and says why.
"""

import hashlib

import pytest

from brooks_sim.cli import main

GOLDEN = {
    "gen": "77670f8859ed0d759de94dbd9db3c4e1317701dd031023c1e0a8a74f5e2e7d26",
    "color": "030d142fefd6ac66dc8ff905c209966ab5794413651999a872600e46b8be92d7",
    "acd": "349b282475844af7278715ffe3a440dee882d7762233a3b3d34c7941cec9ac1b",
    "classify": "330522a1a16604a38c3ad6bba84f71f0f7bdaff14cc11d2470eef8dc90708330",
    "experiment": "c9b3ff4f8694071f59afbbadb1557e7f970ff7cbf71c210909b977495f3dd721",
}

COMMANDS = {
    "color": ["color", "--graph", "g.txt", "--seed", "9"],
    "acd": ["acd", "--graph", "g.txt"],
    "classify": ["classify", "--graph", "g.txt"],
    "experiment": ["experiment", "--deltas", "16,27", "--seeds", "4", "--format", "csv"],
}


def _stdout_sha256(capsys, argv) -> str:
    assert main(argv) == 0
    return hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()


@pytest.fixture
def gen_sha256(tmp_path, monkeypatch, capsys):
    """Writes g.txt into a fresh working directory; returns the sha256 of gen's stdout."""
    monkeypatch.chdir(tmp_path)
    return _stdout_sha256(capsys, ["gen", "--family", "mixed", "--delta", "16", "--out", "g.txt"])


def test_gen_stdout_is_pinned(gen_sha256):
    assert gen_sha256 == GOLDEN["gen"]


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_fixed_seed_stdout_is_pinned(gen_sha256, capsys, name):
    assert _stdout_sha256(capsys, COMMANDS[name]) == GOLDEN[name]
