"""Fixed-seed CLI outputs, pinned by the sha256 of their stdout, and every
generator family's graphs, pinned by the sha256 of their contents.

A change that is meant to keep behaviour must keep these bytes; a change
that alters an output on purpose re-records the hash here and says why.
"""

import hashlib

import pytest

from brooks_sim.cli import main
from brooks_sim.graph_core import FAMILIES, generate_instance, mask_of

GOLDEN = {
    "gen": "77670f8859ed0d759de94dbd9db3c4e1317701dd031023c1e0a8a74f5e2e7d26",
    "color": "030d142fefd6ac66dc8ff905c209966ab5794413651999a872600e46b8be92d7",
    "acd": "349b282475844af7278715ffe3a440dee882d7762233a3b3d34c7941cec9ac1b",
    "classify": "330522a1a16604a38c3ad6bba84f71f0f7bdaff14cc11d2470eef8dc90708330",
    "experiment": "c9b3ff4f8694071f59afbbadb1557e7f970ff7cbf71c210909b977495f3dd721",
}

# Per family: the graphs at Delta 16, 27 and 64, seeds 0 and 1, in that order.
GENERATED = {
    "clique_minus_edge": "f6efef47311e6a634dd15e0dd812b20019c83a81b2e15ab08c873b2202affd0c",
    "matched_cliques": "611a73a01d9f082c2161ba41e1db8a976d68fc4de0f58f867a8c60f54f63771c",
    "guarded_pair": "d07bd42aa105c22c621f21ded7b89be6794d3bbcdfbbd62038af9a64a847d2f0",
    "runaway_pair": "2e48b62cb8b7f30c8d358cac74f51995dea31b5b6cddc4363752b0ea65470794",
    "random_gnd": "795d7987087570c6917e731efe4572218828bb24ce180275bc01d5b7d4e1db79",
    "mixed": "2eadb05bcf04eecfa0ddd216ea8da6c1c85fcdcfab121578b02e27195360e781",
}

# random_gnd at Delta 16 past n = 64*(Delta-2), where the generator dedupes
# with lists and the Graph keeps no masks: seeds 0-2 at n=4000 (the sparse_gnd
# benchmark's graphs) and seed 1 at n=16000 (ROADMAP's W4). n=4*Delta above
# pins the side with sets and masks.
LARGE_RANDOM_GND = {
    "n4000-seeds0-2": (
        4000,
        (0, 1, 2),
        "97a4354844c8d93d745521f490cbf4a5cb00b1731b7ebb4166b58bd2f065c447",
    ),
    "n16000-seed1": (
        16000,
        (1,),
        "513f8db1edeecbb21664068ec9cf7e34b510367f8f88070efedcbbac0965d790",
    ),
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


def _graphs_sha256(instances) -> str:
    digest = hashlib.sha256()
    for inst in instances:
        g = inst.graph
        fields = (g.n, g.adj, repr(inst.meta), inst.epsilon_min, inst.epsilon_max)
        digest.update(repr(fields).encode())
    return digest.hexdigest()


def _golden_instances(family):
    return [generate_instance(family, delta, seed) for delta in (16, 27, 64) for seed in (0, 1)]


@pytest.mark.parametrize("family", FAMILIES)
def test_generated_graphs_are_pinned(family):
    assert _graphs_sha256(_golden_instances(family)) == GENERATED[family]


@pytest.mark.parametrize("family", FAMILIES)
def test_generated_graphs_masks_are_their_neighbour_masks(family):
    for inst in _golden_instances(family):
        g = inst.graph
        assert all(g.masks[v] == mask_of(g.adj[v]) for v in range(g.n))


@pytest.mark.parametrize("name", sorted(LARGE_RANDOM_GND))
def test_large_random_gnd_graphs_are_pinned(name):
    n, seeds, expected = LARGE_RANDOM_GND[name]
    instances = [generate_instance("random_gnd", 16, seed, n=n) for seed in seeds]
    assert not any(inst.graph.small_masks for inst in instances)
    assert _graphs_sha256(instances) == expected
