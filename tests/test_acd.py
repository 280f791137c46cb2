import itertools
import random
import re
from collections import Counter

import pytest
from fractions import Fraction

from brooks_sim import acd as acd_module
from brooks_sim import classify as classify_module
from brooks_sim.acd import (
    AlmostCliqueDecomposition,
    compute_acd,
    obs22_check,
    verify_acd,
)
from brooks_sim.errors import AcdVerificationError, BrooksSimError
from brooks_sim.graph_core import (
    FAMILIES,
    Graph,
    common_neighbour_pass,
    generate_instance,
)
from brooks_sim.graph_core import graph as graph_module
from brooks_sim.phases import PipelineConfig, run_pipeline
from brooks_sim.thresholds import Thresholds
from oracles import missing_pairs


def disjoint_cliques(k: int, count: int) -> Graph:
    edges = []
    for c in range(count):
        base = c * k
        edges.extend((base + i, base + j) for i in range(k) for j in range(i + 1, k))
    return Graph(k * count, edges)


def test_disjoint_k_delta_components_each_one_ac():
    # K_8 components with delta raised to 8 by a star, so no K_{delta+1}
    g0 = disjoint_cliques(8, 3)
    edges = list(g0.edges())
    hub = g0.n
    edges += [(hub, hub + 1 + i) for i in range(8)]
    g = Graph(g0.n + 9, edges)
    assert g.delta == 8
    acd = compute_acd(g, Fraction(1, 8))
    assert len(acd.cliques) == 3
    assert all(len(c) == 8 for c in acd.cliques)
    assert acd.sparse == frozenset(range(g0.n, g.n))
    assert verify_acd(g, acd).ok


def test_low_density_random_graph_all_sparse():
    rng = random.Random(3)
    n = 80
    edges = set()
    degrees = [0] * n
    while len(edges) < 300:
        u, v = rng.randrange(n), rng.randrange(n)
        if u == v or (min(u, v), max(u, v)) in edges:
            continue
        if degrees[u] >= 16 or degrees[v] >= 16:
            continue
        edges.add((min(u, v), max(u, v)))
        degrees[u] += 1
        degrees[v] += 1
    g = Graph(n, sorted(edges))
    acd = compute_acd(g, Fraction(1, 8))
    assert acd.cliques == ()
    assert acd.sparse == frozenset(range(n))
    assert verify_acd(g, acd).ok


def test_matched_cliques_two_acs():
    g = generate_instance("matched_cliques", 8, seed=0).graph
    acd = compute_acd(g, Fraction(1, 8))
    assert len(acd.cliques) == 2
    assert sorted(len(c) for c in acd.cliques) == [8, 8]
    assert acd.sparse == frozenset()
    assert verify_acd(g, acd).ok


def test_hand_built_bad_acd_fails_property_3():
    # a pendant node glued to a K_8; assigning it to the AC breaks property 3
    edges = [(i, j) for i in range(8) for j in range(i + 1, 8)]
    edges.append((0, 8))
    g = Graph(9, edges)
    bad = AlmostCliqueDecomposition.build(
        Fraction(1, 8), frozenset(), (frozenset(range(9)),), g.n
    )
    report = verify_acd(g, bad)
    assert not report.ok
    assert "3_member_inside_degree" in report.violations


def test_augmentation_pulls_in_qualifying_node():
    # K_12 plus a node adjacent to 11 of it: similarity keeps it out of the
    # base clique, the augmentation step pulls it in
    k = 12
    edges = [(i, j) for i in range(k) for j in range(i + 1, k)]
    edges += [(12, i) for i in range(11)]
    hub = 13
    edges += [(hub, hub + 1 + i) for i in range(12)]
    g = Graph(hub + 13, edges)
    assert g.delta == 12
    acd = compute_acd(g, Fraction(1, 8))
    assert any(12 in c for c in acd.cliques)
    assert verify_acd(g, acd).ok


def test_obs22_disjoint_cliques_pass():
    g0 = disjoint_cliques(8, 2)
    edges = list(g0.edges())
    hub = g0.n
    edges += [(hub, hub + 1 + i) for i in range(8)]
    g = Graph(g0.n + 9, edges)
    acd = compute_acd(g, Fraction(1, 8))
    report = obs22_check(g, acd)
    assert report.ok


def test_obs22_epsilon_tension_on_matched_cliques():
    # e(u)=1 for every member; at eps=1/172 the 4*eps*delta bound is 0.186
    # so the check fails, while eps=1/4 passes.
    g = generate_instance("matched_cliques", 8, seed=0).graph
    tight = AlmostCliqueDecomposition.build(
        Fraction(1, 172),
        frozenset(),
        (frozenset(range(8)), frozenset(range(8, 16))),
        g.n,
    )
    assert not obs22_check(g, tight).ok
    loose = compute_acd(g, Fraction(1, 4))
    assert obs22_check(g, loose).ok


def test_guarded_pair_obs22_at_family_epsilon():
    inst = generate_instance("guarded_pair", 16, seed=0)
    acd = compute_acd(inst.graph, Fraction(1, 8) if inst.epsilon > Fraction(1, 8) else inst.epsilon)
    assert obs22_check(inst.graph, acd).ok


def obs22_degrees(g, cliques):
    """{v: (anti-degree, outside degree)} for every member of the given ACs,
    read from obs22_check's messages. The hand-built ACD's negative epsilon
    puts both bounds below 0, so every member breaks both."""
    acd = AlmostCliqueDecomposition(Fraction(-1, 1000), frozenset(), tuple(cliques))
    report = obs22_check(g, acd)
    degrees: dict[int, dict[str, int]] = {}
    pattern = re.compile(r"AC \d+ node (\d+): ([ae])=(\d+) > -\d+")
    for prop in ("anti_degree", "outside_degree"):
        for message in report.violations[prop]:
            v, key, value = pattern.fullmatch(message).groups()
            degrees.setdefault(int(v), {})[key] = int(value)
    assert len(degrees) == sum(map(len, cliques))
    return {v: (d["a"], d["e"]) for v, d in degrees.items()}


def test_anti_degree_matches_set_difference_on_guarded_instance():
    # brute-force neighborhood comparison for nodes adjacent to the protector
    inst = generate_instance("guarded_pair", 16, seed=3)
    g = inst.graph
    acd = compute_acd(g, inst.epsilon)
    degrees = obs22_degrees(g, acd.cliques)
    for clique in acd.cliques:
        for v in sorted(clique):
            direct = len((set(clique) - {v}) - set(g.adj[v]))
            assert degrees[v][0] == direct
            assert degrees[v][1] == len(set(g.adj[v]) - set(clique))


def test_outside_and_anti_degree():
    inst = generate_instance("matched_cliques", 8, seed=0)
    g = inst.graph
    acd = compute_acd(g, Fraction(1, 8))
    degrees = obs22_degrees(g, acd.cliques)
    for v in range(g.n):
        assert degrees[v] == (0, 1)  # (anti, outside)
    inst2 = generate_instance("clique_minus_edge", 8, seed=0)
    acd2 = compute_acd(inst2.graph, Fraction(1, 8))
    a, b = inst2.meta["missing_edge"]
    assert obs22_degrees(inst2.graph, acd2.cliques)[a] == (1, 0)


def test_compute_acd_zero_failures_over_mixed_seeds():
    for seed in range(100):
        inst = generate_instance("mixed", 16, seed=seed)
        acd = compute_acd(inst.graph, inst.epsilon)  # verifies internally
        assert verify_acd(inst.graph, acd).ok


def test_partition_every_node_exactly_once():
    inst = generate_instance("mixed", 27, seed=5)
    acd = compute_acd(inst.graph, inst.epsilon)
    # every node is in exactly one of `sparse` or a clique
    for v in range(inst.graph.n):
        assert (v in acd.sparse) + sum(v in c for c in acd.cliques) == 1


def test_epsilon_out_of_range_rejected():
    g = generate_instance("matched_cliques", 8, seed=0).graph
    for eps in (Fraction(0), Fraction(1, 2), Fraction(-1, 8), "abc", None, "1/0"):
        with pytest.raises(BrooksSimError) as err:
            compute_acd(g, eps)
        assert err.value.phase == "config"


def test_small_delta_is_a_precondition_error():
    g = Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])  # C_4, delta 2
    with pytest.raises(BrooksSimError) as err:
        compute_acd(g, Fraction(1, 8))
    assert err.value.phase == "precondition"


def test_bad_decomposition_names_acd_phase():
    with pytest.raises(BrooksSimError) as err:
        AlmostCliqueDecomposition.build(Fraction(1, 8), frozenset({0}), (frozenset({0, 1}),), 2)
    assert err.value.phase == "acd"


@pytest.mark.parametrize(
    "sparse, cliques, message",
    [
        ({0, 1}, (frozenset(),), "empty almost-clique at index 0"),
        (set(), ({0, 1}, {1, 2}), "node 1 in two almost-cliques"),
        ({0}, ({1},), "sparse set and almost-cliques do not partition V"),
    ],
)
def test_build_rejects_a_non_partition(sparse, cliques, message):
    with pytest.raises(BrooksSimError) as err:
        AlmostCliqueDecomposition.build(
            Fraction(1, 8), frozenset(sparse), tuple(map(frozenset, cliques)), 3
        )
    assert str(err.value) == message
    assert err.value.phase == "acd"


def test_hand_built_acd_fails_property_4():
    # K_12 plus node 12 adjacent to 11 of it, left sparse: delta 12, and at
    # eps 1/8 an outsider may have floor(3/4 * 12) = 9 neighbours in the AC
    edges = [(i, j) for i in range(12) for j in range(i + 1, 12)]
    edges += [(12, i) for i in range(11)]
    g = Graph(13, edges)
    eps = Fraction(1, 8)
    assert g.delta == 12 and Thresholds.of(eps, g.delta).outsider_max == 9
    bad = AlmostCliqueDecomposition.build(eps, frozenset({12}), (frozenset(range(12)),), g.n)
    report = verify_acd(g, bad)
    assert report.violations["4_outsider_cap"] == ["node 12 has 11 neighbors in AC 0 > 9"]
    assert "2_clique_size" not in report.violations
    assert "3_member_inside_degree" not in report.violations


def test_verification_failure_raises_with_report():
    # complete bipartite-ish blob where no valid decomposition exists at this
    # epsilon: a K_9 at delta=8 is a K_{delta+1}; every node is 0-sparse but
    # the similarity component has 9 nodes > (1+3/172)*8, so it is discarded
    # and property (1) fails for the resulting "sparse" clique nodes.
    g = Graph(9, [(i, j) for i in range(9) for j in range(i + 1, 9)])
    with pytest.raises(AcdVerificationError) as err:
        compute_acd(g, Fraction(1, 172))
    assert err.value.report is not None
    assert not err.value.report.ok


def pass_graphs() -> list[Graph]:
    """G(n,p) graphs over a range of densities, plus every family at delta 16,
    plus graphs with n*n > 128*m, which keep no masks: 4-node cliques and a
    sparse random_gnd, whose triangles the pass lists, and dense 6-node
    blobs and a farm of near-cliques, whose triangles outnumber their edges
    so that the pass falls back to the masks. Blobs and cliques sit under
    shuffled ids."""
    rng = random.Random(12)
    graphs = []
    for _ in range(40):
        n = rng.randrange(2, 60)
        p = rng.choice((0.05, 0.2, 0.5, 0.9))
        graphs.append(
            Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p])
        )
    graphs += [
        generate_instance(family, 16, seed).graph for family in FAMILIES for seed in (0, 1)
    ]
    ids = list(range(400))
    rng.shuffle(ids)
    blobs = [ids[i : i + 6] for i in range(0, 240, 6)]
    graphs.append(
        Graph(400, [e for b in blobs for e in itertools.combinations(b, 2) if rng.random() < 0.8])
    )
    quads = [ids[i : i + 4] for i in range(0, 240, 4)]
    graphs.append(Graph(400, [e for q in quads for e in itertools.combinations(q, 2)]))
    graphs.append(generate_instance("random_gnd", 16, 0, n=1100).graph)
    farm = ("clique_minus_edge", "guarded_pair") * 32
    graphs.append(generate_instance("mixed", 16, 0, components=64, kinds=farm).graph)
    assert not any(g.small_masks for g in graphs[-4:])
    return graphs


def pass_reference(g: Graph, at_least: int) -> tuple[list[list[int]], list[int]]:
    """`common_neighbour_pass(g, at_least)`, computed node by node."""
    pairs = g.delta * (g.delta - 1) // 2
    nbrs = [set(a) for a in g.adj]
    close = [[u for u in g.adj[v] if len(nbrs[u] & nbrs[v]) >= at_least] for v in range(g.n)]
    return close, [2 * (pairs - missing_pairs(g, v)) for v in range(g.n)]


def test_common_neighbour_pass_matches_the_per_node_reference():
    for g in pass_graphs():
        for at_least in (max(1, g.delta - 3), 0):
            assert common_neighbour_pass(g, at_least) == pass_reference(g, at_least)


def test_sparse_graph_with_a_hub_keeps_no_masks(monkeypatch):
    # random_gnd plus one node of degree n/64 + 1: all n masks would take
    # n^2/8 bytes against the 16m bytes of the neighbour tuples, so neither
    # construction nor the pass builds them
    def no_masks(nodes):
        raise AssertionError("the n-bit masks of a sparse graph were built")

    base = generate_instance("random_gnd", 16, 0, n=2000).graph
    hub = base.n
    edges = [*base.edges(), *((hub, v) for v in range(hub // 64 + 1))]
    with monkeypatch.context() as patch:
        patch.setattr(graph_module, "mask_of", no_masks)
        g = Graph(hub + 1, edges)
        got = [common_neighbour_pass(g, at_least) for at_least in (1, 0)]
    assert not g.small_masks and g.delta == hub // 64 + 1
    assert got == [pass_reference(g, at_least) for at_least in (1, 0)]


def test_verify_alone_gives_the_in_pipeline_report(monkeypatch):
    # compute_acd must reach verify_acd through the module global, which a
    # tracer may wrap; the report it gets with its own sums must be the one a
    # standalone call recomputes
    real = acd_module.verify_acd
    seen = []

    def recording(g, acd, *sums):
        report = real(g, acd, *sums)
        seen.append((g, acd, sums, report))
        return report

    monkeypatch.setattr(acd_module, "verify_acd", recording)
    calls = failures = 0
    for g in pass_graphs():
        if g.delta < 3:
            continue
        for eps in (Fraction(1, 8), Fraction(1, 4)):
            calls += 1
            try:
                compute_acd(g, eps)
            except AcdVerificationError:
                failures += 1
    assert len(seen) == calls
    assert failures > 0  # some reports carry violations
    for g, acd, sums, report in seen:
        assert len(sums) == 1  # the pipeline hands over its sums
        assert real(g, acd) == report


def test_property_1_reads_the_pass_sums():
    # a K_9 and a K_9 minus the edge (9, 10), all declared sparse: N(v) is a
    # K_8 for each K_9 node, which breaks property (1), and a K_8 minus an
    # edge for nodes 11-17, which sits exactly on its bound
    k9 = [(i, j) for i in range(9) for j in range(i + 1, 9)]
    g = Graph(18, k9 + [(9 + i, 9 + j) for i, j in k9 if (i, j) != (0, 1)])
    eps = Fraction(1, 8)
    bad = AlmostCliqueDecomposition.build(eps, frozenset(range(g.n)), (), g.n)
    t = Thresholds.of(eps, g.delta)
    report = verify_acd(g, bad)
    assert report == verify_acd(g, bad, common_neighbour_pass(g, t.similar_min)[1])
    assert [missing_pairs(g, v) for v in (0, 9, 11)] == [0, 7, t.missing_min]
    assert report.violations["1_sparse_nodes_sparse"] == [
        f"node {v}: {missing_pairs(g, v)} missing pairs < {t.missing_min}"
        for v in range(g.n)
        if missing_pairs(g, v) < t.missing_min
    ]
    assert len(report.violations["1_sparse_nodes_sparse"]) == 9


def test_pipeline_counts_each_ac_outsiders_once(monkeypatch):
    # property (4) and the specials read the same counts
    real = acd_module.outsider_counts
    counted: Counter = Counter()

    def counting(g, acd, idx):
        counted[idx] += 1
        return real(g, acd, idx)

    monkeypatch.setattr(acd_module, "outsider_counts", counting)
    monkeypatch.setattr(classify_module, "outsider_counts", counting, raising=False)
    inst = generate_instance("runaway_pair", 16, 0)
    result = run_pipeline(inst.graph, PipelineConfig(epsilon=inst.epsilon))
    assert len(result.acd.cliques) > 1
    assert counted == Counter(range(len(result.acd.cliques)))
