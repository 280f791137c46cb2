import pytest

from brooks_sim.acd import compute_acd, obs22_check, verify_acd
from brooks_sim.classify import classify_acs, find_special
from brooks_sim.errors import BrooksSimError, UnsupportedFamilyError
from brooks_sim.graph_core import (
    FAMILIES,
    Graph,
    contains_delta_plus_one_clique,
    generate_instance,
    load_graph_with_header,
    save_graph,
)

CASES = [
    ("clique_minus_edge", 4),
    ("clique_minus_edge", 16),
    ("matched_cliques", 8),
    ("matched_cliques", 27),
    ("guarded_pair", 16),
    ("guarded_pair", 64),
    ("runaway_pair", 16),
    ("runaway_pair", 27),
    ("random_gnd", 16),
    ("mixed", 16),
    ("mixed", 64),
]


@pytest.mark.parametrize("family,delta", CASES)
def test_generator_postconditions(family, delta):
    for seed in (0, 1, 5):
        g = generate_instance(family, delta, seed).graph
        assert g.delta == delta
        assert not contains_delta_plus_one_clique(g)


@pytest.mark.parametrize("family,delta", CASES)
def test_deterministic_in_seed(family, delta):
    assert generate_instance(family, delta, 3).graph == generate_instance(family, delta, 3).graph


def _assert_one_int_object_per_node(g: Graph) -> None:
    assert all(type(v) is int for row in g.adj for v in row)
    assert len({id(v) for row in g.adj for v in row}) <= g.n


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("delta", [16, 27, 64])
@pytest.mark.parametrize("family", FAMILIES)
def test_adjacency_holds_one_int_object_per_node(family, delta, seed):
    # mixed offsets every endpoint with a fresh int; Graph must not keep them
    _assert_one_int_object_per_node(generate_instance(family, delta, seed).graph)


@pytest.mark.parametrize(
    "family, delta, seed, params",
    [("random_gnd", 16, seed, {"n": 4000}) for seed in range(3)]
    + [("mixed", 64, seed, {}) for seed in range(2, 5)],
)
def test_ids_above_256_hold_one_int_object_per_node(family, delta, seed, params):
    # ints above 256 are not cached: a pick drawn by the RNG, or a bridge end
    # from a fresh range, is a second object for its id, which Graph keeps
    g = generate_instance(family, delta, seed, **params).graph
    assert g.n > 256
    _assert_one_int_object_per_node(g)


class _NodeId(int):
    """An id type with `__index__` that is not a plain int."""


def test_edge_list_ids_are_stored_as_one_plain_int_per_node():
    n = 600
    edges = [(v, (v + 1) % n) for v in range(n)] + [(v, v + 300) for v in range(0, 300, 7)]
    for wrap in (lambda v: int(str(v)), _NodeId):
        g = Graph(n, [(wrap(u), wrap(v)) for u, v in edges])
        assert g == Graph(n, edges)
        _assert_one_int_object_per_node(g)


def test_loaded_graph_holds_one_int_object_per_node(tmp_path):
    g = generate_instance("mixed", 64, 0).graph
    path = tmp_path / "mixed.txt"
    save_graph(g, path)
    loaded = load_graph_with_header(path)[0]
    assert loaded == g
    _assert_one_int_object_per_node(loaded)


def _same_graph(g: Graph, reference: Graph) -> None:
    assert (g.n, g.m, g.delta, g.adj) == (reference.n, reference.m, reference.delta, reference.adj)
    assert g.small_masks == reference.small_masks
    if g.small_masks:
        assert g.masks == reference.masks


def test_each_graph_is_built_once_from_its_neighbour_lists(tmp_path, monkeypatch):
    # generators and the loader freeze their own neighbour lists and never
    # call Graph(n, edges); the edge path, outside the patch, is the reference
    def refuse(self, n, edges):
        raise AssertionError("Graph(n, edges) called")

    saved = tmp_path / "mixed.txt"
    save_graph(generate_instance("mixed", 27, 1).graph, saved)
    built = []
    with monkeypatch.context() as patch:
        patch.setattr(Graph, "__init__", refuse)
        for delta in (16, 27, 64):
            for seed in range(3):
                built += [generate_instance(family, delta, seed) for family in FAMILIES]
                built += [
                    generate_instance(family, delta, seed, deficit=2)
                    for family in ("guarded_pair", "runaway_pair")
                ]
                assert built[-2].meta["padded"]  # the one input that pads with a star
        loaded = load_graph_with_header(saved)[0]
    for g in [inst.graph for inst in built] + [loaded]:
        _same_graph(g, Graph(g.n, list(g.edges())))


def test_unknown_family_rejected():
    with pytest.raises(UnsupportedFamilyError):
        generate_instance("banana", 16)


@pytest.mark.parametrize(
    "delta, seed", [("16", 0), (16.0, 0), (True, 0), (16, None), (16, 1.5), (16, "1")]
)
def test_ill_typed_delta_or_seed_rejected(delta, seed):
    # a None seed would draw the graph from OS entropy, so it could not be rebuilt
    with pytest.raises(BrooksSimError) as err:
        generate_instance("random_gnd", delta, seed=seed)
    assert err.value.phase == "config"


@pytest.mark.parametrize(
    "family, params",
    [
        ("random_gnd", {"n": "100"}),
        ("random_gnd", {"n": 100.5}),
        ("random_gnd", {"n": 0}),
        ("random_gnd", {"n": -4}),
        ("guarded_pair", {"deficit": "1"}),
        ("mixed", {"components": "3"}),
        ("mixed", {"components": 0}),
        ("mixed", {"components": -1}),
        ("mixed", {"kinds": []}),
        ("mixed", {"kinds": "random_gnd"}),
        ("clique_minus_edge", {"n": 5}),  # a parameter the family does not take
        ("guarded_pair", {"foo": 1}),
        (["x"], {}),  # a family name that cannot be a dict key
    ],
)
def test_ill_typed_or_out_of_range_family_parameter_rejected(family, params):
    with pytest.raises(BrooksSimError) as err:
        generate_instance(family, 16, 0, **params)
    assert err.value.phase == "config"
    # the message names the parameter, or the family when there is none
    assert str(next(iter(params), family)) in str(err.value)


def test_below_min_delta_rejected():
    with pytest.raises(UnsupportedFamilyError):
        generate_instance("guarded_pair", 8)
    with pytest.raises(UnsupportedFamilyError):
        generate_instance("clique_minus_edge", 2)


def test_clique_minus_edge_shape():
    inst = generate_instance("clique_minus_edge", 4, seed=0)
    g = inst.graph
    assert (g.n, g.m) == (5, 9)
    a, b = inst.meta["missing_edge"]
    assert not g.has_edge(a, b)
    assert g.degree(a) == g.degree(b) == 3


def test_matched_cliques_shape():
    inst = generate_instance("matched_cliques", 4, seed=2)
    g = inst.graph
    assert g.n == 8
    assert all(g.degree(v) == 4 for v in range(8))
    side_a, side_b = inst.meta["sides"]
    matching = inst.meta["matching"]
    assert len(matching) == 4
    assert {u for u, _ in matching} == set(side_a)
    assert {v for _, v in matching} == set(side_b)


def test_runaway_pair_specials_match_find_special():
    inst = generate_instance("runaway_pair", 16, seed=1)
    g = inst.graph
    acd = compute_acd(g, inst.epsilon)
    assert len(acd.cliques) == 2
    for idx in range(2):
        assert find_special(g, acd, idx) == frozenset(inst.meta["specials"])


def test_guarded_pair_coverage_meets_phi():
    from brooks_sim.thresholds import ceil_phi

    for delta in (16, 27, 64):
        inst = generate_instance("guarded_pair", delta, seed=0)
        for special, covered in inst.meta["coverage"].items():
            assert len(covered) >= ceil_phi(delta)
            assert set(covered) <= set(inst.meta["clique"])


def test_mixed_components_and_bridges():
    inst = generate_instance("mixed", 16, seed=4)
    g = inst.graph
    comps = inst.meta["components"]
    assert [c["family"] for c in comps] == [
        "clique_minus_edge",
        "matched_cliques",
        "guarded_pair",
        "runaway_pair",
        "random_gnd",
    ]
    for u, v in inst.meta["bridges"]:
        assert g.has_edge(u, v)
    assert g.delta == 16


def test_mixed_components_must_count_the_kinds():
    # components without kinds picks that many of the cycle; with kinds it
    # must be their number, not be ignored
    assert len(generate_instance("mixed", 16, 0).meta["components"]) == 5
    kinds = ("random_gnd", "guarded_pair")
    same = generate_instance("mixed", 16, 0, components=2, kinds=kinds).graph
    assert same == generate_instance("mixed", 16, 0, kinds=kinds).graph
    with pytest.raises(UnsupportedFamilyError, match="components 3 but 1 kinds"):
        generate_instance("mixed", 16, 0, components=3, kinds=("random_gnd",))


def test_mixed_rejects_unknown_kind():
    with pytest.raises(UnsupportedFamilyError, match="'banana'"):
        generate_instance("mixed", 16, seed=0, kinds=("clique_minus_edge", "banana"))


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("delta", [16, 27])
def test_mixed_components_partition_the_nodes(delta, seed):
    # each component, less the bridges, is its family's graph at seed 131 * seed + index
    inst = generate_instance("mixed", delta, seed)
    g = inst.graph
    bridges = set(inst.meta["bridges"])
    start = 0
    for idx, comp in enumerate(inst.meta["components"]):
        assert comp["offset"] == start
        part = generate_instance(comp["family"], delta, seed * 131 + idx)
        assert comp["n"] == part.graph.n
        assert comp["meta"] == part.meta
        inside = [
            (u - start, v - start)
            for u, v in g.edges()
            if start <= u < start + comp["n"] and (u, v) not in bridges
        ]
        assert Graph(comp["n"], inside) == part.graph
        start += comp["n"]
    assert start == g.n


def test_mixed_component_scaling():
    small = generate_instance("mixed", 16, seed=0, components=2)
    big = generate_instance("mixed", 16, seed=0, components=10)
    assert big.graph.n > small.graph.n
    fams = [c["family"] for c in big.meta["components"]]
    assert len(fams) == 10


@pytest.mark.parametrize("family,delta", CASES)
def test_acd_contract_at_declared_epsilon(family, delta):
    inst = generate_instance(family, delta, seed=0)
    assert inst.epsilon_min <= inst.epsilon <= inst.epsilon_max
    acd = compute_acd(inst.graph, inst.epsilon)
    assert verify_acd(inst.graph, acd).ok
    assert obs22_check(inst.graph, acd).ok


@pytest.mark.parametrize(
    "family,delta", [("guarded_pair", 16), ("runaway_pair", 27), ("matched_cliques", 16)]
)
def test_acd_contract_at_epsilon_bounds(family, delta):
    inst = generate_instance(family, delta, seed=0)
    for eps in (inst.epsilon_min, inst.epsilon_max):
        acd = compute_acd(inst.graph, eps)
        assert verify_acd(inst.graph, acd).ok


def test_expected_classification_labels():
    by_family = {
        "clique_minus_edge": ("nice",),
        "matched_cliques": ("ordinary", "ordinary"),
        "guarded_pair": ("guarded",),
        "runaway_pair": ("runaway", "runaway"),
    }
    for family, expected in by_family.items():
        inst = generate_instance(family, 16, seed=0)
        acd = compute_acd(inst.graph, inst.epsilon)
        cls = classify_acs(inst.graph, acd)
        assert cls.labels == expected, family


def test_difficult_clique_deficit_parameter():
    # figures leave the clique size open; the generators expose it
    from brooks_sim.classify import classify_acs

    inst = generate_instance("runaway_pair", 27, seed=0, deficit=2)
    assert inst.meta["deficit"] == 2
    assert all(len(c) == 25 for c in inst.meta["cliques"])
    assert inst.graph.delta == 27
    acd = compute_acd(inst.graph, inst.epsilon)
    cls = classify_acs(inst.graph, acd)
    assert cls.labels == ("runaway", "runaway")

    inst_g = generate_instance("guarded_pair", 27, seed=0, deficit=3)
    assert inst_g.graph.delta == 27
    assert inst_g.meta["padded"]  # clique degrees drop below delta, star pads
    acd_g = compute_acd(inst_g.graph, inst_g.epsilon)
    cls_g = classify_acs(inst_g.graph, acd_g)
    assert "guarded" in cls_g.labels

    with pytest.raises(UnsupportedFamilyError):
        generate_instance("runaway_pair", 27, seed=0, deficit=4)  # floor(psi)=3


def test_random_gnd_degree_profile():
    inst = generate_instance("random_gnd", 16, seed=0)
    g = inst.graph
    boosted = inst.meta["max_degree_node"]
    assert g.degree(boosted) == 16
    assert all(g.degree(v) < 16 for v in range(g.n) if v != boosted)


def test_random_gnd_odd_n_rounds_up():
    # a perfect matching needs an even n, so an odd one is rounded up
    odd = generate_instance("random_gnd", 16, seed=0, n=101).graph
    assert odd.n == 102
    assert odd == generate_instance("random_gnd", 16, seed=0, n=102).graph


def test_all_families_enumerated():
    assert set(FAMILIES) == {
        "clique_minus_edge",
        "matched_cliques",
        "guarded_pair",
        "runaway_pair",
        "random_gnd",
        "mixed",
    }
