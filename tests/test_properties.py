"""Property-based checks for the core invariants."""

import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from brooks_sim.errors import BrooksSimError
from brooks_sim.graph_core import (
    Graph,
    contains_delta_plus_one_clique,
    load_graph_with_header,
    save_graph,
)
from brooks_sim.listcolor import make_unit
from brooks_sim.oracle_validate import validate_coloring
from brooks_sim.phases import PipelineConfig, run_pipeline
from brooks_sim.slackgen import run_slack_generation_with_metrics
from oracles import (
    is_k_colorable,
    list_instance,
    measure_slack,
    missing_pairs,
    neighbour_masks,
    solve_greedy_oracle,
    validate_assignment,
)


@st.composite
def graphs(draw, max_n=10):
    n = draw(st.integers(min_value=2, max_value=max_n))
    pairs = list(itertools.combinations(range(n), 2))
    picks = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    edges = [p for p, keep in zip(pairs, picks) if keep]
    return Graph(n, edges)


@given(graphs())
@settings(max_examples=60, deadline=None)
def test_save_load_round_trip(tmp_path_factory, g):
    path = tmp_path_factory.mktemp("gr") / "g.txt"
    save_graph(g, path)
    assert load_graph_with_header(path)[0] == g


@given(graphs(max_n=14))
@settings(max_examples=60, deadline=None)
def test_has_edge_matches_adjacency(g):
    for u in range(g.n):
        for v in range(g.n):
            assert g.has_edge(u, v) == (v in g.adj[u])


@given(graphs())
@settings(max_examples=60, deadline=None)
def test_sparsity_matches_definition(g):
    # missing_pairs = zeta_v * delta = binom(delta,2) - edges inside N(v), counted directly
    if g.delta == 0:
        return
    for v in range(g.n):
        nbrs = set(g.adj[v])
        inside = sum(1 for a, b in itertools.combinations(sorted(nbrs), 2) if g.has_edge(a, b))
        assert missing_pairs(g, v) == g.delta * (g.delta - 1) // 2 - inside


@given(graphs(max_n=8), st.integers(min_value=0, max_value=9))
@settings(max_examples=40, deadline=None)
def test_k_colorability_monotone(g, k):
    if is_k_colorable(g.masks, k):
        assert is_k_colorable(g.masks, k + 1)


@given(graphs(max_n=9), st.integers(min_value=0, max_value=2**20))
@settings(max_examples=40, deadline=None)
def test_slackgen_proper_and_slack_identity(g, seed):
    if g.delta == 0:
        return
    coloring = run_slack_generation_with_metrics(g, range(g.n), 0.5, seed)[0]
    for v in range(g.n):
        c = coloring.color[v]
        if c is not None:
            assert all(coloring.color[u] != c for u in g.adj[v])
        else:
            full = list(range(g.n))
            assert measure_slack(g, coloring, v, full) == coloring.slack_in(v)


@given(graphs(max_n=12), st.integers(min_value=0, max_value=2**20), st.sets(st.integers(0, 11)))
@settings(max_examples=100, deadline=None, derandomize=True)
def test_slack_in_leaves_out_a_node_set(g, seed, drawn):
    # slack_in(v, L) is the slack in G minus L; an uncolored neighbour in L
    # adds 1 to a slack that is at least delta - deg(v) >= 0, which is why
    # gray_then_white's white rule is unit slack alone
    if g.delta == 0:
        return
    coloring = run_slack_generation_with_metrics(g, range(g.n), 0.5, seed)[0]
    left_out = frozenset(u for u in drawn if u < g.n)
    rest = [u for u in range(g.n) if u not in left_out]
    for v in coloring.uncolored_in(range(g.n)):
        slack = coloring.slack_in(v, left_out)
        assert slack == measure_slack(g, coloring, v, rest)
        if any(u in left_out and coloring.color[u] is None for u in g.adj[v]):
            assert slack >= 1
        # alternating with the empty set, as the slack gate does
        assert coloring.slack_in(v) == measure_slack(g, coloring, v, range(g.n))


def brooks_graph(g: Graph) -> bool:
    """Delta >= 3 and no K_{Delta+1}: Delta-colorable by Brooks' theorem."""
    return g.delta >= 3 and not contains_delta_plus_one_clique(g)


@given(graphs(max_n=14).filter(brooks_graph), st.integers(min_value=0, max_value=2**16))
@settings(max_examples=200, deadline=None, derandomize=True)
def test_pipeline_delta_colors_or_names_its_phase(g, seed):
    # arbitrary Brooks graphs, not the generator families: the run ends in a
    # valid Delta-coloring or a typed error naming its phase, nothing else
    assert is_k_colorable(neighbour_masks(g), g.delta)
    try:
        result = run_pipeline(g, PipelineConfig(seed=seed))
    except BrooksSimError as exc:
        assert exc.phase is not None, f"{type(exc).__name__}: {exc}"
        return
    assert validate_coloring(g, result.coloring.as_list(), g.delta)


@st.composite
def deg_plus_one_instances(draw):
    n = draw(st.integers(min_value=1, max_value=7))
    pairs = list(itertools.combinations(range(n), 2))
    picks = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    edges = [p for p, keep in zip(pairs, picks) if keep]
    deg = [0] * n
    for i, j in edges:
        deg[i] += 1
        deg[j] += 1
    colors = 10
    palettes = []
    for v in range(n):
        extra = draw(st.integers(min_value=0, max_value=2))
        size = min(deg[v] + 1 + extra, colors)
        offset = draw(st.integers(min_value=0, max_value=colors - size))
        palettes.append(frozenset(range(offset, offset + size)))
    return list_instance(
        tuple(make_unit(v) for v in range(n)), edges, palettes, delta=colors, name="prop"
    )


@given(deg_plus_one_instances())
@settings(max_examples=200, deadline=None)
def test_greedy_oracle_never_fails_on_deg_plus_one(inst):
    assignment = solve_greedy_oracle(inst)
    assert validate_assignment(inst, assignment)
