"""Seeded pipeline fuzz on arbitrary G(n, p) graphs, and a structured corpus.

Every run must end in one of two ways: a coloring that `validate_coloring`
accepts, or a `BrooksSimError` that names its phase other than a nice
sub-phase c kind. Any other exception fails the test. Every graph with at
most ORACLE_NODE_LIMIT nodes is also checked against Brooks' theorem with
the exact oracle: at Delta >= 3 it is Delta-colorable iff it has no
K_{Delta+1}.

The structured corpus is 29 Delta-regular, Delta-colorable graphs (rook's
graphs, circulants, cycle complements); most decompose into no
almost-clique, so slack generation gets no slack in advance. The perturbed
corpus is each generator family at Delta 16 and 27, seed 0, with 3 edges
removed and the graph refilled to Delta, kept where its max degree is still
Delta and it has no K_{Delta+1}; refilling takes away the slack that the
families give in advance. Each corpus has a table that pins each run's
outcome; the tables are ratchets: a fix flips rows to "colored", and no row
moves the other way.
"""

import random
from collections import Counter
from fractions import Fraction

from brooks_sim.acd import compute_acd
from brooks_sim.errors import AcdVerificationError, BrooksSimError
from brooks_sim.graph_core import FAMILIES, Graph, contains_delta_plus_one_clique, generate_instance
from brooks_sim.oracle_validate import validate_coloring
from brooks_sim.phases import PipelineConfig, run_pipeline
from brooks_sim.thresholds import DEFAULT_EPSILON
from oracles import (
    ORACLE_NODE_LIMIT,
    acd_cliques_all_bases,
    circulant_graph,
    cycle_complement,
    is_k_colorable_fast,
    perturbed_graph,
    rook_graph,
)

RUNS = 200
EPSILONS = (Fraction(1, 8), Fraction(1, 5), Fraction(1, 4))


def gnp_graphs(seed: int, count: int, min_delta: int = 8):
    """`count` G(n, p) graphs with n in 12..59, p in [0.15, 0.9] and max
    degree >= min_delta; lower-degree draws are skipped."""
    rng = random.Random(seed)
    while count:
        n = rng.randint(12, 59)
        p = rng.uniform(0.15, 0.9)
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
        g = Graph(n, edges)
        if g.delta >= min_delta:
            count -= 1
            yield g, rng.choice(EPSILONS)


def test_pipeline_ends_in_valid_coloring_or_phased_error():
    outcomes: Counter = Counter()
    oracle_checked = 0
    for i, (g, epsilon) in enumerate(gnp_graphs(0, RUNS)):
        if g.n <= ORACLE_NODE_LIMIT:
            oracle_checked += 1
            brooks = not contains_delta_plus_one_clique(g)
            assert is_k_colorable_fast(g.masks, g.delta) == brooks, f"run {i}"
        try:
            result = run_pipeline(g, PipelineConfig(epsilon=epsilon, seed=i))
        except BrooksSimError as exc:
            failure = f"run {i} (n={g.n}): {type(exc).__name__}: {exc}"
            assert exc.phase is not None, failure
            assert not exc.phase.startswith("nice_c"), failure
            outcomes[type(exc).__name__, exc.phase] += 1
            continue
        assert validate_coloring(g, result.coloring.as_list(), g.delta), f"run {i}"
        outcomes["colored"] += 1
    assert sum(outcomes.values()) == RUNS
    assert outcomes["colored"] > RUNS // 2, outcomes
    assert oracle_checked > 0


CIRCULANT_NS, CIRCULANT_KS = (30, 60, 120), (2, 3, 4, 6, 8, 12)  # 2k + 1 < n throughout
COLORED = "colored"
EXHAUSTED = ("RetryExhausted", "slackgen")

# the outcome at PipelineConfig(seed=0) and (seed=1)
STRUCTURED_OUTCOMES = {
    **{f"K_{a} x K_{a}": (EXHAUSTED, EXHAUSTED) for a in range(4, 10)},
    **{f"C_{n}(1..{k})": (EXHAUSTED, EXHAUSTED) for n in CIRCULANT_NS for k in CIRCULANT_KS},
    "C_30(1..12)": (COLORED, COLORED),
    "co-C_9": (COLORED, EXHAUSTED),
    **{f"co-C_{n}": (COLORED, COLORED) for n in (12, 16, 24, 33)},
}


def structured_corpus() -> dict[str, Graph]:
    graphs = {f"K_{a} x K_{a}": rook_graph(a) for a in range(4, 10)}
    for n in CIRCULANT_NS:
        graphs.update({f"C_{n}(1..{k})": circulant_graph(n, k) for k in CIRCULANT_KS})
    graphs.update({f"co-C_{n}": cycle_complement(n) for n in (9, 12, 16, 24, 33)})
    return graphs


def outcomes_at_seeds(name: str, g: Graph) -> tuple:
    """The outcome of `run_pipeline` at PipelineConfig(seed=0) and (seed=1):
    COLORED for a valid coloring, else the typed error's name and phase."""
    runs = []
    for seed in (0, 1):
        try:
            result = run_pipeline(g, PipelineConfig(seed=seed))
        except BrooksSimError as exc:
            runs.append((type(exc).__name__, exc.phase))
            continue
        assert validate_coloring(g, result.coloring.as_list(), g.delta), (name, seed)
        runs.append(COLORED)
    return tuple(runs)


def test_structured_corpus_outcomes():
    graphs = structured_corpus()
    assert len(graphs) == 29 and graphs.keys() == STRUCTURED_OUTCOMES.keys()
    outcomes = {}
    for name, g in graphs.items():
        assert {len(a) for a in g.adj} == {g.delta}, name
        outcomes[name] = outcomes_at_seeds(name, g)
    assert outcomes == STRUCTURED_OUTCOMES


PERTURBED_DELTAS = (16, 27)

# the outcome at PipelineConfig(seed=0) and (seed=1); clique_minus_edge and
# guarded_pair refill into a K_{Delta+1} at both Deltas, so they are not kept
PERTURBED_OUTCOMES = {
    f"{family} {delta}": outcome
    for family, outcome in (
        ("matched_cliques", (COLORED, COLORED)),
        ("runaway_pair", (COLORED, COLORED)),
        ("random_gnd", (EXHAUSTED, EXHAUSTED)),
        ("mixed", (EXHAUSTED, EXHAUSTED)),
    )
    for delta in PERTURBED_DELTAS
}


def test_perturbed_family_outcomes():
    outcomes = {}
    for family in FAMILIES:
        for delta in PERTURBED_DELTAS:
            g = perturbed_graph(generate_instance(family, delta, seed=0).graph, seed=0)
            name = f"{family} {delta}"
            if g.delta == delta and not contains_delta_plus_one_clique(g):
                outcomes[name] = outcomes_at_seeds(name, g)
    assert outcomes == PERTURBED_OUTCOMES


def test_augmentation_matches_the_all_bases_reference():
    # compute_acd counts only the bases that own a neighbour of a candidate
    farm = ("clique_minus_edge", "guarded_pair") * 150
    inst = generate_instance("mixed", 16, 0, components=300, kinds=farm)
    groups = {
        "farm": [(inst.graph, inst.epsilon)],
        "structured": [(g, DEFAULT_EPSILON) for g in structured_corpus().values()],
        "fuzz": list(gnp_graphs(0, RUNS)),
    }
    decomposed = Counter()
    for name, cases in groups.items():
        for g, epsilon in cases:
            try:
                acd = compute_acd(g, epsilon)
            except AcdVerificationError:
                continue
            assert acd.cliques == acd_cliques_all_bases(g, epsilon), name
            decomposed[name] += 1
    assert decomposed.keys() == groups.keys(), decomposed
