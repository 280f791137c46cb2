"""Seeded pipeline fuzz on arbitrary G(n, p) graphs, and a structured corpus.

Every run must end in one of two ways: a coloring that `validate_coloring`
accepts, or a `BrooksSimError` that names its phase other than a nice
sub-phase c kind. Any other exception fails the test. Every graph with at
most ORACLE_NODE_LIMIT nodes is also checked against Brooks' theorem with
the exact oracle: at Delta >= 3 it is Delta-colorable iff it has no
K_{Delta+1}.

The structured corpus is 29 Delta-regular, Delta-colorable graphs (rook's
graphs, circulants, cycle complements); most decompose into no
almost-clique, so slack generation gets no slack in advance. Its table pins
each run's outcome; it is a ratchet: a fix flips rows to "colored", and no
row moves the other way.
"""

import random
from collections import Counter
from fractions import Fraction

from brooks_sim.errors import BrooksSimError
from brooks_sim.graph_core import Graph, contains_delta_plus_one_clique
from brooks_sim.oracle_validate import validate_coloring
from brooks_sim.phases import PipelineConfig, run_pipeline
from oracles import (
    ORACLE_NODE_LIMIT,
    circulant_graph,
    cycle_complement,
    is_k_colorable_fast,
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


def test_structured_corpus_outcomes():
    graphs = structured_corpus()
    assert len(graphs) == 29 and graphs.keys() == STRUCTURED_OUTCOMES.keys()
    outcomes = {}
    for name, g in graphs.items():
        assert {len(a) for a in g.adj} == {g.delta}, name
        runs = []
        for seed in (0, 1):
            try:
                result = run_pipeline(g, PipelineConfig(seed=seed))
            except BrooksSimError as exc:
                runs.append((type(exc).__name__, exc.phase))
                continue
            assert validate_coloring(g, result.coloring.as_list(), g.delta), (name, seed)
            runs.append(COLORED)
        outcomes[name] = tuple(runs)
    assert outcomes == STRUCTURED_OUTCOMES
