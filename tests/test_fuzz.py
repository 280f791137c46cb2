"""Seeded pipeline fuzz on arbitrary G(n, p) graphs.

Every run must end in one of two ways: a coloring that `validate_coloring`
accepts, or a `BrooksSimError` that names its phase other than a nice
sub-phase c kind. Any other exception fails the test. Every graph with at
most ORACLE_NODE_LIMIT nodes is also checked against Brooks' theorem with
the exact oracle: at Delta >= 3 it is Delta-colorable iff it has no
K_{Delta+1}.
"""

import random
from collections import Counter
from fractions import Fraction

from brooks_sim.errors import BrooksSimError
from brooks_sim.graph_core import Graph, contains_delta_plus_one_clique
from brooks_sim.oracle_validate import validate_coloring
from brooks_sim.phases import PipelineConfig, run_pipeline
from oracles import ORACLE_NODE_LIMIT, is_k_colorable_fast

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
