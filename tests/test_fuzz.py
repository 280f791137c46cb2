"""Seeded pipeline fuzz on arbitrary G(n, p) graphs.

Every run must end in one of two ways: a coloring that `validate_coloring`
accepts, or a `BrooksSimError` that names its phase. Any other exception
fails the test.
"""

import random
from collections import Counter
from fractions import Fraction

from brooks_sim.errors import BrooksSimError
from brooks_sim.graph_core import Graph
from brooks_sim.oracle_validate import validate_coloring
from brooks_sim.phases import PipelineConfig, run_pipeline

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
    for i, (g, epsilon) in enumerate(gnp_graphs(0, RUNS)):
        try:
            result = run_pipeline(g, PipelineConfig(epsilon=epsilon, seed=i))
        except BrooksSimError as exc:
            assert exc.phase is not None, f"run {i} (n={g.n}): {type(exc).__name__}: {exc}"
            outcomes[type(exc).__name__, exc.phase] += 1
            continue
        assert validate_coloring(g, result.coloring.as_list(), g.delta), f"run {i}"
        outcomes["colored"] += 1
    assert sum(outcomes.values()) == RUNS
    assert outcomes["colored"] > RUNS // 2, outcomes
