"""Every small Brooks graph through the pipeline.

The corpus is every connected graph on 4 to 6 nodes with Delta >= 3 and no
K_{Delta+1}, one per isomorphism class, labelled by `oracles.canonical_edges`
(degrees ascending, then the least sorted edge list): the pipeline's outcome
depends on the labelling. By Brooks' theorem each one is Delta-colorable, and
the exact oracle confirms it.

Each graph runs at epsilon 1/8 and 1/4, seed 0, and must end in a coloring
that `validate_coloring` accepts or in a `BrooksSimError` that names its
phase; any other exception fails the test. The table pins every run that
does not color. It is a ratchet: a fix takes rows out of it, and no row
moves the other way.
"""

from collections import Counter
from fractions import Fraction

from brooks_sim.errors import BrooksSimError
from brooks_sim.graph_core import Graph, contains_delta_plus_one_clique
from brooks_sim.oracle_validate import validate_coloring
from brooks_sim.phases import PipelineConfig, run_pipeline
from oracles import connected_graphs, is_k_colorable_fast

EPSILONS = (Fraction(1, 8), Fraction(1, 4))
COLORED = "colored"
ACD_FAILED = ("AcdVerificationError", "acd")
EXHAUSTED = ("RetryExhausted", "slackgen")
NICE_C = ("PartitionViolationError", "nice_c_pairs")

# the outcome at epsilon 1/8 and 1/4 of every graph that does not color at
# both, keyed by its edges "uv"; every graph not listed colors at both
FAILURES = {
    "03 12 13 23": (ACD_FAILED, COLORED),
    "03 13 23": (ACD_FAILED, COLORED),
    "01 14 23 24 34": (COLORED, NICE_C),
    "02 13 14 23 24 34": (COLORED, NICE_C),
    "03 14 23 24 34": (COLORED, NICE_C),
    "03 14 24 34": (COLORED, NICE_C),
    "01 02 03 12 14 25 34 35 45": (EXHAUSTED, EXHAUSTED),
    "01 02 03 14 15 24 25 34 35 45": (ACD_FAILED, COLORED),
    "01 02 13 14 15 23 24 25 34 35 45": (ACD_FAILED, COLORED),
    "01 02 13 15 24 25 34 35 45": (ACD_FAILED, COLORED),
    "01 02 13 24 25 34 35 45": (EXHAUSTED, EXHAUSTED),
    "01 03 14 15 23 24 25 34 35 45": (ACD_FAILED, COLORED),
    "01 05 15 23 24 34 35 45": (COLORED, NICE_C),
    "01 14 15 23 24 25 34 35 45": (COLORED, NICE_C),
    "02 03 12 14 25 34 35 45": (EXHAUSTED, EXHAUSTED),
    "02 03 14 15 23 24 25 34 35 45": (COLORED, NICE_C),
    "02 03 14 15 24 25 34 35 45": (ACD_FAILED, COLORED),
    "02 04 14 15 23 25 34 35 45": (ACD_FAILED, COLORED),
    "02 13 14 15 23 24 25 34 35 45": (COLORED, NICE_C),
    "02 13 15 24 25 34 35 45": (COLORED, NICE_C),
    "02 13 24 25 34 35 45": (EXHAUSTED, EXHAUSTED),
    "03 04 13 14 15 23 24 25 35 45": (ACD_FAILED, COLORED),
    "03 04 13 15 24 25 35 45": (ACD_FAILED, COLORED),
    "03 14 15 23 24 25 34 35 45": (COLORED, NICE_C),
    "03 14 15 24 25 34 35 45": (COLORED, NICE_C),
    "03 15 24 25 34 35 45": (COLORED, NICE_C),
    "04 05 14 15 23 24 25 34 35": (ACD_FAILED, COLORED),
    "04 12 15 25 34 35 45": (COLORED, NICE_C),
    "04 15 23 24 25 34 35 45": (COLORED, NICE_C),
    "04 15 25 34 35 45": (COLORED, NICE_C),
    "05 15 23 24 34 35 45": (COLORED, NICE_C),
}


def small_brooks_graphs() -> dict[str, Graph]:
    graphs = {}
    for n in (4, 5, 6):
        for edges in connected_graphs(n):
            g = Graph(n, edges)
            if g.delta >= 3 and not contains_delta_plus_one_clique(g):
                graphs[" ".join(f"{u}{v}" for u, v in edges)] = g
    return graphs


def test_connected_graph_counts():
    # OEIS A001349; 3 of 6, 18 of 21 and 109 of 112 are Brooks graphs: on 4
    # to 6 nodes only the paths, the cycles and the cliques are left out
    assert [len(connected_graphs(n)) for n in range(1, 7)] == [1, 1, 2, 6, 21, 112]
    assert Counter(g.n for g in small_brooks_graphs().values()) == {4: 3, 5: 18, 6: 109}


def test_small_brooks_graph_outcomes():
    outcomes = {}
    for name, g in small_brooks_graphs().items():
        assert is_k_colorable_fast(g.masks, g.delta), name
        runs = []
        for epsilon in EPSILONS:
            try:
                result = run_pipeline(g, PipelineConfig(epsilon=epsilon, seed=0))
            except BrooksSimError as exc:
                assert exc.phase is not None, (name, epsilon, exc)
                runs.append((type(exc).__name__, exc.phase))
                continue
            assert validate_coloring(g, result.coloring.as_list(), g.delta), (name, epsilon)
            runs.append(COLORED)
        if runs != [COLORED, COLORED]:
            outcomes[name] = tuple(runs)
    assert outcomes == FAILURES
