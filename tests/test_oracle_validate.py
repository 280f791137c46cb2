import itertools
import random

import pytest

from brooks_sim.graph_core import Graph
from brooks_sim.oracle_validate import validate_coloring
from oracles import (
    complete_graph,
    cycle_graph,
    greedy_upper_bound,
    is_k_colorable,
    is_k_colorable_fast,
    neighbour_masks,
    path_graph,
)


class TestValidateColoring:
    def test_proper_two_coloring_of_path(self):
        assert validate_coloring(path_graph(3), [0, 1, 0], 2)

    def test_monochromatic_edge_rejected(self):
        assert not validate_coloring(path_graph(3), [0, 0, 1], 2)

    def test_partial_rejected(self):
        assert not validate_coloring(path_graph(3), [0, None, 1], 2)

    def test_color_out_of_range_rejected(self):
        assert not validate_coloring(path_graph(3), [0, 2, 0], 2)

    def test_wrong_length_rejected(self):
        assert not validate_coloring(path_graph(3), [0, 1], 2)

    def test_float_colors_rejected(self):
        assert not validate_coloring(path_graph(3), [0.5, 1, 0.5], 2)

    def test_bool_colors_rejected(self):
        assert not validate_coloring(path_graph(3), [True, False, True], 2)


class TestIsKColorable:
    def test_odd_cycle_not_two_colorable(self):
        assert not is_k_colorable(cycle_graph(5).masks, 2)
        assert is_k_colorable(cycle_graph(5).masks, 3)

    def test_even_cycle_two_colorable(self):
        assert is_k_colorable(cycle_graph(6).masks, 2)

    def test_k5_minus_edge_four_colorable(self):
        g = complete_graph(5)
        h = Graph(5, [e for e in g.edges() if e != (0, 1)])
        assert is_k_colorable(h.masks, 4)
        assert not is_k_colorable(h.masks, 3)

    def test_clique_needs_exactly_n(self):
        g = complete_graph(6)
        assert is_k_colorable(g.masks, 6)
        assert not is_k_colorable(g.masks, 5)

    def test_empty_and_degenerate(self):
        assert is_k_colorable(neighbour_masks(Graph(0, [])), 0)
        assert not is_k_colorable(neighbour_masks(Graph(1, [])), 0)
        assert is_k_colorable(neighbour_masks(Graph(3, [])), 1)
        assert not is_k_colorable(neighbour_masks(path_graph(2)), 1)

    def test_size_limit(self):
        with pytest.raises(ValueError):
            is_k_colorable(neighbour_masks(Graph(21, [])), 2)

    def test_monotone_in_k(self):
        rng = random.Random(1)
        for _ in range(30):
            n = rng.randrange(2, 9)
            edges = [
                (u, v)
                for u in range(n)
                for v in range(u + 1, n)
                if rng.random() < 0.5
            ]
            g = Graph(n, edges)
            answers = [is_k_colorable(g.masks, k) for k in range(n + 2)]
            assert answers == sorted(answers)  # False..False True..True

    def test_fast_path_agrees_with_exact(self):
        rng = random.Random(2)
        for _ in range(60):
            n = rng.randrange(2, 10)
            edges = [
                (u, v)
                for u in range(n)
                for v in range(u + 1, n)
                if rng.random() < 0.4
            ]
            g = Graph(n, edges)
            for k in (2, 3, max(1, g.delta)):
                assert is_k_colorable_fast(g.masks, k) == is_k_colorable(g.masks, k)

    def test_greedy_upper_bound_is_sound(self):
        rng = random.Random(3)
        for _ in range(30):
            n = rng.randrange(2, 10)
            edges = [
                (u, v)
                for u in range(n)
                for v in range(u + 1, n)
                if rng.random() < 0.5
            ]
            g = Graph(n, edges)
            assert is_k_colorable(g.masks, greedy_upper_bound(g.masks))


def test_validated_coloring_witnesses_colorability():
    # a pipeline coloring of a tiny graph is a colorability certificate
    from brooks_sim.graph_core import generate_instance
    from brooks_sim.phases import PipelineConfig, run_pipeline

    inst = generate_instance("clique_minus_edge", 4, seed=0)
    result = run_pipeline(inst.graph, PipelineConfig(epsilon=inst.epsilon))
    assert validate_coloring(inst.graph, result.coloring.as_list(), 4)
    assert is_k_colorable(inst.graph.masks, 4)


def test_brooks_condition_on_connected_graphs_up_to_five():
    # small-scale version of the exhaustive acceptance check
    for n in range(1, 6):
        pairs = list(itertools.combinations(range(n), 2))
        for mask in range(1 << len(pairs)):
            edges = [pairs[i] for i in range(len(pairs)) if (mask >> i) & 1]
            g = Graph(n, edges)
            # connectivity
            seen = {0}
            stack = [0]
            while stack:
                u = stack.pop()
                for v in g.adj[u]:
                    if v not in seen:
                        seen.add(v)
                        stack.append(v)
            if len(seen) != n:
                continue
            delta = g.delta
            degs = [g.degree(v) for v in range(n)]
            odd_cycle = n >= 3 and n % 2 == 1 and all(d == 2 for d in degs)
            is_complete_delta = g.m == n * (n - 1) // 2 and delta == n - 1
            expected = not (odd_cycle or is_complete_delta)
            assert is_k_colorable(neighbour_masks(g), delta) == expected, (n, edges)
