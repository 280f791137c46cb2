import random

import pytest

from brooks_sim import listcolor
from brooks_sim.errors import BrooksSimError, DegPlusOneViolation, ProtocolOutputError
from brooks_sim.graph_core import Graph, PartialColoring, mask_of
from brooks_sim.listcolor import build_instance, make_unit, solve_distributed
from brooks_sim.sim_engine import RoundMetrics
from oracles import (
    complete_graph,
    list_instance,
    recount_instance,
    solve_greedy_oracle,
    validate_assignment,
)


def star(delta: int) -> Graph:
    return Graph(delta + 1, [(0, i) for i in range(1, delta + 1)])


class TestBuildInstance:
    def test_singleton_palette_after_repeat_colored_neighbors(self):
        g = star(5)
        coloring = PartialColoring(g)  # delta 5
        for i, c in enumerate((0, 1, 2, 3, 3)):
            coloring.assign(1 + i, c)
        inst = build_instance(g, coloring, [make_unit(0)], name="t")
        assert inst.palettes == (mask_of((4,)),)
        assert inst.adj == ((),)

    def test_pair_palette_is_intersection(self):
        # pair (0,1) with disjointly colored outside neighborhoods
        edges = [(0, 2), (0, 3), (1, 4), (1, 5), (2, 3), (2, 4), (2, 5), (3, 4)]
        g = Graph(6, edges)  # delta 4 (node 2)
        coloring = PartialColoring(g)
        coloring.assign(2, 0)
        coloring.assign(5, 1)
        inst = build_instance(g, coloring, [make_unit(0, 1)], name="t")
        # [4] minus {0} (via 0's nbr 2) minus {1} (via 1's nbr 5)
        assert inst.palettes == (mask_of((2, 3)),)

    def test_edges_between_units(self):
        # K_4 plus a pendant raising delta to 4, so palettes beat degrees
        edges = [(i, j) for i in range(4) for j in range(i + 1, 4)] + [(0, 4)]
        g = Graph(5, edges)
        coloring = PartialColoring(g)
        inst = build_instance(g, coloring, [make_unit(v) for v in range(4)], name="t")
        assert inst.adj == ((1, 2, 3), (0, 2, 3), (0, 1, 3), (0, 1, 2))
        assert inst.max_degree == 3

    def test_pair_member_adjacency_merges_units(self):
        g = Graph(4, [(0, 1), (2, 3), (1, 2)])
        coloring = PartialColoring(g)
        inst = build_instance(g, coloring, [make_unit(0, 3), make_unit(1)], name="t")
        # unit (0,3) touches unit (1,) through edge (0,1)
        assert inst.adj == ((1,), (0,))

    def test_singleton_rows_beside_pairs_are_sorted_and_repeat_free(self):
        # units (0,5), (2,), (4,): node 2 sees both members of the pair, and
        # node 4's neighbours 2 < 5 sit in units 1 and 0
        g = Graph(6, [(0, 2), (2, 5), (2, 4), (4, 5)])
        coloring = PartialColoring(g)  # delta 3
        inst = build_instance(g, coloring, [make_unit(4), make_unit(0, 5), make_unit(2)])
        assert inst.adj == ((1, 2), (0, 2), (0, 1))
        assert inst.adj == recount_instance(g, coloring.color, 3, inst.units)[0]

    def test_deg_plus_one_violation_names_unit(self):
        g = complete_graph(3)
        coloring = PartialColoring(g)  # delta 2, palettes size 2, degree 2
        with pytest.raises(DegPlusOneViolation) as err:
            build_instance(g, coloring, [make_unit(v) for v in range(3)], name="bad")
        assert err.value.unit in {(0,), (1,), (2,)}
        assert err.value.phase == "bad"

    def test_colored_member_rejected(self):
        g = complete_graph(3)
        coloring = PartialColoring(g)
        coloring.assign(0, 0)
        with pytest.raises(BrooksSimError):
            build_instance(g, coloring, [make_unit(0)], name="t")

    def test_pair_on_graph_edge_rejected(self):
        g = complete_graph(3)
        coloring = PartialColoring(g)
        with pytest.raises(BrooksSimError):
            build_instance(g, coloring, [make_unit(0, 1)], name="t")

    def test_node_in_two_units_rejected(self):
        g = Graph(4, [(0, 1), (2, 3)])
        with pytest.raises(BrooksSimError) as err:
            build_instance(g, PartialColoring(g), [(0,), (0, 2)], name="t")
        assert str(err.value) == "t: node 0 appears in two units"
        assert err.value.phase == "t"

    @pytest.mark.parametrize("unit", [(), (0, 1, 3), (3, 3)])
    def test_unit_not_one_or_two_distinct_nodes_rejected(self, unit):
        # the empty unit was "colored" with nothing in it, the triple became
        # its own neighbour, and a repeated node was "in two units"
        g = Graph(4, [(0, 1), (2, 3)])
        coloring = PartialColoring(g)
        with pytest.raises(BrooksSimError) as err:
            build_instance(g, coloring, [unit, (2,)], name="t")
        assert str(err.value) == f"t: unit {tuple(sorted(unit))} is not 1 or 2 distinct nodes"
        assert err.value.phase == "t"

    def test_pair_on_graph_edge_raised_before_deg_plus_one(self):
        # triangle 0-1-2 (each unit: palette 2, degree 2) plus the edge 3-4;
        # unit (0,) breaks deg+1, but the later pair (3,4) is checked first
        g = Graph(5, [(0, 1), (0, 2), (1, 2), (3, 4)])
        coloring = PartialColoring(g)  # delta 2
        units = [make_unit(0), make_unit(1), make_unit(2), make_unit(3, 4)]
        with pytest.raises(BrooksSimError) as err:
            build_instance(g, coloring, units, name="t")
        assert not isinstance(err.value, DegPlusOneViolation)
        assert str(err.value) == "t: pair (3, 4) is an edge of G"
        assert err.value.phase == "t"

    def test_instance_adjacency(self):
        inst = list_instance(
            tuple(make_unit(v) for v in range(3)),
            ((0, 1), (1, 2)),
            tuple(frozenset(range(3)) for _ in range(3)),
            delta=3,
        )
        assert inst.adj == ((1,), (0, 2), (1,))
        assert inst.palettes == (mask_of((0, 1, 2)),) * 3
        assert inst.max_degree == 2


class TestSolveDistributed:
    def test_single_unit_forced_color(self):
        inst = list_instance((make_unit(3),), (), (frozenset({5}),), delta=8)
        assignment, _ = solve_distributed(inst, seed=0)
        assert assignment == {(3,): 5}

    def test_path_of_three_units(self):
        inst = list_instance(
            (make_unit(0), make_unit(1), make_unit(2)),
            ((0, 1), (1, 2)),
            (frozenset({0, 1}), frozenset({0, 1, 2}), frozenset({0, 1})),
            delta=3,
        )
        assignment, metrics = solve_distributed(inst, seed=1)
        assert validate_assignment(inst, assignment)
        assert solve_greedy_oracle(inst)  # oracle agrees the instance is feasible
        assert metrics.rounds_elapsed >= 2

    def test_determinism(self):
        inst = list_instance(
            tuple(make_unit(v) for v in range(4)),
            ((0, 1), (1, 2), (2, 3), (0, 3)),
            tuple(frozenset(range(3)) for _ in range(4)),
            delta=4,
        )
        a, _ = solve_distributed(inst, seed=5)
        b, _ = solve_distributed(inst, seed=5)
        assert a == b

    def test_empty_instance(self):
        inst = list_instance((), (), (), delta=4)
        assignment, metrics = solve_distributed(inst, seed=0)
        assert assignment == {}
        assert metrics.rounds_elapsed == 0

    def test_uncolored_unit_after_halt_is_a_typed_error(self, monkeypatch):
        # an engine that halts with a unit uncolored breaks the solver's contract
        monkeypatch.setattr(
            listcolor, "run_protocol", lambda *args, **kwargs: ([0, None], RoundMetrics())
        )
        inst = list_instance(
            (make_unit(2), make_unit(5)), (), (frozenset({0}), frozenset({1})), delta=4, name="t"
        )
        with pytest.raises(ProtocolOutputError) as err:
            solve_distributed(inst, seed=0)
        assert str(err.value) == "halted with an uncolored unit: (5,)"
        assert (err.value.phase, err.value.node) == ("t", (5,))

    def test_clique_instance_all_distinct(self):
        k = 6
        inst = list_instance(
            tuple(make_unit(v) for v in range(k)),
            tuple((i, j) for i in range(k) for j in range(i + 1, k)),
            tuple(frozenset(range(7)) for _ in range(k)),
            delta=8,
        )
        assignment, _ = solve_distributed(inst, seed=3)
        assert len(set(assignment.values())) == k


class TestGreedyOracle:
    def test_minimal_palettes_always_succeed(self):
        k = 5
        inst = list_instance(
            tuple(make_unit(v) for v in range(k)),
            tuple((i, j) for i in range(k) for j in range(i + 1, k)),
            tuple(frozenset(range(5)) for _ in range(k)),
            delta=6,
        )
        assignment = solve_greedy_oracle(inst)
        assert validate_assignment(inst, assignment)

    def test_infeasible_without_deg_plus_one(self):
        inst = list_instance(
            (make_unit(0), make_unit(1)),
            ((0, 1),),
            (frozenset({0}), frozenset({0})),
            delta=3,
        )
        with pytest.raises(ValueError):
            solve_greedy_oracle(inst)

    def test_monte_carlo_random_deg_plus_one_instances(self):
        # greedy succeeds on every instance satisfying deg+1, 10k samples
        rng = random.Random(0)
        for _ in range(10_000):
            n = rng.randrange(1, 9)
            edges = [
                (i, j)
                for i in range(n)
                for j in range(i + 1, n)
                if rng.random() < 0.5
            ]
            deg = [0] * n
            for i, j in edges:
                deg[i] += 1
                deg[j] += 1
            delta_colors = 10
            palettes = []
            for v in range(n):
                size = deg[v] + 1 + rng.randrange(0, 3)
                palettes.append(frozenset(rng.sample(range(delta_colors), min(size, delta_colors))))
            inst = list_instance(
                tuple(make_unit(v) for v in range(n)),
                tuple(edges),
                tuple(palettes),
                delta=delta_colors,
                name="mc",
            )
            assignment = solve_greedy_oracle(inst)
            assert validate_assignment(inst, assignment)


class TestValidateAssignment:
    def _inst(self):
        return list_instance(
            (make_unit(0), make_unit(1)),
            ((0, 1),),
            (frozenset({0, 1}), frozenset({1, 2})),
            delta=4,
        )

    def test_accepts_good(self):
        assert validate_assignment(self._inst(), {(0,): 0, (1,): 1})

    def test_rejects_out_of_palette(self):
        assert not validate_assignment(self._inst(), {(0,): 3, (1,): 1})

    def test_rejects_conflict(self):
        assert not validate_assignment(self._inst(), {(0,): 1, (1,): 1})

    def test_rejects_partial(self):
        assert not validate_assignment(self._inst(), {(0,): 0})
