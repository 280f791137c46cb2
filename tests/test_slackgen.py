import random

import pytest
from fractions import Fraction

from brooks_sim import slackgen
from brooks_sim.acd import compute_acd
from brooks_sim.classify import NICE, classify_acs, fine_partition
from brooks_sim.errors import BrooksSimError, ProtocolOutputError
from brooks_sim.graph_core import Graph, PartialColoring, generate_instance
from brooks_sim.oracle_validate import validate_coloring
from brooks_sim.phases import PipelineConfig, run_pipeline
from brooks_sim.sim_engine import RoundMetrics, keyed
from brooks_sim.slackgen import check_lemma33, participant_set, run_slack_generation_with_metrics
from oracles import complete_graph, measure_slack


def colored_nodes(coloring: PartialColoring) -> list[int]:
    return [v for v in range(coloring.graph.n) if coloring.is_colored(v)]


def star_plus_isolated() -> Graph:
    # star on 0..4 plus isolated node 5; delta = 4
    return Graph(6, [(0, i) for i in range(1, 5)])


def test_pg_zero_colors_nothing():
    g = complete_graph(6)
    coloring = run_slack_generation_with_metrics(g, range(6), 0.0, 1)[0]
    assert colored_nodes(coloring) == []


def test_isolated_participant_pg_one_gets_colored():
    g = star_plus_isolated()
    coloring = run_slack_generation_with_metrics(g, [5], 1.0, 0)[0]
    assert coloring.is_colored(5)
    assert colored_nodes(coloring) == [5]


def test_adjacent_equal_draws_both_discarded():
    # K_2 has delta=1, so both participants always draw color 0 and collide
    g = complete_graph(2)
    coloring = run_slack_generation_with_metrics(g, [0, 1], 1.0, 7)[0]
    assert colored_nodes(coloring) == []


def test_color_kept_by_non_participant_is_a_typed_error(monkeypatch):
    # node 3 drew nothing (activation 0), so an engine that colours it is broken
    broken = [None, 1, None, 2, None, None]
    monkeypatch.setattr(slackgen, "run_protocol", lambda *args, **kwargs: (broken, RoundMetrics()))
    with pytest.raises(ProtocolOutputError) as err:
        run_slack_generation_with_metrics(star_plus_isolated(), [1, 2], 1.0, 0)
    assert str(err.value) == "non-participant kept a color: 3"
    assert (err.value.phase, err.value.node) == ("slackgen", 3)


@pytest.mark.parametrize("p_g", [-0.1, 1.5, 2.0, float("nan")])
def test_pg_outside_unit_interval_rejected(p_g):
    with pytest.raises(BrooksSimError) as err:
        run_slack_generation_with_metrics(complete_graph(4), range(4), p_g, 0)
    assert err.value.phase == "config"


def test_colored_subset_of_participants():
    inst = generate_instance("matched_cliques", 16, seed=0)
    participants = list(range(16))  # one side only
    coloring = run_slack_generation_with_metrics(inst.graph, participants, 0.9, 3)[0]
    assert set(colored_nodes(coloring)) <= set(participants)


def test_determinism_across_repeated_runs():
    inst = generate_instance("matched_cliques", 8, seed=0)
    a = run_slack_generation_with_metrics(inst.graph, range(16), 0.5, 11)[0]
    b = run_slack_generation_with_metrics(inst.graph, range(16), 0.5, 11)[0]
    assert a.as_list() == b.as_list()
    c = run_slack_generation_with_metrics(inst.graph, range(16), 0.5, 12)[0]
    assert a.as_list() != c.as_list()  # overwhelmingly likely


def test_keep_rule_matches_stream_replay():
    # recompute activations and draws straight from the documented keys,
    # (seed, node, round 0, 0) and (seed, node, round 0, 1), and rederive who
    # must have kept a color
    inst = generate_instance("random_gnd", 16, seed=4)
    g = inst.graph
    p_g, seed = 0.6, 21
    coloring = run_slack_generation_with_metrics(g, range(g.n), p_g, seed)[0]
    tried: dict[int, int] = {}
    for v in range(g.n):
        activated = (keyed(seed, v, 0, 0) >> 11) / (1 << 53) < p_g
        color = (keyed(seed, v, 0, 1) * g.delta) >> 64
        if activated:
            tried[v] = color
    expected = {}
    for v, c in tried.items():
        if all(tried.get(u) != c for u in g.adj[v]):
            expected[v] = c
    assert {v: coloring.color[v] for v in colored_nodes(coloring)} == expected


class TestMeasureSlack:
    def test_empty_coloring_full_degree_node(self):
        g = complete_graph(5)  # delta 4, all degrees 4
        coloring = PartialColoring(g)
        assert measure_slack(g, coloring, 0, range(5)) == 0

    def test_two_same_colored_neighbors_give_unit_slack(self):
        g = Graph(5, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 3)])  # delta 4
        coloring = PartialColoring(g)
        coloring.assign(1, 2)
        coloring.assign(2, 2)  # 1 and 2 non-adjacent, same color
        assert measure_slack(g, coloring, 0, range(5)) == 1

    def test_neighbor_outside_subgraph_gives_unit_slack(self):
        g = complete_graph(5)
        coloring = PartialColoring(g)
        assert measure_slack(g, coloring, 0, [0, 1, 2, 3]) == 1

    def test_errors_on_colored_node(self):
        g = complete_graph(3)
        coloring = PartialColoring(g)
        coloring.assign(0, 1)
        with pytest.raises(ValueError):
            measure_slack(g, coloring, 0, range(3))

    def test_matches_incremental_on_random_graphs(self):
        rng = random.Random(5)
        for trial in range(50):
            n = rng.randrange(6, 24)
            edges = [
                (u, v)
                for u in range(n)
                for v in range(u + 1, n)
                if rng.random() < 0.4
            ]
            g = Graph(n, edges)
            if g.delta == 0:
                continue
            coloring = run_slack_generation_with_metrics(g, range(n), 0.5, trial)[0]
            sub = [v for v in range(n) if rng.random() < 0.7]
            left_out = frozenset(range(n)).difference(sub)
            for v in range(n):
                if not coloring.is_colored(v):
                    assert measure_slack(g, coloring, v, sub) == coloring.slack_in(v, left_out)


def test_gate_leaves_an_ac_out_on_a_mask_free_graph():
    # random_gnd at n = 2000 keeps no n-bit masks; one clique_minus_edge
    # component, bridged from a hole endpoint to a node of degree at most
    # delta - 2, is a nice AC, so the gate measures every sparse node in
    # G[V* u O] with the AC's 17 nodes left out, through slack_in's set test
    inst = generate_instance("random_gnd", 16, seed=0, n=2000)
    n = inst.graph.n
    ac = generate_instance("clique_minus_edge", 16, seed=0)
    low = next(v for v in range(n) if inst.graph.degree(v) <= 14)
    edges = [*inst.graph.edges(), *((n + u, n + v) for u, v in ac.graph.edges())]
    g = Graph(n + ac.graph.n, [*edges, (low, n + ac.meta["missing_edge"][0])])
    acd = compute_acd(g, inst.epsilon)
    cls = classify_acs(g, acd)
    part = fine_partition(g, acd, cls)
    assert not g.small_masks and cls.labels == (NICE,) and part.outside_vo == acd.cliques[0]
    coloring = run_slack_generation_with_metrics(g, sorted(participant_set(part)), 0.5, 0)[0]
    report = check_lemma33(g, acd, cls, part, coloring)
    vo = part.Vstar | part.O
    expected = {v: measure_slack(g, coloring, v, vo) for v in coloring.uncolored_in(part.Vstar)}
    assert len(expected) == 1411 and report.sparse_slack == expected
    # the bridge's sparse end has an uncolored neighbour in the AC
    assert report.sparse_slack[low] == coloring.slack_in(low) + 1
    result = run_pipeline(g, PipelineConfig(epsilon=inst.epsilon, seed=0))
    assert validate_coloring(g, result.coloring.as_list(), 16)


class TestSlackPropertyReport:
    def _setup(self, family, delta, seed):
        inst = generate_instance(family, delta, seed=seed)
        acd = compute_acd(inst.graph, inst.epsilon)
        cls = classify_acs(inst.graph, acd)
        part = fine_partition(inst.graph, acd, cls)
        return inst.graph, acd, cls, part

    def test_pg_zero_violates_ordinary_but_not_difficult(self):
        g, acd, cls, part = self._setup("matched_cliques", 16, 0)
        coloring = run_slack_generation_with_metrics(g, sorted(participant_set(part)), 0.0, 0)[0]
        report = check_lemma33(g, acd, cls, part, coloring)
        assert not report.gate_ok
        assert {v.kind for v in report.violations} <= {"ordinary_ac", "sparse"}
        assert report.ordinary_unit_slack == {0: 0, 1: 0}

    def test_difficult_fraction_tracks_coloring(self):
        g, acd, cls, part = self._setup("runaway_pair", 64, 1)
        coloring = run_slack_generation_with_metrics(g, sorted(participant_set(part)), 0.05, 2)[0]
        report = check_lemma33(g, acd, cls, part, coloring)
        for idx, frac in report.difficult_colored_fraction.items():
            assert 0 <= frac <= Fraction(1, 2)

    def test_guarded_fraction_always_zero(self):
        # guarded AC members are outside the participant set entirely
        g, acd, cls, part = self._setup("guarded_pair", 16, 0)
        coloring = run_slack_generation_with_metrics(g, sorted(participant_set(part)), 1.0, 5)[0]
        report = check_lemma33(g, acd, cls, part, coloring)
        assert list(report.difficult_colored_fraction.values()) == [Fraction(0)]
        assert report.gate_ok

    def test_non_participants_never_colored(self):
        g, acd, cls, part = self._setup("mixed", 16, 3)
        participants = participant_set(part)
        coloring = run_slack_generation_with_metrics(g, sorted(participants), 1.0, 9)[0]
        outside = (part.N | part.G | part.P | part.E)
        for v in outside:
            assert not coloring.is_colored(v)

    def test_ordinary_gate_satisfied_within_retries_on_matched16(self):
        # statistical shape of the ordinary-AC slack property at desk scale:
        # a single trial often misses, but retries settle it for >= 90% of seeds.
        g, acd, cls, part = self._setup("matched_cliques", 16, 0)
        participants = sorted(participant_set(part))
        ok = 0
        seeds = 200
        for seed in range(seeds):
            for attempt in range(16):
                coloring, _ = run_slack_generation_with_metrics(
                    g, participants, 0.5, keyed(seed, attempt) >> 2  # the attempt seed
                )
                report = check_lemma33(g, acd, cls, part, coloring)
                if all(count > 0 for count in report.ordinary_unit_slack.values()):
                    ok += 1
                    break
        assert ok >= 0.9 * seeds


def test_slack_decomposition_identity():
    # slack(v, S) = (delta - deg) + repeated-neighbor-colors + uncolored
    # neighbors outside S, reconciled against the direct recount
    rng = random.Random(17)
    for trial in range(40):
        n = rng.randrange(5, 20)
        edges = [
            (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.45
        ]
        g = Graph(n, edges)
        if g.delta == 0:
            continue
        coloring = run_slack_generation_with_metrics(g, range(n), 0.6, trial)[0]
        subset = {v for v in range(n) if rng.random() < 0.6}
        for v in range(n):
            if coloring.is_colored(v):
                continue
            outside_uncolored = sum(
                1 for u in g.adj[v] if u not in subset and not coloring.is_colored(u)
            )
            nbr_colors = [coloring.color[u] for u in g.adj[v] if coloring.is_colored(u)]
            repetitions = len(nbr_colors) - len(set(nbr_colors))
            expected = (coloring.delta - g.degree(v)) + repetitions + outside_uncolored
            assert measure_slack(g, coloring, v, subset) == expected
            left_out = frozenset(u for u in range(n) if u not in subset)
            assert coloring.slack_in(v, left_out) == expected


def test_metrics_cover_three_rounds():
    inst = generate_instance("matched_cliques", 8, seed=0)
    _, metrics = run_slack_generation_with_metrics(inst.graph, range(16), 0.5, 4)
    assert metrics.rounds_elapsed == 3
    assert metrics.max_message_bits <= 2 + 3  # tag + ceil(log2 8)
