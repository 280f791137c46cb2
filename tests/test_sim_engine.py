import pytest

from brooks_sim.errors import MessageSizeViolation, RoundLimitExceeded
from brooks_sim.graph_core import Graph
from brooks_sim.sim_engine import (
    StreamRng,
    color_value_bits,
    congest_budget,
    run_protocol,
)
from oracles import complete_graph, path_graph


class HaltImmediately:
    halted = True

    def step(self, round_no, inbox, rng):  # pragma: no cover - never stepped
        raise AssertionError("stepped a halted program")


class BroadcastId:
    """Broadcast own id once, record the inbox seen next round, halt."""

    def __init__(self, node):
        self.node = node
        self.halted = False
        self.seen = None

    def step(self, round_no, inbox, rng):
        if round_no == 0:
            return (1, self.node), False
        self.seen = list(inbox)
        return None, True


class NeverHalts:
    halted = False

    def step(self, round_no, inbox, rng):
        return None, False


class TooChatty:
    halted = False

    def __init__(self, value):
        self.value = value

    def step(self, round_no, inbox, rng):
        return (1, self.value), True


def test_all_halt_immediately_zero_rounds():
    g = complete_graph(3)
    _, metrics = run_protocol(g.adj, [HaltImmediately() for _ in range(3)], seed=0, max_rounds=5)
    assert metrics.rounds_elapsed == 0
    assert metrics.messages_sent == 0


def test_broadcast_on_k4():
    g = complete_graph(4)
    programs = [BroadcastId(v) for v in range(4)]
    final, metrics = run_protocol(g.adj, programs, seed=0, max_rounds=4, value_bits=2)
    for v in range(4):
        # one message per neighbor, in sender order
        assert final[v].seen == [(1, u) for u in range(4) if u != v]
    assert metrics.messages_sent == 12
    assert metrics.max_message_bits == 2 + 2  # tag + id width


def test_broadcast_reaches_only_neighbors():
    g = path_graph(3)  # 0 - 1 - 2
    programs = [BroadcastId(v) for v in range(3)]
    final, metrics = run_protocol(g.adj, programs, seed=0, max_rounds=4, value_bits=2)
    assert [p.seen for p in final] == [[(1, 1)], [(1, 0), (1, 2)], [(1, 1)]]
    assert metrics.messages_sent == 4  # sum of the senders' degrees


def test_isolated_sender_sends_nothing():
    g = Graph(2, [])
    programs = [BroadcastId(0), BroadcastId(1)]
    _, metrics = run_protocol(g.adj, programs, seed=0, max_rounds=4, value_bits=2)
    assert metrics.messages_sent == 0
    assert metrics.max_message_bits == 0


def test_determinism_bit_identical():
    g = complete_graph(4)

    def run():
        programs = [BroadcastId(v) for v in range(4)]
        final, metrics = run_protocol(g.adj, programs, seed=9, max_rounds=4, value_bits=2)
        return [p.seen for p in final], metrics

    states_a, metrics_a = run()
    states_b, metrics_b = run()
    assert states_a == states_b
    assert metrics_a.max_message_bits == metrics_b.max_message_bits
    assert metrics_a.messages_sent == metrics_b.messages_sent


def test_round_limit_reports_pending():
    g = complete_graph(2)
    with pytest.raises(RoundLimitExceeded) as err:
        run_protocol(g.adj, [NeverHalts(), NeverHalts()], seed=0, max_rounds=3)
    assert err.value.pending == (0, 1)


def test_strict_bit_budget_violation():
    g = complete_graph(2)
    programs = [TooChatty(value=200), HaltImmediately()]
    with pytest.raises(MessageSizeViolation) as err:
        run_protocol(
            g.adj, programs, seed=0, max_rounds=2, value_bits=8, strict_bit_budget=4
        )
    assert err.value.bits == 10
    assert err.value.budget == 4


def test_value_overflow_rejected():
    g = complete_graph(2)
    programs = [TooChatty(value=200), HaltImmediately()]
    with pytest.raises(ValueError):
        run_protocol(g.adj, programs, seed=0, max_rounds=2, value_bits=4)


class TestCongestBudget:
    # at n = 1024 and c = 1 a 10-bit message fits and an 11-bit one does not
    def test_within_budget(self):
        assert congest_budget(1024, 1) >= 10

    def test_over_budget(self):
        assert congest_budget(1024, 1) < 11

    def test_budget_is_c_ceil_log2_n_and_at_least_c(self):
        assert congest_budget(1025, 3) == 3 * 11
        assert congest_budget(1024, 3) == 3 * 10
        assert congest_budget(2, 4) == congest_budget(1, 4) == 4


class TestStreamRng:
    def test_deterministic(self):
        a = StreamRng(1, 2, 3)
        b = StreamRng(1, 2, 3)
        assert [a.uniform() for _ in range(5)] == [b.uniform() for _ in range(5)]

    def test_streams_differ_across_nodes_and_rounds(self):
        base = [StreamRng(1, 2, 3).uniform() for _ in range(3)]
        assert base != [StreamRng(1, 4, 3).uniform() for _ in range(3)]
        assert base != [StreamRng(1, 2, 4).uniform() for _ in range(3)]
        assert base != [StreamRng(2, 2, 3).uniform() for _ in range(3)]

    def test_uniform_in_range(self):
        rng = StreamRng(0, 0, 0)
        for _ in range(1000):
            assert 0.0 <= rng.uniform() < 1.0

    def test_randrange_bounds_and_coverage(self):
        rng = StreamRng(5, 6, 7)
        draws = [rng.randrange(7) for _ in range(2000)]
        assert set(draws) == set(range(7))

    def test_color_value_bits(self):
        assert color_value_bits(2) == 1
        assert color_value_bits(16) == 4
        assert color_value_bits(17) == 5
        assert color_value_bits(64) == 6
