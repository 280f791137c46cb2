import pytest
from fractions import Fraction

from brooks_sim.acd import compute_acd
from brooks_sim.classify import (
    ACClassification,
    classify_acs,
    find_special,
    fine_partition,
    is_easy,
    is_simplicial,
)
from brooks_sim.errors import PartitionViolationError
from brooks_sim.graph_core import Graph, generate_instance
from brooks_sim.thresholds import Thresholds, ceil_phi, floor_psi


class TestThresholds:
    def test_exact_values_at_cube_deltas(self):
        t64 = Thresholds(64)
        assert t64.psi == pytest.approx(4.0)
        assert t64.phi == pytest.approx(8.0)
        t27 = Thresholds(27)
        assert t27.psi == pytest.approx(3.0)
        assert t27.phi == pytest.approx(4.5)

    def test_special_count_boundaries(self):
        # delta=64: phi=8, so 8 neighbors is special and 7 is not
        t = Thresholds(64)
        assert t.is_special_count(8)
        assert not t.is_special_count(7)
        # delta=27: phi=4.5, counts are integers so the cut is at 5
        t = Thresholds(27)
        assert t.is_special_count(5)
        assert not t.is_special_count(4)

    def test_phi_exceeds_psi_above_eight(self):
        for delta in (9, 16, 27, 64, 100):
            t = Thresholds(delta)
            assert t.phi > t.psi
        t8 = Thresholds(8)
        assert t8.phi == pytest.approx(t8.psi)

    def test_difficult_size_uses_floor_psi(self):
        assert floor_psi(16) == 2
        assert floor_psi(27) == 3
        assert floor_psi(63) == 3
        assert floor_psi(64) == 4
        t = Thresholds(16)
        assert t.difficult_size_ok(14)
        assert not t.difficult_size_ok(13)

    def test_ceil_phi(self):
        assert ceil_phi(16) == 4  # phi ~ 3.17
        assert ceil_phi(27) == 5  # phi = 4.5
        assert ceil_phi(64) == 8

    def test_half_phi(self):
        t = Thresholds(64)
        assert t.meets_half_phi(4)
        assert not t.meets_half_phi(3)


def _star_tail_edges(hub: int, delta: int) -> list[tuple[int, int]]:
    return [(hub, hub + 1 + i) for i in range(delta)]


class TestFindSpecial:
    def test_isolated_clique_has_none(self):
        k = 12
        edges = [(i, j) for i in range(k) for j in range(i + 1, k)]
        edges += _star_tail_edges(k, 12)
        g = Graph(k + 13, edges)
        acd = compute_acd(g, Fraction(1, 8))
        idx = next(i for i, c in enumerate(acd.cliques) if len(c) == k)
        assert find_special(g, acd, idx) == frozenset()

    def test_runaway_generator_specials(self):
        inst = generate_instance("runaway_pair", 27, seed=3)
        acd = compute_acd(inst.graph, inst.epsilon)
        for idx in range(len(acd.cliques)):
            assert find_special(inst.graph, acd, idx) == frozenset(inst.meta["specials"])

    def test_boundary_at_delta_64(self):
        # outside node with exactly 8 neighbors in a 63-clique is special, 7 is not
        inst = generate_instance("guarded_pair", 64, seed=0)
        g = inst.graph
        acd = compute_acd(g, inst.epsilon)
        th = Thresholds(64)
        for special, covered in inst.meta["coverage"].items():
            count = len(covered)
            assert th.is_special_count(count)
        assert not th.is_special_count(7)
        assert th.is_special_count(8)


class TestIsEasy:
    def test_clique_minus_edge_is_easy(self):
        inst = generate_instance("clique_minus_edge", 8, seed=0)
        acd = compute_acd(inst.graph, inst.epsilon)
        assert is_easy(inst.graph, acd, 0)

    def test_matched_cliques_not_easy(self):
        inst = generate_instance("matched_cliques", 8, seed=0)
        g = inst.graph
        acd = compute_acd(g, Fraction(1, 8))
        for idx in range(2):
            assert not is_easy(g, acd, idx)
        # exhaustive: no member is simplicial, no non-edge inside a side
        assert not any(is_simplicial(g, v) for v in range(g.n))

    def test_pendant_keeps_other_members_simplicial(self):
        k = 12
        edges = [(i, j) for i in range(k) for j in range(i + 1, k)]
        edges.append((0, k))  # pendant attached to member 0
        edges += _star_tail_edges(k + 1, 12)
        g = Graph(k + 14, edges)
        acd = compute_acd(g, Fraction(1, 8))
        idx = next(i for i, c in enumerate(acd.cliques) if len(c) >= k)
        assert not is_simplicial(g, 0)
        assert is_simplicial(g, 1)
        assert is_easy(g, acd, idx)


class TestClassify:
    def test_guarded_pair_protector_is_smallest_special(self):
        inst = generate_instance("guarded_pair", 16, seed=0)
        acd = compute_acd(inst.graph, inst.epsilon)
        cls = classify_acs(inst.graph, acd)
        assert cls.labels == ("guarded",)
        assert cls.picked == (0,)
        assert cls.protectors == frozenset({0})
        assert cls.escapes == frozenset()

    def test_runaway_pair_shares_escape(self):
        inst = generate_instance("runaway_pair", 16, seed=0)
        acd = compute_acd(inst.graph, inst.epsilon)
        cls = classify_acs(inst.graph, acd)
        assert cls.labels == ("runaway", "runaway")
        assert cls.picked == (0, 0)
        assert cls.escapes == frozenset({0})
        assert cls.protectors == frozenset()

    def test_matched_cliques_ordinary(self):
        inst = generate_instance("matched_cliques", 16, seed=0)
        acd = compute_acd(inst.graph, inst.epsilon)
        cls = classify_acs(inst.graph, acd)
        assert cls.labels == ("ordinary", "ordinary")
        assert cls.special_sets == (frozenset(), frozenset())

    def test_picked_special_is_in_special_set(self):
        for family in ("guarded_pair", "runaway_pair"):
            inst = generate_instance(family, 27, seed=1)
            acd = compute_acd(inst.graph, inst.epsilon)
            cls = classify_acs(inst.graph, acd)
            for idx, picked in enumerate(cls.picked):
                if picked is not None:
                    assert picked in cls.special_sets[idx]
                    assert picked == min(cls.special_sets[idx])


class TestFinePartition:
    def test_single_nice_component(self):
        inst = generate_instance("clique_minus_edge", 8, seed=0)
        acd = compute_acd(inst.graph, inst.epsilon)
        cls = classify_acs(inst.graph, acd)
        part = fine_partition(inst.graph, acd, cls)
        assert part.N == frozenset(range(inst.graph.n))
        for name, nodes in part.sets().items():
            if name != "N":
                assert nodes == frozenset()

    def test_runaway_pair_sets(self):
        inst = generate_instance("runaway_pair", 16, seed=0)
        acd = compute_acd(inst.graph, inst.epsilon)
        cls = classify_acs(inst.graph, acd)
        part = fine_partition(inst.graph, acd, cls)
        assert part.E == frozenset({0})
        assert part.Vstar == frozenset({1})  # the unpicked special stays sparse
        assert part.R == frozenset(range(2, inst.graph.n))
        assert part.P == part.O == part.N == part.G == frozenset()

    def test_partition_counts_across_families(self):
        for family in ("mixed", "guarded_pair", "matched_cliques", "random_gnd"):
            inst = generate_instance(family, 16, seed=2)
            acd = compute_acd(inst.graph, inst.epsilon)
            cls = classify_acs(inst.graph, acd)
            part = fine_partition(inst.graph, acd, cls)
            total = sum(len(s) for s in part.sets().values())
            assert total == inst.graph.n

    def test_fabricated_overlap_rejected(self):
        inst = generate_instance("matched_cliques", 16, seed=0)
        acd = compute_acd(inst.graph, inst.epsilon)
        cls = classify_acs(inst.graph, acd)
        # claim a protector that lives inside an ordinary AC
        bad = ACClassification(
            thresholds=cls.thresholds,
            labels=cls.labels,
            easy=cls.easy,
            special_sets=cls.special_sets,
            picked=cls.picked,
            protectors=frozenset({3}),
            escapes=cls.escapes,
        )
        with pytest.raises(PartitionViolationError) as err:
            fine_partition(inst.graph, acd, bad)
        assert err.value.phase == "classify"

    def test_difficult_acs_are_cliques_without_picked_specials(self):
        # difficult ACs must be cliques without picked specials inside
        for family in ("guarded_pair", "runaway_pair"):
            inst = generate_instance(family, 27, seed=4)
            g = inst.graph
            acd = compute_acd(g, inst.epsilon)
            cls = classify_acs(g, acd)
            part = fine_partition(g, acd, cls)
            pe = part.P | part.E
            for idx, label in enumerate(cls.labels):
                if label in ("guarded", "runaway"):
                    clique = sorted(acd.cliques[idx])
                    for i, u in enumerate(clique):
                        for v in clique[i + 1 :]:
                            assert g.has_edge(u, v)
                    assert not (acd.cliques[idx] & pe)
