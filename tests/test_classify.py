import operator
from fractions import Fraction

import pytest

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
from brooks_sim.graph_core import Graph, common_neighbour_pass, generate_instance
from brooks_sim.thresholds import C_SPARSE, Thresholds, ceil_phi, count_meets_phi, floor_psi


class TestThresholds:
    def test_exact_values_at_cube_deltas(self):
        # delta=64: psi=4, phi=8; delta=27: psi=3, phi=4.5
        t64 = Thresholds.of(Fraction(1, 8), 64)
        assert (t64.special_min, t64.difficult_min) == (8, 60)
        t27 = Thresholds.of(Fraction(1, 8), 27)
        assert (t27.special_min, t27.difficult_min) == (5, 24)

    def test_special_count_boundaries(self):
        # delta=64: phi=8, so 8 neighbors is special and 7 is not
        assert count_meets_phi(8, 64)
        assert not count_meets_phi(7, 64)
        # delta=27: phi=4.5, counts are integers so the cut is at 5
        assert count_meets_phi(5, 27)
        assert not count_meets_phi(4, 27)

    def test_phi_exceeds_psi_above_eight(self):
        # a special needs more AC neighbors than a difficult AC may lack
        for delta in (9, 16, 27, 64, 100):
            t = Thresholds.of(Fraction(1, 8), delta)
            assert t.special_min > delta - t.difficult_min
        t8 = Thresholds.of(Fraction(1, 8), 8)
        assert t8.special_min == 8 - t8.difficult_min == 2

    def test_difficult_size_uses_floor_psi(self):
        assert floor_psi(16) == 2
        assert floor_psi(27) == 3
        assert floor_psi(63) == 3
        assert floor_psi(64) == 4
        assert Thresholds.of(Fraction(1, 8), 16).difficult_min == 14

    def test_ceil_phi(self):
        assert ceil_phi(16) == 4  # phi ~ 3.17
        assert ceil_phi(27) == 5  # phi = 4.5
        assert ceil_phi(64) == 8

    def test_integer_bounds_decide_like_exact_bounds(self):
        # every count 0..2*delta+1 against the Fraction (or cubed-integer)
        # comparison each integer bound replaces
        ge, gt, le = operator.ge, operator.gt, operator.le
        epsilons = (Fraction(1, 172), Fraction(1, 8), Fraction(15, 128), Fraction(1, 4))
        for delta in range(3, 130):
            for eps in epsilons + (Fraction(1, 3 * delta),):
                t = Thresholds.of(eps, delta)
                eps_prime = max(3 * eps, Fraction(3, delta))
                checks = (
                    (ge, (1 - eps_prime) * delta, t.similar_min),
                    (ge, (1 - eps) * delta, t.size_min),
                    (le, (1 + 3 * eps) * delta, t.size_max),
                    (ge, (1 - 4 * eps) * delta, t.inside_min),
                    (ge, max((1 - 4 * eps) * delta, 1), max(t.inside_min, 1)),
                    (gt, (1 - 2 * eps) * delta, t.outsider_max),
                    (gt, 7 * eps * delta, t.anti_max),
                    (gt, 4 * eps * delta, t.outside_max),
                )
                sparse_floor = C_SPARSE * eps * eps * delta
                for c in range(2 * delta + 2):
                    for op, exact, bound in checks:
                        assert op(c, exact) == op(c, bound), (delta, eps, c, exact)
                    assert (Fraction(c, delta) < sparse_floor) == (c < t.missing_min)
                    assert ((2 * c) ** 3 >= delta * delta) == (c >= t.special_min)
                    meets_psi = c >= delta or (delta - c) ** 3 <= delta  # c >= delta - psi
                    assert meets_psi == (c >= t.difficult_min), (delta, c)


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
        special_min = Thresholds.of(inst.epsilon, 64).special_min
        for special, covered in inst.meta["coverage"].items():
            assert len(covered) >= special_min
        assert special_min == 8

    def test_another_graph_gets_its_own_specials(self):
        # the ACD keeps the outsider counts of the graph it was last asked
        # about; asked about another graph, it counts that graph's
        inst = generate_instance("runaway_pair", 16, seed=0)
        g = inst.graph
        acd = compute_acd(g, inst.epsilon)
        specials = find_special(g, acd, 0)
        assert specials
        clique = acd.cliques[0]
        into_ac = {frozenset((s, v)) for s in specials for v in clique}
        cut = Graph(g.n, [e for e in g.edges() if frozenset(e) not in into_ac])
        assert find_special(cut, acd, 0) == frozenset()
        assert find_special(g, acd, 0) == specials


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
        assert cls.specials == (frozenset(), frozenset())

    def test_picked_special_is_in_special_set(self):
        for family in ("guarded_pair", "runaway_pair"):
            inst = generate_instance(family, 27, seed=1)
            acd = compute_acd(inst.graph, inst.epsilon)
            cls = classify_acs(inst.graph, acd)
            for idx, picked in enumerate(cls.picked):
                if picked is not None:
                    assert picked in cls.specials[idx]
                    assert picked == min(cls.specials[idx])


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
            # the pipeline's path: the pass's sums decide the simplicial test
            inside_twice = common_neighbour_pass(inst.graph, 1)[1]
            assert classify_acs(inst.graph, acd, inside_twice) == cls
            part = fine_partition(inst.graph, acd, cls)
            total = sum(len(s) for s in part.sets().values())
            assert total == inst.graph.n

    def test_fabricated_overlap_rejected(self):
        inst = generate_instance("matched_cliques", 16, seed=0)
        acd = compute_acd(inst.graph, inst.epsilon)
        cls = classify_acs(inst.graph, acd)
        # claim a protector that lives inside an ordinary AC
        bad = ACClassification(
            labels=cls.labels,
            easy=cls.easy,
            specials=cls.specials,
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
