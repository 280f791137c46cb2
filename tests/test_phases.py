import hashlib
import itertools
import json

import pytest
from fractions import Fraction

from brooks_sim import phases as phases_module
from brooks_sim.errors import (
    BrooksSimError,
    DegPlusOneViolation,
    DeltaPlusOneCliquePresent,
    PartitionViolationError,
    RetryExhausted,
)
from brooks_sim.graph_core import FAMILIES, Graph, PartialColoring, generate_instance, mask_of
from brooks_sim.graph_core import graph as graph_module
from brooks_sim.graph_core.measures import _triangle_pass
from brooks_sim.oracle_validate import validate_coloring
from brooks_sim.phases import (
    PIPELINE_PLAN,
    PipelineConfig,
    PipelineSteps,
    run_pipeline,
)
from brooks_sim.sim_engine import RoundMetrics
from brooks_sim.slackgen import run_slack_generation_with_metrics
from brooks_sim.thresholds import ceil_phi
from oracles import (
    complete_graph,
    cycle_graph,
    hidden_in_prism,
    neighbour_masks,
    recount_instance,
    rook_graph,
    solve_greedy_oracle,
    validate_assignment,
)

ALL_KINDS = tuple(spec.kind for spec in PIPELINE_PLAN)


def run_family(family, delta, seed=0, **cfg):
    inst = generate_instance(family, delta, seed=seed)
    config = PipelineConfig(epsilon=inst.epsilon, seed=seed, **cfg)
    return inst, run_pipeline(inst.graph, config)


def executed_kinds(result):
    return [r.kind for r in result.ledger if r.units > 0]


def record(result, kind):
    return next(r for r in result.ledger if r.kind == kind)


# -- custom structural fixtures ----------------------------------------------


def nice_b_graph(delta: int = 16) -> Graph:
    """Isolated K_delta plus a star lifting the max degree to delta: the
    clique is a nice AC with no non-edge and no picked special."""
    k = delta
    edges = [(i, j) for i in range(k) for j in range(i + 1, k)]
    hub = k
    edges += [(hub, hub + 1 + i) for i in range(delta)]
    return Graph(k + 1 + delta, edges)


def double_hole_graph(delta: int = 16) -> Graph:
    """K_{delta+1} minus the two edges (0,1) and (0,2): one nice AC whose
    chosen pair leaves a non-common neighbor, so the nice-c gray set is
    nonempty."""
    n = delta + 1
    skip = {(0, 1), (0, 2)}
    return Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n) if (i, j) not in skip])


def pendant_nice_graph(core_hole: tuple[int, int] | None = (3, 4)) -> Graph:
    """delta=8, one nice AC at epsilon 1/4: node 0 is adjacent to a pendant
    node 2 and to the core 3..9 (K_7 minus `core_hole`), node 1 to 5..9.

    The smallest non-edge (0, 1) has N(0) & N(1) = {5..9}, which misses the
    pendant's only neighbor 0. With the hole, (3, 4) is the first non-edge
    whose common neighborhood {0, 5..9} dominates the AC; without it no
    non-edge does."""
    core = range(3, 10)
    edges = [(i, j) for i in core for j in core if i < j and (i, j) != core_hole]
    edges += [(0, v) for v in (2, *core)]
    edges += [(1, v) for v in range(5, 10)]
    return Graph(10, edges)


def protected_nice_graph() -> tuple[Graph, dict]:
    """delta=64: a guarded 63-clique whose protector also belongs to a nice
    AC (K_57 minus one edge), exercising nice sub-phase a) before step 8.

    Specials: 0 covers 8 clique positions (the later protector), 1 and 2
    split the rest so no special reaches the augmentation threshold.
    """
    delta = 64
    m = 63
    clique = list(range(3, 3 + m))
    edges = [(clique[i], clique[j]) for i in range(m) for j in range(i + 1, m)]
    cov0 = clique[:8]
    cov1 = clique[7:36]
    cov2 = clique[35:]
    for s, cov in ((0, cov0), (1, cov1), (2, cov2)):
        edges += [(s, v) for v in cov]
    # nice AC: K_57 minus one edge, containing special 0
    base = 3 + m
    prime = [0] + list(range(base, base + 56))
    hole = (prime[1], prime[2])
    for i in range(len(prime)):
        for j in range(i + 1, len(prime)):
            e = (min(prime[i], prime[j]), max(prime[i], prime[j]))
            if e != hole:
                edges.append(e)
    g = Graph(base + 56, edges)
    meta = {"protector": 0, "clique": clique, "nice_clique": prime, "hole": hole}
    assert g.delta == delta
    return g, meta


# -- gray/white machinery ----------------------------------------------------


def no_masks(nodes):
    """Stands in for `graph_core.graph.mask_of` where no mask may be built."""
    raise AssertionError("the n-bit masks of a sparse graph were built")


def bare_steps(g: Graph, coloring: PartialColoring) -> PipelineSteps:
    """Steps over a hand-made coloring; gray_then_white reads only g and the
    coloring, so the decomposition arguments stay unset."""
    return PipelineSteps(g, PipelineConfig(), None, None, None, coloring, RoundMetrics(), 0)


class TestColorGrayThenWhite:
    def test_empty_gray_single_white_instance(self):
        # a node with permanent slack from two same-colored neighbors
        g = Graph(5, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 3)])
        coloring = PartialColoring(g)
        coloring.assign(1, 2)
        coloring.assign(2, 2)
        steps = bare_steps(g, coloring)
        steps.gray_then_white("ordinary_gray", "ordinary_white", [((0, 1, 2), {0})])
        assert coloring.is_colored(0)
        assert [(r.kind, r.units) for r in steps.ledger] == [
            ("ordinary_gray", 0),
            ("ordinary_white", 1),
        ]

    def test_gray_without_white_neighbor_rejected(self):
        g = complete_graph(3)
        coloring = PartialColoring(g)
        steps = bare_steps(g, coloring)
        with pytest.raises(PartitionViolationError) as err:
            steps.gray_then_white("nice_c_gray", "nice_c_white", [((0,), set())])
        assert err.value.phase == "nice_c_gray"
        assert err.value.node == 0
        assert len(steps.ledger) == 0 and not coloring.is_colored(0)

    def test_white_without_justification_rejected(self):
        g = complete_graph(3)  # delta 2, no slack anywhere
        coloring = PartialColoring(g)
        steps = bare_steps(g, coloring)
        with pytest.raises(PartitionViolationError) as err:
            steps.gray_then_white("runaway_gray", "runaway_white", [((0, 1, 2), {0, 1, 2})])
        assert err.value.phase == "runaway_gray"
        assert len(steps.ledger) == 0 and coloring.uncolored_in(range(g.n)) == [0, 1, 2]

    def test_gray_colored_before_white(self):
        # grays get their instance first; whites stay uncolored meanwhile. A
        # disjoint star K_{1,4} raises Delta to 4, so node 0 has unit slack.
        star = [(4, leaf) for leaf in range(5, 9)]
        g = Graph(9, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 2)] + star)
        coloring = PartialColoring(g)
        steps = bare_steps(g, coloring)
        steps.gray_then_white("ordinary_gray", "ordinary_white", [(range(4), {0})])
        assert [(r.kind, r.units) for r in steps.ledger] == [
            ("ordinary_gray", 3),
            ("ordinary_white", 1),
        ]
        assert coloring.uncolored_in(range(g.n)) == [4, 5, 6, 7, 8]

    def test_stalled_neighbor_justifies_white(self):
        # K_3 at delta 2: node 2 is stalled (colored in a later step), so the
        # default slack subgraph leaves it out and node 0 has unit slack there.
        g = complete_graph(3)
        coloring = PartialColoring(g)
        steps = bare_steps(g, coloring)
        steps.gray_then_white("nice_b_gray", "nice_b_deferred", [((0, 1), {0})], frozenset({2}))
        assert coloring.is_colored(0) and coloring.is_colored(1)
        assert not coloring.is_colored(2)

    def test_sparse_split_builds_no_masks(self, monkeypatch):
        # the sparse nodes of a graph that keeps no n-bit masks, split after
        # slack generation: the even-numbered nodes with unit slack are
        # white, every other uncolored node is gray
        monkeypatch.setattr(graph_module, "mask_of", no_masks)
        g = generate_instance("random_gnd", 16, seed=0, n=2000).graph
        coloring, _ = run_slack_generation_with_metrics(g, range(g.n), 0.5, 0)
        uncolored = coloring.uncolored_in(range(g.n))
        white = {v for v in uncolored if v % 2 == 0 and coloring.slack_in(v) >= 1}
        steps = bare_steps(g, coloring)
        steps.gray_then_white("ordinary_gray", "ordinary_white", [(uncolored, white)])
        gray = len(uncolored) - len(white)
        assert not g.small_masks and gray > 500 and len(white) > 500
        assert [(r.kind, r.units) for r in steps.ledger] == [
            ("ordinary_gray", gray),
            ("ordinary_white", len(white)),
        ]
        assert coloring.is_total()


# -- per-family pipeline behavior ---------------------------------------------


class TestPipelineFamilies:
    def test_clique_minus_edge_forced_pair(self):
        inst, result = run_family("clique_minus_edge", 8, seed=5)
        colors = result.coloring.as_list()
        assert validate_coloring(inst.graph, colors, 8)
        a, b = inst.meta["missing_edge"]
        assert colors[a] == colors[b]
        assert record(result, "nice_c_pairs").units == 1

    def test_matched_cliques_uses_ordinary_steps(self):
        inst, result = run_family("matched_cliques", 16, seed=0)
        assert validate_coloring(inst.graph, result.coloring.as_list(), 16)
        kinds = executed_kinds(result)
        assert "ordinary_white" in kinds
        assert set(kinds) <= {"ordinary_gray", "ordinary_white"}

    def test_random_gnd_only_sparse_instance(self):
        inst, result = run_family("random_gnd", 16, seed=1)
        assert executed_kinds(result) == ["sparse"]
        assert validate_coloring(inst.graph, result.coloring.as_list(), 16)

    def test_sparse_graph_colors_without_masks(self, monkeypatch):
        # n*n > 128*m at n = 2000: the graph keeps no n-bit masks, and with no
        # almost-clique nothing asks for them. The pinned outputs are those
        # the masks gave.
        monkeypatch.setattr(graph_module, "mask_of", no_masks)
        inst = generate_instance("random_gnd", 16, seed=0, n=2000)
        g = inst.graph
        result = run_pipeline(g, PipelineConfig(epsilon=inst.epsilon, seed=0))
        colors = result.coloring.as_list()
        assert not g.small_masks and not result.acd.cliques
        assert validate_coloring(g, colors, 16)
        metrics = result.metrics
        digest = hashlib.sha256(json.dumps(colors).encode()).hexdigest()
        assert (result.retries, metrics.rounds_elapsed, metrics.messages_sent, digest) == (
            0,
            23,
            50948,
            "66ca4b632edaa6d3f98c5e19dc1e1dfc76055ad6e99c6bbd7aaaeb3d11e93eaf",
        )

    def test_one_ac_on_a_mask_free_graph_reads_masks_only_around_it(self):
        # random_gnd at n = 2000 keeps no n-bit masks; one clique_minus_edge
        # component, bridged from a hole endpoint to a node of degree at most
        # delta - 2, is its one almost-clique. The run may build the masks of
        # the AC and its neighbours only, and must give what it gives on a
        # copy whose masks were all read first.
        inst = generate_instance("random_gnd", 16, seed=0, n=2000)
        n = inst.graph.n
        ac = generate_instance("clique_minus_edge", 16, seed=0)
        hole = ac.meta["missing_edge"][0]
        low = next(v for v in range(n) if inst.graph.degree(v) <= 14)
        edges = [*inst.graph.edges(), *((n + u, n + v) for u, v in ac.graph.edges())]
        edges.append((low, n + hole))
        g, warm = Graph(n + ac.graph.n, edges), Graph(n + ac.graph.n, edges)
        assert neighbour_masks(warm) == [mask_of(a) for a in warm.adj]
        config = PipelineConfig(epsilon=inst.epsilon, seed=0)
        result, expected = run_pipeline(g, config), run_pipeline(warm, config)
        assert not g.small_masks and result.acd.cliques == (frozenset(range(n, g.n)),)
        members = result.acd.cliques[0]
        assert set(g.masks) <= members.union(*(g.adj[v] for v in members))
        for name in ("acd", "classification", "partition", "ledger", "metrics", "retries"):
            assert getattr(result, name) == getattr(expected, name), name
        assert result.coloring.as_list() == expected.coloring.as_list()
        assert validate_coloring(g, result.coloring.as_list(), 16)

    def test_runaway_pair_escape_colored_last(self):
        inst, result = run_family("runaway_pair", 64, seed=0)
        g = inst.graph
        assert validate_coloring(g, result.coloring.as_list(), 64)
        escape = inst.meta["expected_escape"]
        assert result.partition.E == frozenset({escape})
        # escape slack >= 1 held after slack generation (gate), so its final
        # palette was nonempty when everything else was colored
        assert result.slack_report.escape_slack[escape] >= 1
        assert record(result, "escape").min_palette >= 1
        kinds = executed_kinds(result)
        assert kinds[-1] == "escape"
        assert "runaway_gray" in kinds and "runaway_white" in kinds

    def test_guarded_pair_structure(self):
        inst, result = run_family("guarded_pair", 64, seed=0)
        g = inst.graph
        colors = result.coloring.as_list()
        assert validate_coloring(g, colors, 64)
        protector = inst.meta["expected_protector"]
        assert result.partition.P == frozenset({protector})
        pairs = record(result, "guarded_pairs")
        assert pairs.units == 1
        assert pairs.min_palette is not None
        assert (4 * pairs.min_palette) ** 3 >= 64 * 64  # >= phi/2, exact
        white = record(result, "guarded_white")
        assert white.units >= ceil_phi(64) // 2
        assert (4 * white.min_palette) ** 3 >= 64 * 64  # recorded phi/2 threshold
        gray = record(result, "guarded_gray")
        assert 2 * gray.min_palette >= 64
        # protector and its toehold share a color
        toehold = [
            v
            for v in inst.meta["clique"]
            if not g.has_edge(v, protector) and colors[v] == colors[protector]
        ]
        assert toehold

    def test_mixed_all_steps_exercised(self):
        inst, result = run_family("mixed", 16, seed=1)
        assert validate_coloring(inst.graph, result.coloring.as_list(), 16)
        kinds = set(executed_kinds(result))
        assert {"sparse", "ordinary_white", "runaway_white", "nice_c_pairs",
                "guarded_pairs", "escape"} <= kinds


@pytest.mark.parametrize("family", FAMILIES)
def test_default_epsilon_colors_every_family(family):
    # PipelineConfig's own epsilon, not the family's hint, at Delta 16 and 64
    for delta in (16, 64):
        for seed in range(5):
            g = generate_instance(family, delta, seed).graph
            result = run_pipeline(g, PipelineConfig(seed=seed))
            assert validate_coloring(g, result.coloring.as_list(), delta), (delta, seed)


class TestPipelineStructuralPaths:
    def test_k_delta_plus_one_rejected(self):
        g = complete_graph(9)
        with pytest.raises(DeltaPlusOneCliquePresent):
            run_pipeline(g, PipelineConfig(epsilon=Fraction(1, 8)))

    def test_delta_two_cycle_fails_the_acd_precondition(self):
        with pytest.raises(BrooksSimError) as err:
            run_pipeline(cycle_graph(5), PipelineConfig())
        assert type(err.value) is BrooksSimError
        assert err.value.phase == "precondition"

    def test_triangle_is_a_delta_plus_one_clique(self):
        with pytest.raises(DeltaPlusOneCliquePresent) as err:
            run_pipeline(complete_graph(3), PipelineConfig())
        assert err.value.phase == "precondition"

    def test_clique_on_a_mask_free_graph_is_found_by_the_triangle_listing(self):
        g = hidden_in_prism(list(itertools.combinations(range(4), 2)), 4)
        assert g.delta == 3 and _triangle_pass(g, 1) is not None
        with pytest.raises(DeltaPlusOneCliquePresent) as err:
            run_pipeline(g, PipelineConfig())
        assert err.value.phase == "precondition"

    def test_nice_b_deferred_node(self):
        g = nice_b_graph(16)
        result = run_pipeline(g, PipelineConfig(epsilon=Fraction(1, 8), seed=2))
        assert validate_coloring(g, result.coloring.as_list(), 16)
        kinds = executed_kinds(result)
        assert "nice_b_gray" in kinds and "nice_b_deferred" in kinds
        assert record(result, "nice_b_deferred").units == 1
        assert record(result, "nice_b_gray").units == 15

    def test_double_hole_populates_nice_c_gray(self):
        g = double_hole_graph(16)
        result = run_pipeline(g, PipelineConfig(epsilon=Fraction(1, 8), seed=0))
        assert validate_coloring(g, result.coloring.as_list(), 16)
        assert record(result, "nice_c_gray").units == 1
        assert record(result, "nice_c_pairs").units == 1
        colors = result.coloring.as_list()
        assert colors[0] == colors[1]  # the lexicographically smallest non-edge

    def test_nice_c_pair_dominates_the_ac(self):
        g = pendant_nice_graph()
        result = run_pipeline(g, PipelineConfig(epsilon=Fraction(1, 4), seed=0))
        colors = result.coloring.as_list()
        assert validate_coloring(g, colors, 8)
        assert colors[3] == colors[4] and colors[0] != colors[1]
        assert [(r.kind, r.units) for r in result.ledger if r.units] == [
            ("nice_c_pairs", 1),
            ("nice_c_gray", 2),  # nodes 1 and 2
            ("nice_c_white", 6),  # N(3) & N(4) = {0, 5..9}
        ]

    def test_nice_c_without_dominating_pair_names_phase(self):
        g = pendant_nice_graph(core_hole=None)
        with pytest.raises(PartitionViolationError) as err:
            run_pipeline(g, PipelineConfig(epsilon=Fraction(1, 4), seed=0))
        assert err.value.phase == "nice_c_pairs"
        assert "dominating" in str(err.value)

    def test_protected_nice_subphase_a(self):
        g, meta = protected_nice_graph()
        result = run_pipeline(g, PipelineConfig(epsilon=Fraction(1, 8), seed=0))
        colors = result.coloring.as_list()
        assert validate_coloring(g, colors, 64)
        protector = meta["protector"]
        assert result.partition.P == frozenset({protector})
        kinds = executed_kinds(result)
        assert "nice_a_white" in kinds
        assert "guarded_pairs" in kinds
        # the protector was same-colored with a non-neighbor in its ward
        partners = [
            v
            for v in meta["clique"]
            if not g.has_edge(v, protector) and colors[v] == colors[protector]
        ]
        assert partners
        # guarded pair palette met the phi/2 bound despite the colored nice AC
        pairs = record(result, "guarded_pairs")
        assert (4 * pairs.min_palette) ** 3 >= 64 * 64


class TestPipelineContract:
    def test_plan_order_matches_coloring_order(self):
        assert ALL_KINDS == (
            "sparse",
            "ordinary_gray",
            "ordinary_white",
            "runaway_gray",
            "runaway_white",
            "nice_a_gray",
            "nice_a_white",
            "nice_b_gray",
            "nice_b_deferred",
            "nice_c_pairs",
            "nice_c_gray",
            "nice_c_white",
            "guarded_pairs",
            "guarded_gray",
            "guarded_white",
            "escape",
        )

    @pytest.mark.parametrize(
        "field, value",
        [
            ("p_g", -0.25),
            ("p_g", 2.0),
            ("p_g", float("nan")),
            ("max_retries", 0),
            ("max_retries", -1),
            ("seed", 1 << 63),
            ("seed", -(1 << 63) - 1),
            ("congest_c", 0),
            ("congest_c", -1),
            # ill-typed values: no traceback mid-run, no silent accept
            ("p_g", "0.5"),
            ("p_g", True),
            ("epsilon", "abc"),
            ("epsilon", None),
            ("epsilon", Fraction(1, 2)),
            ("max_retries", 2.5),
            ("max_retries", True),
            ("seed", 1.5),
            ("seed", None),
            ("congest_c", 2.5),
            ("strict_congest", "no"),
            ("strict_congest", 1),
        ],
    )
    def test_config_rejects_bad_values(self, field, value):
        with pytest.raises(BrooksSimError) as err:
            PipelineConfig(**{field: value})
        assert err.value.phase == "config"

    def test_config_accepts_boundary_values(self):
        PipelineConfig(p_g=0.0, max_retries=1)
        PipelineConfig(p_g=1.0, congest_c=1)

    def test_config_keeps_epsilon_as_a_fraction(self):
        assert PipelineConfig(epsilon=" 1/8 ").epsilon == Fraction(1, 8)
        assert type(PipelineConfig(epsilon="1/8").epsilon) is Fraction
        assert PipelineConfig(epsilon="1/8") == PipelineConfig(epsilon=Fraction(1, 8))

    @pytest.mark.parametrize(
        "args, message",
        [
            (([[1], [0]], PipelineConfig()), "g must be a Graph, got list"),
            ((complete_graph(4), None), "config must be a PipelineConfig, got NoneType"),
            ((complete_graph(4), {"seed": 0}), "config must be a PipelineConfig, got dict"),
        ],
    )
    def test_run_pipeline_rejects_wrong_argument_types(self, args, message):
        with pytest.raises(BrooksSimError, match=message) as err:
            run_pipeline(*args)
        assert type(err.value) is BrooksSimError and err.value.phase == "config"

    @pytest.mark.parametrize("seed", [(1 << 63) - 1, -(1 << 63)])
    def test_extreme_seeds_run(self, seed):
        g = generate_instance("clique_minus_edge", 16, 0).graph
        result = run_pipeline(g, PipelineConfig(epsilon=Fraction(1, 8), seed=seed))
        assert validate_coloring(g, result.coloring.as_list(), g.delta)

    def test_ledger_always_full_plan(self):
        for family in ("clique_minus_edge", "mixed", "random_gnd"):
            _, result = run_family(family, 16, seed=0)
            assert result.ledger.kinds() == ALL_KINDS
            assert len(result.ledger) == 16

    def test_retry_counter_visible(self):
        # matched_cliques at delta=27 seed 0 needed retries in earlier runs;
        # find a seed deterministically that retries at least once
        for seed in range(30):
            inst, result = run_family("matched_cliques", 16, seed=seed)
            if result.retries > 0:
                assert validate_coloring(inst.graph, result.coloring.as_list(), 16)
                return
        pytest.fail("no retrying seed found in 30 tries")

    def test_deg_plus_one_violation_retries(self, monkeypatch):
        # attempt 0's first instance build raises, as it would after too little
        # slack; the run re-seeds slack generation and colors on attempt 1
        real_build = phases_module.build_instance
        failures = []

        def failing_once(g, coloring, units, **kw):
            if not failures:
                failures.append(kw["name"])
                raise DegPlusOneViolation(kw["name"], units[0], 0, 0)
            return real_build(g, coloring, units, **kw)

        monkeypatch.setattr(phases_module, "build_instance", failing_once)
        inst, result = run_family("clique_minus_edge", 16, seed=0)
        assert failures == ["nice_c_pairs"]
        assert result.retries == 1
        assert result.attempts[0].deg_plus_one.phase == "nice_c_pairs"
        assert validate_coloring(inst.graph, result.coloring.as_list(), 16)
        failures.clear()
        with pytest.raises(RetryExhausted, match=r"last: deg\+1 violation: nice_c_pairs: unit"):
            run_family("clique_minus_edge", 16, seed=0, max_retries=1)

    def test_retry_exhausted_raises(self):
        inst = generate_instance("matched_cliques", 16, seed=0)
        config = PipelineConfig(epsilon=inst.epsilon, seed=0, p_g=0.0, max_retries=2)
        with pytest.raises(RetryExhausted) as err:
            run_pipeline(inst.graph, config)
        assert err.value.attempts == 2
        assert err.value.phase == "slackgen"

    def test_retry_exhausted_keeps_every_attempt(self):
        # K_6 x K_6 leaves sparse nodes without slack on both attempts
        with pytest.raises(RetryExhausted) as err:
            run_pipeline(rook_graph(6), PipelineConfig(max_retries=2))
        assert str(err.value) == (
            "no attempt passed within 2 retries; last: slack gate: sparse node 0 has slack 0 < 1"
        )
        assert err.value.attempts == 2 and len(err.value.records) == 2
        for attempt in err.value.records:
            assert attempt.violations and attempt.deg_plus_one is None
            for v in attempt.violations:
                assert (v.kind, v.value) == ("sparse", 0)
                assert str(v) == f"sparse node {v.id} has slack 0 < 1"

    def test_attempts_end_with_the_passing_one(self):
        for seed in range(30):
            _, result = run_family("matched_cliques", 16, seed=seed)
            if result.retries > 0:
                break
        assert len(result.attempts) == result.retries + 1
        last = result.attempts[-1]
        assert last.violations == () and last.deg_plus_one is None
        assert last.metrics is result.metrics
        assert all(a.violations or a.deg_plus_one for a in result.attempts[:-1])

    def test_determinism(self):
        _, a = run_family("mixed", 16, seed=7)
        _, b = run_family("mixed", 16, seed=7)
        assert a.coloring.as_list() == b.coloring.as_list()
        assert a.ledger.records == b.ledger.records
        assert a.retries == b.retries

    def test_strict_congest_within_budget(self):
        inst, result = run_family("mixed", 16, seed=0, strict_congest=True, congest_c=4)
        budget = 4 * max(1, (inst.graph.n - 1).bit_length())
        assert result.metrics.max_message_bits <= budget

    def test_pair_records_tagged_centralized(self):
        _, result = run_family("guarded_pair", 16, seed=0)
        assert record(result, "guarded_pairs").tag == "centralized"
        assert record(result, "nice_c_pairs").tag == "centralized"
        assert record(result, "sparse").tag == "distributed"

    def test_final_colors_within_delta(self):
        inst, result = run_family("mixed", 27, seed=3)
        assert all(0 <= c < 27 for c in result.coloring.as_list())

    def test_congest_budget_at_n600(self):
        from brooks_sim.sim_engine import congest_budget

        inst, result = run_family("mixed", 64, seed=0)
        assert inst.graph.n >= 600
        assert result.metrics.max_message_bits <= congest_budget(inst.graph.n, 4)

    def test_adjacent_protectors_get_distinct_colors(self, monkeypatch):
        # two guarded components whose protectors are joined by an edge: the
        # pair units become adjacent in the joint instance
        left = generate_instance("guarded_pair", 16, seed=0)
        off = left.graph.n
        right = generate_instance("guarded_pair", 16, seed=1)
        edges = list(left.graph.edges())
        edges += [(off + u, off + v) for u, v in right.graph.edges()]
        edges.append((0, off))  # protector ids are 0 in both components
        g = Graph(off + right.graph.n, edges)
        assert g.delta == 16

        import brooks_sim.phases as phases
        from brooks_sim.listcolor import solve_distributed as real_solve

        captured = {}

        def wrapped(instance, seed, **kw):
            if instance.name == "guarded_pairs":
                captured["instance"] = instance
            return real_solve(instance, seed, **kw)

        monkeypatch.setattr(phases, "solve_distributed", wrapped)
        result = run_pipeline(g, PipelineConfig(epsilon=left.epsilon, seed=0))
        colors = result.coloring.as_list()
        assert validate_coloring(g, colors, 16)
        inst = captured["instance"]
        assert len(inst.units) == 2
        assert inst.adj == ((1,), (0,))
        assert colors[0] != colors[off]

    def test_every_pipeline_instance_passes_oracle_and_validator(self, monkeypatch):
        import brooks_sim.phases as phases
        from brooks_sim.listcolor import build_instance as real_build
        from brooks_sim.listcolor import solve_distributed as real_solve

        built = []
        seen = []

        def wrapped_build(g, coloring, units, **kw):
            instance = real_build(g, coloring, units, **kw)
            # adjacency and palettes recounted from G and the colour list
            adj, palettes = recount_instance(g, coloring.color, coloring.delta, instance.units)
            assert (instance.adj, instance.palettes) == (adj, tuple(map(mask_of, palettes)))
            assert sorted(instance.units) == sorted(tuple(sorted(u)) for u in units)
            built.append(instance.name)
            return instance

        def wrapped(instance, seed, **kw):
            assignment, metrics = real_solve(instance, seed, **kw)
            assert validate_assignment(instance, assignment)
            oracle = solve_greedy_oracle(instance)
            assert validate_assignment(instance, oracle)
            seen.append(instance.name)
            return assignment, metrics

        monkeypatch.setattr(phases, "build_instance", wrapped_build)
        monkeypatch.setattr(phases, "solve_distributed", wrapped)
        # guarded_pair has a pair unit whose palette is narrower than its
        # first member's, which no pair of mixed seed 2 has
        for family, seed in (("mixed", 2), ("guarded_pair", 0)):
            inst = generate_instance(family, 16, seed=seed)
            result = run_pipeline(inst.graph, PipelineConfig(epsilon=inst.epsilon, seed=seed))
            assert validate_coloring(inst.graph, result.coloring.as_list(), 16)
        assert "guarded_pairs" in seen and "sparse" in seen
        assert built == seen
