"""Pipeline: ACD -> classification -> slack generation -> ordered list
coloring instances.

The instance order is fixed (sparse; ordinary gray/white; runaway gray/white;
nice sub-phases a, b, c; guarded pairs/gray/white; escapes) and every run
records all 16 kinds in the ledger, executed or empty, so the reduction's
instance count is structurally constant.

Steps 5-8 share one white/gray split (`PipelineSteps.gray_then_white`): each
step names groups of nodes and, per group, the set of nodes that are white
(unit slack in G[V* u O]; N(escape); N(min anchor); the deferred node;
N(u) & N(w); N(protector)). The uncolored rest is gray and is colored first:
each gray has an uncolored white neighbor, each white has unit slack in V
minus a frozenset of stalled nodes, colored in a later step. A split that
breaks this raises PartitionViolationError with the gray kind as its phase.
The steps build their sets from `Graph.adj`, the almost-cliques and the
colour list, so they read no n-bit masks.

Slack generation is retryable: if the measured slack report violates a
property a later phase needs, or an instance build hits a deg+1 violation,
the run re-seeds slack generation, up to max_retries.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Container, Iterable

from .acd import AlmostCliqueDecomposition, check_epsilon, compute_acd
from .classify import (
    ACClassification,
    FinePartition,
    GUARDED,
    NICE,
    ORDINARY,
    RUNAWAY,
    classify_acs,
    fine_partition,
    non_edges,
)
from .errors import (
    BrooksSimError,
    DegPlusOneViolation,
    DeltaPlusOneCliquePresent,
    PartitionViolationError,
    RetryExhausted,
    check_int,
)
from .graph_core import (
    Graph,
    PartialColoring,
    common_neighbour_pass,
    contains_delta_plus_one_clique,
)
from .listcolor import (
    CENTRALIZED,
    DISTRIBUTED,
    InstanceLedger,
    InstanceRecord,
    Unit,
    build_instance,
    solve_distributed,
)
from .sim_engine import RoundMetrics, congest_budget, keyed
from .slackgen import (
    SlackReport,
    Violation,
    check_lemma33,
    check_p_g,
    participant_set,
    run_slack_generation_with_metrics,
)
from .thresholds import DEFAULT_EPSILON, Thresholds


@dataclass(frozen=True)
class PhaseSpec:
    kind: str
    declared_min: str  # symbolic list-size bound from the accounting
    tag: str


# The fixed enumeration behind the constant-instance reduction.
PIPELINE_PLAN: tuple[PhaseSpec, ...] = (
    PhaseSpec("sparse", "Omega(Delta)", DISTRIBUTED),
    PhaseSpec("ordinary_gray", "Omega(psi)", DISTRIBUTED),
    PhaseSpec("ordinary_white", "Omega(psi)", DISTRIBUTED),
    PhaseSpec("runaway_gray", "phi/2", DISTRIBUTED),
    PhaseSpec("runaway_white", "phi/2", DISTRIBUTED),
    PhaseSpec("nice_a_gray", "Delta/2", DISTRIBUTED),
    PhaseSpec("nice_a_white", "Delta/2", DISTRIBUTED),
    PhaseSpec("nice_b_gray", "Delta/2", DISTRIBUTED),
    PhaseSpec("nice_b_deferred", "1", DISTRIBUTED),
    PhaseSpec("nice_c_pairs", "Delta/2", CENTRALIZED),
    PhaseSpec("nice_c_gray", "Delta/3", DISTRIBUTED),
    PhaseSpec("nice_c_white", "Delta/3", DISTRIBUTED),
    PhaseSpec("guarded_pairs", "phi/2", CENTRALIZED),
    PhaseSpec("guarded_gray", "Delta/2", DISTRIBUTED),
    PhaseSpec("guarded_white", "phi", DISTRIBUTED),
    PhaseSpec("escape", "Omega(Delta)", DISTRIBUTED),
)

_PLAN_INDEX = {spec.kind: i for i, spec in enumerate(PIPELINE_PLAN)}


@dataclass(frozen=True)
class PipelineConfig:
    epsilon: Fraction = DEFAULT_EPSILON
    p_g: float = 0.5
    max_retries: int = 16
    seed: int = 0
    strict_congest: bool = False
    congest_c: int = 4

    def __post_init__(self):
        check_p_g(self.p_g)
        # kept as the Fraction it parses to, so equal epsilons compare equal
        object.__setattr__(self, "epsilon", check_epsilon(self.epsilon))
        check_int("seed", self.seed)
        if not -(1 << 63) <= self.seed < 1 << 63:  # seeds are hashed as signed 64-bit
            raise BrooksSimError(f"seed must fit in signed 64 bits: {self.seed}", phase="config")
        for name in ("max_retries", "congest_c"):
            value = getattr(self, name)
            check_int(name, value)
            if value < 1:
                raise BrooksSimError(f"{name} must be >= 1, got {value}", phase="config")
        if not isinstance(self.strict_congest, bool):
            raise BrooksSimError(
                f"strict_congest must be a bool, got {self.strict_congest!r}", phase="config"
            )

    def bit_budget(self, n: int) -> int | None:
        """The enforced per-message budget on an n-node graph; None if not strict."""
        return congest_budget(n, self.congest_c) if self.strict_congest else None


@dataclass
class Attempt:
    """One slack-generation attempt, the metrics of its trial and instances, and its failure."""

    seed: int
    violations: tuple[Violation, ...]
    metrics: RoundMetrics
    deg_plus_one: DegPlusOneViolation | None = None


@dataclass
class PipelineResult:
    coloring: PartialColoring
    ledger: InstanceLedger
    metrics: RoundMetrics
    slack_report: SlackReport
    retries: int
    acd: AlmostCliqueDecomposition
    classification: ACClassification
    partition: FinePartition
    attempts: tuple[Attempt, ...]  # every attempt in order; the last one passed


class PipelineSteps:
    """Steps 4-9 over one slack-generation attempt's coloring state: builds,
    solves, applies, and records the 16 instance kinds in plan order."""

    def __init__(
        self,
        g: Graph,
        config: PipelineConfig,
        acd: AlmostCliqueDecomposition,
        cls: ACClassification,
        part: FinePartition,
        coloring: PartialColoring,
        metrics: RoundMetrics,
        attempt_seed: int,
    ):
        self.g = g
        self.acd = acd
        self.cls = cls
        self.part = part
        self.coloring = coloring
        self.metrics = metrics
        self.attempt_seed = attempt_seed
        self.ledger = InstanceLedger()
        self.bit_budget = config.bit_budget(g.n)

    def solve_units(self, kind: str, units: Iterable[Unit]) -> None:
        """Build, solve, apply, and record one instance kind; with no units
        only an empty record is kept."""
        units = tuple(units)
        spec = PIPELINE_PLAN[_PLAN_INDEX[kind]]
        shape: tuple = (0, None, None, 0)  # units, min palette, max degree, rounds
        if units:
            instance = build_instance(self.g, self.coloring, units, name=kind)
            assignment, metrics = solve_distributed(
                instance,
                keyed(self.attempt_seed, _PLAN_INDEX[kind]) >> 2,
                strict_bit_budget=self.bit_budget if spec.tag == DISTRIBUTED else None,
            )
            for unit in instance.units:
                for v in unit:
                    self.coloring.assign(v, assignment[unit])
            self.metrics.merge(metrics)
            shape = (len(units), instance.min_palette, instance.max_degree, metrics.rounds_elapsed)
        self.ledger.append(InstanceRecord(kind, *shape, spec.tag, spec.declared_min))

    def gray_then_white(
        self,
        gray_kind: str,
        white_kind: str,
        groups: Iterable[tuple[Iterable[int], Container[int]]],
        stalled: frozenset[int] = frozenset(),
    ) -> None:
        """Split the uncolored nodes of each (nodes, white set) group into
        white (in the set) and gray, validate the split, then color the
        grays before the whites. Whites need unit slack in V minus the
        stalled nodes."""
        white: list[int] = []
        gray: list[int] = []
        for nodes, white_nodes in groups:
            for v in self.coloring.uncolored_in(nodes):
                (white if v in white_nodes else gray).append(v)
        # an uncolored stalled neighbour needs no clause of its own: leaving it
        # out adds 1 to slack_in(v) >= delta - deg(v) >= 0
        for v in white:
            if self.coloring.slack_in(v, stalled) < 1:
                raise PartitionViolationError(
                    f"white node {v} has neither unit slack nor a stalled neighbor",
                    node=v,
                    phase=gray_kind,
                )
        all_white = set(white)  # uncolored: nothing is colored before the grays
        for v in gray:
            if all_white.isdisjoint(self.g.adj[v]):
                raise PartitionViolationError(
                    f"gray node {v} has no white neighbor", node=v, phase=gray_kind
                )
        self.solve_units(gray_kind, ((v,) for v in gray))
        self.solve_units(white_kind, ((v,) for v in white))

    def cliques_with_label(self, label: str) -> list[int]:
        return [i for i, lab in enumerate(self.cls.labels) if lab == label]

    def toehold_pair(self, idx: int) -> Unit | None:
        """The first non-edge (u, w) of nice AC idx in id order whose common
        neighborhood dominates the AC: every other member lies in, or has a
        neighbor in, N(u) & N(w) & C. None if the AC is a clique.

        All members are uncolored when sub-phase c starts, so each gray then
        has an uncolored white neighbor."""
        adj = self.g.adj
        clique = self.acd.cliques[idx]
        tried = 0
        for u, w in non_edges(self.g, clique, self.acd.clique_masks[idx]):
            common = clique.intersection(adj[u], adj[w])
            rest = clique - common - {u, w}
            if all(not common.isdisjoint(adj[x]) for x in rest):
                return (u, w)
            tried += 1
        if tried:
            raise PartitionViolationError(
                f"nice AC {idx}: none of its {tried} non-edges (u, w) has N(u) & N(w) "
                "dominating the AC",
                phase="nice_c_pairs",
            )
        return None

    # -- steps 4..9 -----------------------------------------------------------

    def step4_sparse(self) -> None:
        # all white: the slack gate already enforced unit slack for these
        self.solve_units("sparse", ((v,) for v in self.coloring.uncolored_in(self.part.Vstar)))

    def step5_ordinary(self) -> None:
        # white: unit slack in G[V* u O]; every node outside V* u O is
        # colored in a later step, so it is stalled here
        outside_vo = self.part.outside_vo
        slack = self.coloring.slack_in
        groups = []
        for idx in self.cliques_with_label(ORDINARY):
            clique = self.acd.cliques[idx]
            groups.append((clique, {v for v in clique if slack(v, outside_vo) >= 1}))
        self.gray_then_white("ordinary_gray", "ordinary_white", groups, outside_vo)

    def step6_runaway(self) -> None:
        # white: N(escape); every escape is a runaway pick, stalled until step 9
        groups = []
        for idx in self.cliques_with_label(RUNAWAY):
            escape = self.cls.picked_special(idx)
            groups.append((self.acd.cliques[idx], frozenset(self.g.adj[escape])))
        self.gray_then_white("runaway_gray", "runaway_white", groups, self.part.E)

    def step7_nice(self) -> None:
        pe = self.part.P | self.part.E
        sub_a: list[frozenset[int]] = []
        sub_b: list[int] = []
        sub_c: list[tuple[int, Unit]] = []  # (AC, its toehold pair)
        for idx in self.cliques_with_label(NICE):
            clique = self.acd.cliques[idx]
            if clique & pe:
                sub_a.append(clique)
            elif pair := self.toehold_pair(idx):
                sub_c.append((idx, pair))
            else:
                sub_b.append(idx)

        # a) ACs containing an escape or protector: N(min anchor) is white,
        # the anchors are stalled.
        groups = [(clique - pe, frozenset(self.g.adj[min(clique & pe)])) for clique in sub_a]
        anchors = frozenset(v for clique in sub_a for v in clique & pe)
        self.gray_then_white("nice_a_gray", "nice_a_white", groups, anchors)

        # b) no non-edge, no P/E member: a zero-outside-degree simplicial node
        # is deferred (white), the rest of the AC is gray. A node is not its
        # own neighbour, so stalling it would change no slack.
        groups = []
        for idx in sub_b:
            clique = self.acd.cliques[idx]
            u = next((v for v in sorted(clique) if clique.issuperset(self.g.adj[v])), None)
            if u is None:
                raise PartitionViolationError(
                    f"nice AC {idx} has no non-edge but no zero-outside-degree node",
                    phase="nice_b_gray",
                )
            groups.append((clique, (u,)))
        self.gray_then_white("nice_b_gray", "nice_b_deferred", groups)

        # c) non-edge toeholds: same-color the pair u, w first; then
        # N(u) & N(w) is white with permanent slack.
        self.solve_units("nice_c_pairs", [pair for _, pair in sub_c])
        adj = self.g.adj
        groups = [(self.acd.cliques[i], set(adj[u]).intersection(adj[w])) for i, (u, w) in sub_c]
        self.gray_then_white("nice_c_gray", "nice_c_white", groups)

    def step8_guarded(self) -> None:
        # the protector is same-colored with its smallest uncolored non-neighbor
        # in the AC; then N(protector) is white.
        pairs: list[Unit] = []
        groups = []
        for idx in self.cliques_with_label(GUARDED):
            clique = self.acd.cliques[idx]
            protector = self.cls.picked_special(idx)
            nbrs = frozenset(self.g.adj[protector])
            non_nbrs = self.coloring.uncolored_in(clique - nbrs)
            if not non_nbrs:
                raise PartitionViolationError(
                    f"guarded AC {idx}: protector {protector} has no uncolored non-neighbor",
                    phase="guarded_pairs",
                )
            pairs.append((non_nbrs[0], protector))
            groups.append((clique, nbrs))
        self.solve_units("guarded_pairs", pairs)
        self.gray_then_white("guarded_gray", "guarded_white", groups)

    def step9_escape(self) -> None:
        self.solve_units("escape", ((v,) for v in self.part.E))

    def execute(self) -> None:
        self.step4_sparse()
        self.step5_ordinary()
        self.step6_runaway()
        self.step7_nice()
        self.step8_guarded()
        self.step9_escape()
        if not self.coloring.is_total():
            raise PartitionViolationError("pipeline finished with uncolored nodes", phase="escape")


def run_pipeline(g: Graph, config: PipelineConfig) -> PipelineResult:
    for name, value, kind in (("g", g, Graph), ("config", config, PipelineConfig)):
        if not isinstance(value, kind):
            got = type(value).__name__
            raise BrooksSimError(f"{name} must be a {kind.__name__}, got {got}", phase="config")
    # one pass serves the K_{delta+1} test, the ACD and the simplicial test
    common = common_neighbour_pass(g, Thresholds.of(config.epsilon, g.delta).similar_min)
    if contains_delta_plus_one_clique(g, common[1]):
        raise DeltaPlusOneCliquePresent(
            f"graph contains a K_{g.delta + 1}", phase="precondition"
        )
    acd = compute_acd(g, config.epsilon, common)
    cls = classify_acs(g, acd, common[1])
    del common  # the pass's lists need not outlive the slack attempts
    part = fine_partition(g, acd, cls)
    participants = sorted(participant_set(part))

    attempts: list[Attempt] = []
    for attempt in range(config.max_retries):
        attempt_seed = keyed(config.seed, attempt) >> 2
        coloring, metrics = run_slack_generation_with_metrics(
            g,
            participants,
            config.p_g,
            attempt_seed,
            strict_bit_budget=config.bit_budget(g.n),
        )
        report = check_lemma33(g, acd, cls, part, coloring)
        attempts.append(Attempt(attempt_seed, tuple(report.violations), metrics))
        if not report.gate_ok:
            continue
        run = PipelineSteps(g, config, acd, cls, part, coloring, metrics, attempt_seed)
        try:
            run.execute()
        except DegPlusOneViolation as exc:
            attempts[-1].deg_plus_one = exc
            continue
        return PipelineResult(
            coloring=run.coloring,
            ledger=run.ledger,
            metrics=run.metrics,
            slack_report=report,
            retries=attempt,
            acd=acd,
            classification=cls,
            partition=part,
            attempts=tuple(attempts),
        )
    last = attempts[-1]
    stage = "slack gate" if last.violations else "deg+1 violation"
    failure = last.violations[0] if last.violations else last.deg_plus_one
    raise RetryExhausted(
        f"no attempt passed within {config.max_retries} retries; last: {stage}: {failure}",
        tuple(attempts),
        phase="slackgen",
    )
