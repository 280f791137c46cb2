"""Pipeline: ACD -> classification -> slack generation -> ordered list
coloring instances.

The instance order is fixed (sparse; ordinary gray/white; runaway gray/white;
nice sub-phases a, b, c; guarded pairs/gray/white; escapes) and every run
records all 16 kinds in the ledger, executed or empty, so the reduction's
instance count is structurally constant.

Slack generation is retryable: if the measured slack report violates a
property a later phase needs, or an instance build hits a deg+1 violation,
the run re-seeds slack generation, up to max_retries.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .acd import AlmostCliqueDecomposition, compute_acd
from .classify import (
    ACClassification,
    FinePartition,
    GUARDED,
    NICE,
    ORDINARY,
    RUNAWAY,
    classify_acs,
    fine_partition,
    has_non_edge,
)
from .errors import (
    BrooksSimError,
    DegPlusOneViolation,
    DeltaPlusOneCliquePresent,
    PartitionViolationError,
    RetryExhausted,
)
from .graph_core import Graph, PartialColoring, contains_delta_plus_one_clique, mask_of
from .listcolor import (
    CENTRALIZED,
    DISTRIBUTED,
    InstanceLedger,
    InstanceRecord,
    ListInstance,
    Unit,
    build_instance,
    make_unit,
    solve_distributed,
)
from .sim_engine import RoundMetrics, congest_budget
from .slackgen import (
    SlackReport,
    check_lemma33,
    check_p_g,
    participant_set,
    run_slack_generation_with_metrics,
)
from .thresholds import Thresholds


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
    epsilon: Fraction = Fraction(1, 172)
    p_g: float = 0.5
    max_retries: int = 16
    delta_min: int = 8
    seed: int = 0
    strict_congest: bool = False
    congest_c: int = 4

    def __post_init__(self):
        check_p_g(self.p_g)
        if self.max_retries < 1:
            raise BrooksSimError(
                f"max_retries must be >= 1, got {self.max_retries}", phase="config"
            )

    def bit_budget(self, n: int) -> int | None:
        """The enforced per-message budget on an n-node graph; None if not strict."""
        return congest_budget(n, self.congest_c) if self.strict_congest else None


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


@dataclass(frozen=True)
class WhiteGraySplit:
    """Uncolored target set split into whites (unit slack or a stalled
    later-colored neighbor) and grays (>= 1 uncolored white neighbor)."""

    white: tuple[int, ...]
    gray: tuple[int, ...]
    stall_mask: int  # uncolored nodes colored in a strictly later step
    slack_mask: int  # subgraph in which white unit-slack is measured

    def validate(self, g: Graph, coloring: PartialColoring) -> None:
        white_mask = mask_of(self.white)
        for v in self.white:
            if coloring.is_colored(v):
                raise PartitionViolationError(f"white node {v} already colored", node=v)
            if coloring.slack_in(v, self.slack_mask) >= 1:
                continue
            stalled = g.masks[v] & self.stall_mask & coloring.uncolored_mask
            if stalled == 0:
                raise PartitionViolationError(
                    f"white node {v} has neither unit slack nor a stalled neighbor", node=v
                )
        for v in self.gray:
            if coloring.is_colored(v):
                raise PartitionViolationError(f"gray node {v} already colored", node=v)
            if g.masks[v] & white_mask & coloring.uncolored_mask == 0:
                raise PartitionViolationError(f"gray node {v} has no white neighbor", node=v)


def _mix(*parts: int) -> int:
    raw = hashlib.blake2b(struct.pack(f"<{len(parts)}q", *parts), digest_size=8).digest()
    return int.from_bytes(raw, "little") >> 2


class _InstanceRunner:
    """Builds, solves, applies, and records list instances over one coloring."""

    def __init__(
        self,
        g: Graph,
        config: PipelineConfig,
        coloring: PartialColoring,
        metrics: RoundMetrics,
        attempt_seed: int,
    ):
        self.g = g
        self.config = config
        self.coloring = coloring
        self.metrics = metrics
        self.attempt_seed = attempt_seed
        self.ledger = InstanceLedger()
        self.full_mask = (1 << g.n) - 1
        self.bit_budget = config.bit_budget(g.n)

    def record_empty(self, kind: str) -> None:
        spec = PIPELINE_PLAN[_PLAN_INDEX[kind]]
        self.ledger.append(
            InstanceRecord(kind, 0, None, None, 0, spec.tag, spec.declared_min)
        )

    def solve_units(self, kind: str, units: Iterable[Unit]) -> ListInstance | None:
        """Build, solve, apply, and record one instance kind."""
        units = tuple(units)
        if not units:
            self.record_empty(kind)
            return None
        spec = PIPELINE_PLAN[_PLAN_INDEX[kind]]
        instance = build_instance(self.g, self.coloring, units, name=kind)
        assignment, metrics = solve_distributed(
            instance,
            _mix(self.attempt_seed, _PLAN_INDEX[kind]),
            strict_bit_budget=self.bit_budget if spec.tag == DISTRIBUTED else None,
        )
        for unit in instance.units:
            for v in unit:
                self.coloring.assign(v, assignment[unit])
        self.metrics.merge(metrics)
        self.ledger.append(
            InstanceRecord(
                kind,
                len(instance.units),
                instance.min_palette,
                instance.max_degree,
                metrics.rounds_elapsed,
                spec.tag,
                spec.declared_min,
            )
        )
        return instance

    def gray_then_white(self, split: WhiteGraySplit, gray_kind: str, white_kind: str) -> None:
        split.validate(self.g, self.coloring)
        self.solve_units(gray_kind, (make_unit(v) for v in split.gray))
        self.solve_units(white_kind, (make_unit(v) for v in split.white))

    def uncolored(self, nodes: Iterable[int]) -> list[int]:
        return self.coloring.uncolored_in(nodes)


class PipelineSteps(_InstanceRunner):
    """Steps 4-9 over one slack-generation attempt's coloring state."""

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
        super().__init__(g, config, coloring, metrics, attempt_seed)
        self.acd = acd
        self.cls = cls
        self.part = part
        self.vo_mask = part.mask("Vstar", "O")

    def cliques_with_label(self, label: str) -> list[int]:
        return [i for i, lab in enumerate(self.cls.labels) if lab == label]

    # -- steps 4..9 -----------------------------------------------------------

    def step4_sparse(self) -> None:
        # all white: the slack gate already enforced unit slack for these
        units = [make_unit(v) for v in self.uncolored(self.part.Vstar)]
        self.solve_units("sparse", units)

    def step5_ordinary(self) -> None:
        white: list[int] = []
        gray: list[int] = []
        for idx in self.cliques_with_label(ORDINARY):
            for v in self.uncolored(self.acd.cliques[idx]):
                if self.coloring.slack_in(v, self.vo_mask) >= 1:
                    white.append(v)
                else:
                    gray.append(v)
        split = WhiteGraySplit(tuple(white), tuple(gray), stall_mask=0, slack_mask=self.vo_mask)
        self.gray_then_white(split, "ordinary_gray", "ordinary_white")

    def step6_runaway(self) -> None:
        white: list[int] = []
        gray: list[int] = []
        stall = 0
        for idx in self.cliques_with_label(RUNAWAY):
            escape = self.cls.picked_special(idx)
            if self.coloring.is_colored(escape):
                raise PartitionViolationError(f"escape {escape} colored before step 6")
            stall |= 1 << escape
            cmask = self.acd.clique_masks[idx]
            ncs = self.g.masks[escape] & cmask
            for v in self.uncolored(self.acd.cliques[idx]):
                if (ncs >> v) & 1:
                    white.append(v)
                else:
                    gray.append(v)
        split = WhiteGraySplit(
            tuple(white), tuple(gray), stall_mask=stall, slack_mask=self.full_mask & ~stall
        )
        self.gray_then_white(split, "runaway_gray", "runaway_white")

    def step7_nice(self) -> None:
        pe = self.part.P | self.part.E
        pe_mask = mask_of(pe)
        sub_a: list[int] = []
        sub_b: list[int] = []
        sub_c: list[int] = []
        for idx in self.cliques_with_label(NICE):
            clique = self.acd.cliques[idx]
            if clique & pe:
                sub_a.append(idx)
            elif has_non_edge(self.g, clique, self.acd.clique_masks[idx]):
                sub_c.append(idx)
            else:
                sub_b.append(idx)

        # a) ACs containing an escape or protector: its in-AC neighbors are
        # white (the anchor is stalled), the rest gray.
        white: list[int] = []
        gray: list[int] = []
        stall = 0
        for idx in sub_a:
            clique = self.acd.cliques[idx]
            anchors = clique & pe
            stall |= mask_of(anchors)
            anchor_mask = self.g.masks[min(anchors)]
            for v in self.uncolored(clique - pe):
                (white if (anchor_mask >> v) & 1 else gray).append(v)
        split = WhiteGraySplit(
            tuple(white), tuple(gray), stall_mask=stall, slack_mask=self.full_mask & ~stall
        )
        self.gray_then_white(split, "nice_a_gray", "nice_a_white")

        # b) no non-edge, no P/E member: defer a zero-outside-degree simplicial
        # node, color the rest as gray, then the deferred nodes.
        deferred: list[int] = []
        gray_b: list[int] = []
        for idx in sub_b:
            clique = self.acd.cliques[idx]
            cmask = self.acd.clique_masks[idx]
            isolated = [v for v in sorted(clique) if self.g.masks[v] & ~cmask == 0]
            if not isolated:
                raise PartitionViolationError(
                    f"nice AC {idx} has no non-edge but no zero-outside-degree node"
                )
            u = isolated[0]
            deferred.append(u)
            gray_b.extend(v for v in self.uncolored(clique) if v != u)
        split_b = WhiteGraySplit(
            tuple(deferred),
            tuple(gray_b),
            stall_mask=mask_of(deferred),
            slack_mask=self.full_mask & ~mask_of(deferred),
        )
        split_b.validate(self.g, self.coloring)
        self.solve_units("nice_b_gray", (make_unit(v) for v in gray_b))
        self.solve_units("nice_b_deferred", (make_unit(v) for v in deferred))

        # c) non-edge toeholds: same-color the pair, then its common neighbors
        # are white with permanent slack.
        pairs: list[Unit] = []
        pair_of: dict[int, Unit] = {}
        for idx in sub_c:
            pair = _smallest_non_edge(self.g, self.acd.cliques[idx], self.acd.clique_masks[idx])
            pairs.append(pair)
            pair_of[idx] = pair
        self.solve_units("nice_c_pairs", pairs)
        white_c: list[int] = []
        gray_c: list[int] = []
        for idx in sub_c:
            u, w = pair_of[idx]
            common = self.g.masks[u] & self.g.masks[w]
            for v in self.uncolored(self.acd.cliques[idx]):
                (white_c if (common >> v) & 1 else gray_c).append(v)
        split_c = WhiteGraySplit(
            tuple(white_c), tuple(gray_c), stall_mask=0, slack_mask=self.full_mask
        )
        self.gray_then_white(split_c, "nice_c_gray", "nice_c_white")

    def step8_guarded(self) -> None:
        pairs: list[Unit] = []
        info: list[tuple[int, int, Unit]] = []
        for idx in self.cliques_with_label(GUARDED):
            protector = self.cls.picked_special(idx)
            if self.coloring.is_colored(protector):
                raise PartitionViolationError(f"protector {protector} colored before step 8")
            pmask = self.g.masks[protector]
            non_nbrs = self.uncolored(v for v in self.acd.cliques[idx] if not (pmask >> v) & 1)
            if not non_nbrs:
                raise PartitionViolationError(
                    f"guarded AC {idx}: protector {protector} has no uncolored non-neighbor"
                )
            toehold = non_nbrs[0]
            pair = make_unit(toehold, protector)
            pairs.append(pair)
            info.append((idx, protector, pair))
        self.solve_units("guarded_pairs", pairs)
        white: list[int] = []
        gray: list[int] = []
        for idx, protector, pair in info:
            pmask = self.g.masks[protector]
            for v in self.uncolored(self.acd.cliques[idx]):
                (white if (pmask >> v) & 1 else gray).append(v)
        split = WhiteGraySplit(tuple(white), tuple(gray), stall_mask=0, slack_mask=self.full_mask)
        self.gray_then_white(split, "guarded_gray", "guarded_white")
        for v in self.part.P:
            if not self.coloring.is_colored(v):
                raise PartitionViolationError(f"protector {v} left uncolored after step 8")

    def step9_escape(self) -> None:
        uncolored_non_escape = [
            v
            for v in range(self.g.n)
            if not self.coloring.is_colored(v) and v not in self.part.E
        ]
        if uncolored_non_escape:
            raise PartitionViolationError(
                f"step 9 reached with non-escape nodes uncolored: {uncolored_non_escape[:4]}"
            )
        self.solve_units("escape", [make_unit(v) for v in sorted(self.part.E)])

    def execute(self) -> None:
        self.step4_sparse()
        self.step5_ordinary()
        self.step6_runaway()
        self.step7_nice()
        self.step8_guarded()
        self.step9_escape()
        if not self.coloring.is_total():
            raise PartitionViolationError("pipeline finished with uncolored nodes")


def _smallest_non_edge(g: Graph, clique: frozenset[int], cmask: int) -> Unit:
    for u in sorted(clique):
        missing = cmask & ~(g.masks[u] | (1 << u))
        if missing:
            return make_unit(u, (missing & -missing).bit_length() - 1)
    raise PartitionViolationError("no non-edge in supposedly non-complete clique")


def color_gray_then_white(
    g: Graph,
    coloring: PartialColoring,
    split: WhiteGraySplit,
    *,
    config: PipelineConfig | None = None,
    gray_kind: str = "ordinary_gray",
    white_kind: str = "ordinary_white",
    seed: int = 0,
) -> tuple[PartialColoring, InstanceLedger]:
    """Standalone two-instance coloring of a white/gray split: one (deg+1)
    instance for the gray nodes, then one for the white nodes."""
    runner = _InstanceRunner(g, config or PipelineConfig(), coloring, RoundMetrics(), seed)
    runner.gray_then_white(split, gray_kind, white_kind)
    return runner.coloring, runner.ledger


def run_pipeline(g: Graph, config: PipelineConfig) -> PipelineResult:
    if g.delta < config.delta_min:
        raise BrooksSimError(
            f"delta {g.delta} below configured minimum {config.delta_min}", phase="precondition"
        )
    if contains_delta_plus_one_clique(g):
        raise DeltaPlusOneCliquePresent(
            f"graph contains a K_{g.delta + 1}", phase="precondition"
        )
    acd = compute_acd(g, config.epsilon)
    thresholds = Thresholds(g.delta)
    cls = classify_acs(g, acd, thresholds)
    part = fine_partition(g, acd, cls)
    participants = sorted(participant_set(part))

    last_failure = ""
    for attempt in range(config.max_retries):
        attempt_seed = _mix(config.seed, attempt)
        coloring, metrics = run_slack_generation_with_metrics(
            g,
            participants,
            config.p_g,
            attempt_seed,
            strict_bit_budget=config.bit_budget(g.n),
        )
        report = check_lemma33(g, acd, cls, part, coloring)
        if not report.gate_ok:
            last_failure = f"slack gate: {report.violations[0]}"
            continue
        run = PipelineSteps(g, config, acd, cls, part, coloring, metrics, attempt_seed)
        try:
            run.execute()
        except DegPlusOneViolation as exc:
            last_failure = f"deg+1 violation: {exc}"
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
        )
    raise RetryExhausted(
        f"no attempt passed within {config.max_retries} retries; last: {last_failure}",
        config.max_retries,
        phase="slackgen",
    )
