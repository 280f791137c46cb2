"""One-round random color trial (slack generation) and its property checks.

Participants activate independently with probability p_g, activated nodes try
a uniform color from [delta] and keep it exactly when no neighbor tried the
same color. This is `sim_engine.run_protocol` capped at one trial, with the
palette mask of all of [delta] for every node and activation 0 for
non-participants (they draw nothing). It takes a try round, a resolve round
(keep/discard + keep announcements), and a final round in which the nodes
that kept nothing halt. The resolve round compares each candidate with the neighbours' entries
of one candidate array instead of reading their TRY messages; with a single
trial no later try round reads the kept colors, so they block nothing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from numbers import Real
from typing import Iterable

from .acd import AlmostCliqueDecomposition
from .classify import ACClassification, FinePartition, ORDINARY
from .errors import BrooksSimError, ProtocolOutputError
from .graph_core import Graph, PartialColoring
from .sim_engine import RoundMetrics, color_value_bits, run_protocol


def check_p_g(p_g: float) -> None:
    """Reject an activation probability that is not a real in [0, 1]."""
    if isinstance(p_g, bool) or not isinstance(p_g, Real) or not 0 <= p_g <= 1:
        raise BrooksSimError(f"p_g must lie in [0, 1], got {p_g!r}", phase="config")


def run_slack_generation_with_metrics(
    g: Graph,
    participants: Iterable[int],
    p_g: float,
    seed: int,
    *,
    strict_bit_budget: int | None = None,
) -> tuple[PartialColoring, RoundMetrics]:
    check_p_g(p_g)
    pset = set(participants)
    colors, metrics = run_protocol(
        g.adj,
        [(1 << g.delta) - 1] * g.n,
        [p_g if v in pset else 0.0 for v in range(g.n)],
        seed,
        max_rounds=4,
        trials=1,
        value_bits=color_value_bits(g.delta),
        strict_bit_budget=strict_bit_budget,
        phase="slackgen",
    )
    coloring = PartialColoring(g)
    for v, c in enumerate(colors):
        if c is not None:
            if v not in pset:
                raise ProtocolOutputError("non-participant kept a color", v, phase="slackgen")
            coloring.assign(v, c)
    return coloring, metrics


@dataclass(frozen=True)
class Violation:
    """A failed gate condition; value is the slack, unit-slack count or (colored, total)."""

    kind: str  # sparse, escape, ordinary_ac or difficult_ac
    id: int
    value: int | tuple[int, int]

    def __str__(self) -> str:  # the gate's message
        return {
            "sparse": "sparse node {0.id} has slack {0.value} < 1",
            "escape": "escape {0.id} has slack {0.value} < 1 in G[V]",
            "ordinary_ac": "ordinary AC {0.id}: no uncolored unit-slack node",
            "difficult_ac": "difficult AC {0.id}: {0.value[0]}/{0.value[1]}"
            " of N_C(special) colored",
        }[self.kind].format(self)


@dataclass
class SlackReport:
    """Measured slack-property quantities plus the retry-gate verdict.

    The asymptotic guarantees hide their constants; the gate applies the weakest
    sufficient conditions (>=1 slack, >=1 unit-slack node, <=1/2 colored) and
    raw values are kept for analysis.
    """

    sparse_slack: dict[int, int] = field(default_factory=dict)
    escape_slack: dict[int, int] = field(default_factory=dict)
    ordinary_unit_slack: dict[int, int] = field(default_factory=dict)
    difficult_colored_fraction: dict[int, Fraction] = field(default_factory=dict)
    violations: list[Violation] = field(default_factory=list)

    @property
    def gate_ok(self) -> bool:
        return not self.violations


def check_lemma33(
    g: Graph,
    acd: AlmostCliqueDecomposition,
    cls: ACClassification,
    part: FinePartition,
    coloring: PartialColoring,
) -> SlackReport:
    report = SlackReport()

    # (i) sparse nodes in G[V* u O]; escapes in G[V]
    for v in sorted(part.Vstar):
        if coloring.is_colored(v):
            continue
        slack = coloring.slack_in(v, part.outside_vo)
        report.sparse_slack[v] = slack
        if slack < 1:
            report.violations.append(Violation("sparse", v, slack))
    for v in sorted(part.E):
        slack = coloring.slack_in(v)
        report.escape_slack[v] = slack
        if slack < 1:
            report.violations.append(Violation("escape", v, slack))

    # (ii) uncolored unit-slack nodes per ordinary AC
    for idx, clique in enumerate(acd.cliques):
        if cls.labels[idx] != ORDINARY:
            continue
        uncolored = [v for v in clique if not coloring.is_colored(v)]
        count = sum(1 for v in uncolored if coloring.slack_in(v, part.outside_vo) >= 1)
        report.ordinary_unit_slack[idx] = count
        if uncolored and count == 0:
            report.violations.append(Violation("ordinary_ac", idx, count))

    # (iii) colored fraction of N_C(picked special) per difficult AC
    for idx in range(len(acd.cliques)):
        if not cls.is_difficult(idx):
            continue
        inside = acd.cliques[idx].intersection(g.adj[cls.picked_special(idx)])
        total = len(inside)
        colored = total - [coloring.color[v] for v in inside].count(None)
        frac = Fraction(colored, total) if total else Fraction(0)
        report.difficult_colored_fraction[idx] = frac
        if 2 * colored > total:
            report.violations.append(Violation("difficult_ac", idx, (colored, total)))
    return report


def participant_set(part: FinePartition) -> frozenset[int]:
    """Slack-generation participants: V* u O u R."""
    return part.Vstar | part.O | part.R
