"""(deg+1)-list coloring: instances and the randomized trial engine.

A unit is one real node or a pair of distinct real nodes that must end up
same-colored. Units are adjacent when any two of their members are adjacent
in G; a unit's palette mask, `PartialColoring.palette_mask(*unit)`, is
[delta] minus the colors of colored G-neighbors of any member (so a pair's
palette is the intersection of its endpoints' palettes). A `ListInstance`
holds the unit adjacency and the palettes exactly as `run_protocol` takes them.

The distributed solver is the plain synchronous trial loop of
`sim_engine.run_protocol` (activate w.p. 1/2, try a uniform available color,
keep on no conflict, until every unit is colored) standing in for the cited
list-coloring algorithms; it reports rounds but makes no round-complexity
claim. Each round is resolved by color class: one array of the units'
candidates per try round, and a kept color clears its bit in each uncolored
neighbour's palette mask, as per-neighbour TRY and KEEP messages would tell
it. The same loop, limited to one trial, is the slack-generation step.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from .errors import BrooksSimError, DegPlusOneViolation, ProtocolOutputError
from .graph_core import Graph, PartialColoring
from .sim_engine import RoundMetrics, color_value_bits, run_protocol

Unit = tuple[int, ...]


@dataclass(frozen=True)
class ListInstance:
    """One (deg+1)-list instance over `units`, sorted.

    `adj[i]` is the ascending tuple of the units adjacent to unit i, so a
    unit's degree is `len(adj[i])`; `palettes[i]` is its palette as a mask
    with bit c for each color c in [delta].
    """

    name: str
    delta: int
    units: tuple[Unit, ...]
    adj: tuple[tuple[int, ...], ...]
    palettes: tuple[int, ...]

    @property
    def min_palette(self) -> int | None:
        return min((p.bit_count() for p in self.palettes), default=None)

    @property
    def max_degree(self) -> int | None:
        return max((len(a) for a in self.adj), default=None)


def make_unit(*nodes: int) -> Unit:
    return tuple(sorted(nodes))


def build_instance(
    g: Graph,
    coloring: PartialColoring,
    units: Sequence[Unit],
    *,
    name: str = "instance",
) -> ListInstance:
    """Assemble an instance over the given units; degrees count only edges
    inside the instance. Asserts the deg+1 property unit by unit."""
    units = tuple(sorted(make_unit(*u) for u in units))
    node_to_unit: dict[int, int] = {}
    for idx, unit in enumerate(units):
        if not (len(unit) == 1 or len(unit) == 2 and unit[0] < unit[1]):  # sorted
            raise BrooksSimError(f"{name}: unit {unit} is not 1 or 2 distinct nodes", phase=name)
        for v in unit:
            if coloring.is_colored(v):
                raise BrooksSimError(f"{name}: unit member {v} is already colored", phase=name)
            if v in node_to_unit:
                raise BrooksSimError(f"{name}: node {v} appears in two units", phase=name)
            node_to_unit[v] = idx

    palettes = tuple(coloring.palette_mask(*unit) for unit in units)

    # Without pairs, unit ids ascend with node ids, so a row read off the
    # sorted g.adj[v] is ascending and repeat-free as it stands. A pair can
    # sort before a singleton's smaller neighbour or reach it twice, so with
    # pairs each row is a sorted set union.
    pair_free = all(len(unit) == 1 for unit in units)
    rows = []
    for unit in units:
        if len(unit) == 2 and g.has_edge(unit[0], unit[1]):
            raise BrooksSimError(f"{name}: pair {unit} is an edge of G", phase=name)
        row = [node_to_unit[w] for v in unit for w in g.adj[v] if w in node_to_unit]
        rows.append(tuple(row) if pair_free else tuple(sorted(set(row))))
    adj = tuple(rows)

    for unit, palette, nbrs in zip(units, palettes, adj):
        if palette.bit_count() < len(nbrs) + 1:
            raise DegPlusOneViolation(name, unit, palette.bit_count(), len(nbrs))
    return ListInstance(name=name, delta=coloring.delta, units=units, adj=adj, palettes=palettes)


def trial_round_limit(unit_count: int) -> int:
    n = max(2, unit_count)
    return 64 * max(1, (n - 1).bit_length()) + 64


def solve_distributed(
    instance: ListInstance, seed: int, *, strict_bit_budget: int | None = None
) -> tuple[dict[Unit, int], RoundMetrics]:
    """Color all units by repeated synchronous trials; empty assignment for
    an empty instance."""
    k = len(instance.units)
    if k == 0:
        return {}, RoundMetrics()
    colors, metrics = run_protocol(
        instance.adj,
        instance.palettes,
        [0.5] * k,
        seed,
        max_rounds=trial_round_limit(k),
        value_bits=color_value_bits(instance.delta),
        strict_bit_budget=strict_bit_budget,
        phase=instance.name,
    )
    assignment = dict(zip(instance.units, colors))
    if None in colors:
        unit = instance.units[colors.index(None)]
        raise ProtocolOutputError("halted with an uncolored unit", unit, phase=instance.name)
    return assignment, metrics


DISTRIBUTED = "distributed"
CENTRALIZED = "centralized"


@dataclass(frozen=True)
class InstanceRecord:
    kind: str
    units: int
    min_palette: int | None
    max_degree: int | None
    rounds: int
    tag: str
    declared_min: str


@dataclass
class InstanceLedger:
    """Ordered record of every executed instance of a pipeline run."""

    records: list[InstanceRecord] = field(default_factory=list)

    def append(self, record: InstanceRecord) -> None:
        self.records.append(record)

    def kinds(self) -> tuple[str, ...]:
        return tuple(r.kind for r in self.records)

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self):
        return iter(self.records)
