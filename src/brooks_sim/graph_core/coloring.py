"""Partial colorings over [delta]: colours and used-colour masks."""

from __future__ import annotations

from typing import Iterable

from ..errors import ImproperColoringError
from .graph import Graph, mask_of


class PartialColoring:
    """Proper partial coloring; colors are ints in [0, delta).

    A set of colours is a delta-bit mask. Beside the colour list `color`,
    `used[v]` holds the colours of v's neighbours: `assign` ORs the new bit
    into each neighbour's mask as it walks N(v), so its properness check is
    one bit test, and `palette_mask` and `slack_in` read masks, not N(v).
    `is_total` scans the colour list, once per pipeline run. Where the
    graph keeps its n-bit masks (`Graph.small_masks`), a mask of the
    uncolored nodes gives `slack_in` an uncolored degree as one AND and a
    popcount; its upkeep would cost O(n) per `assign` elsewhere, so there
    `slack_in` counts uncolored neighbours in the colour list and tests
    them against the left-out set, and the graph's masks are never built.
    The tests recount palettes and slacks from scratch.
    """

    __slots__ = ("graph", "delta", "color", "used", "_uncolored", "_left_out_masks")

    def __init__(self, graph: Graph):
        self.graph = graph
        self.delta = graph.delta
        self.color: list[int | None] = [None] * graph.n
        self.used = [0] * graph.n
        self._uncolored: int | None = (1 << graph.n) - 1 if graph.small_masks else None
        self._left_out_masks: dict[frozenset[int], int] = {}  # each set seen, its mask

    def is_colored(self, v: int) -> bool:
        return self.color[v] is not None

    def assign(self, v: int, c: int) -> None:
        if self.color[v] is not None:
            raise ImproperColoringError(f"node {v} already colored")
        if not 0 <= c < self.delta:
            raise ImproperColoringError(f"color {c} outside [0,{self.delta})")
        nbrs = self.graph.adj[v]
        if self.used[v] >> c & 1:
            u = next(u for u in nbrs if self.color[u] == c)
            raise ImproperColoringError(f"edge ({u},{v}) would be monochromatic in {c}")
        self.color[v] = c
        used, bit = self.used, 1 << c
        for u in nbrs:
            used[u] |= bit
        if self._uncolored is not None:
            self._uncolored ^= 1 << v  # v was uncolored, so its bit is set

    def palette_mask(self, *nodes: int) -> int:
        """The colours of [delta] held by no neighbour of any given node,
        as a mask; for a pair, the intersection of the two palettes."""
        held = 0
        for v in nodes:
            held |= self.used[v]
        return ((1 << self.delta) - 1) & ~held

    def slack_in(self, v: int, left_out: frozenset[int] = frozenset()) -> int:
        """Slack of v in the subgraph induced by V minus the `left_out`
        nodes: palette size minus uncolored degree within the subgraph; v
        must be uncolored for the value to mean anything, callers enforce
        that. With masks, each distinct `left_out` set's mask is built once.
        """
        graph = self.graph
        if graph.small_masks:
            left_mask = self._left_out_masks.get(left_out)
            if left_mask is None:
                left_mask = self._left_out_masks[left_out] = mask_of(left_out)
            uncolored = (graph.masks[v] & ~left_mask & self._uncolored).bit_count()
        else:
            color, nbrs = self.color, graph.adj[v]
            uncolored = list(map(color.__getitem__, nbrs)).count(None)
            if left_out:
                uncolored -= sum(1 for u in nbrs if color[u] is None and u in left_out)
        return self.delta - self.used[v].bit_count() - uncolored

    def uncolored_in(self, nodes: Iterable[int]) -> list[int]:
        return sorted(v for v in nodes if self.color[v] is None)

    def is_total(self) -> bool:
        return None not in self.color

    def as_list(self) -> list[int | None]:
        return list(self.color)
