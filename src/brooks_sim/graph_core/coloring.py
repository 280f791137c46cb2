"""Partial colorings over [delta]: a colour list plus an uncolored count."""

from __future__ import annotations

from typing import Iterable

from ..errors import ImproperColoringError
from .graph import Graph


class PartialColoring:
    """Proper partial coloring; colors are ints in [0, delta).

    The colour list `color` is the only record of who has which colour:
    `palette(*nodes)` and `slack_in(v, left_out)` read the colours of the
    neighbours from it on every call, in O(deg) per node. Beside it sits a
    count of the uncolored nodes, which `is_total` reads. Where the graph
    keeps its n-bit masks (`Graph.small_masks`), a private mask with one bit
    per uncolored node sits there too, and `slack_in` reads an uncolored
    degree inside a subgraph as one AND and a popcount. Elsewhere there is
    no such mask, whose upkeep costs O(n) per `assign`: `slack_in` counts
    the uncolored neighbours in the colour list and takes off those the
    subgraph leaves out, so a sparse graph's masks are never built. The
    tests cross-check palettes and slacks against a from-scratch recount.
    """

    __slots__ = ("graph", "delta", "color", "_uncolored_count", "_uncolored")

    def __init__(self, graph: Graph):
        self.graph = graph
        self.delta = graph.delta
        self.color: list[int | None] = [None] * graph.n
        self._uncolored_count = graph.n
        self._uncolored: int | None = (1 << graph.n) - 1 if graph.small_masks else None

    def is_colored(self, v: int) -> bool:
        return self.color[v] is not None

    def assign(self, v: int, c: int) -> None:
        if self.color[v] is not None:
            raise ImproperColoringError(f"node {v} already colored")
        if not 0 <= c < self.delta:
            raise ImproperColoringError(f"color {c} outside [0,{self.delta})")
        for u in self.graph.adj[v]:
            if self.color[u] == c:
                raise ImproperColoringError(f"edge ({u},{v}) would be monochromatic in {c}")
        self.color[v] = c
        self._uncolored_count -= 1
        if self._uncolored is not None:
            self._uncolored ^= 1 << v  # v was uncolored, so its bit is set

    def palette(self, *nodes: int) -> tuple[int, ...]:
        """Ascending colours of [delta] held by no neighbour of any given
        node; for a pair, the intersection of the two palettes."""
        color, adj = self.color, self.graph.adj
        used = {color[u] for v in nodes for u in adj[v]}
        return tuple([c for c in range(self.delta) if c not in used])

    def slack_in(self, v: int, left_out: int = 0) -> int:
        """Slack of v in the subgraph induced by V minus the nodes of the
        `left_out` mask: palette size minus uncolored degree within the
        subgraph; v must be uncolored for the value to mean anything,
        callers enforce that.
        """
        color, graph = self.color, self.graph
        nbrs = graph.adj[v]
        if graph.small_masks:
            used = {color[u] for u in nbrs}
            used.discard(None)
            uncolored = (graph.masks[v] & ~left_out & self._uncolored).bit_count()
            return self.delta - len(used) - uncolored
        cols = list(map(color.__getitem__, nbrs))
        uncolored = cols.count(None)
        used = len(set(cols)) - (uncolored > 0)
        if left_out:
            uncolored -= sum(1 for u in nbrs if color[u] is None and left_out >> u & 1)
        return self.delta - used - uncolored

    def uncolored_in(self, nodes: Iterable[int]) -> list[int]:
        return sorted(v for v in nodes if self.color[v] is None)

    def is_total(self) -> bool:
        return self._uncolored_count == 0

    def as_list(self) -> list[int | None]:
        return list(self.color)
