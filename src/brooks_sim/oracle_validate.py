"""Ground truth for a finished run: proper-coloring validation.

The CLI (`color`, `experiment` and `validate`) and the benchmark check every
coloring with `validate_coloring`. The exact k-colorability oracle that cross-checks
Brooks' condition on small graphs is reference code of the test suite
(`tests/oracles.py`).
"""

from __future__ import annotations

from typing import Sequence

from .graph_core import Graph


def validate_coloring(g: Graph, colors: Sequence[int | None], k: int) -> bool:
    """True iff the coloring is total, proper, and uses int colors in [0, k).

    Anything but a plain int (None, a float, a bool) is rejected."""
    if len(colors) != g.n:
        return False
    for c in colors:
        if type(c) is not int or not 0 <= c < k:
            return False
    for u in range(g.n):
        cu = colors[u]
        for v in g.adj[u]:
            if v > u and colors[v] == cu:
                return False
    return True

