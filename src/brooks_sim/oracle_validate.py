"""Ground truth: proper-coloring validation and exact k-colorability.

is_k_colorable does exhaustive backtracking (highest-degree-first order,
forward palette pruning, canonical new-color symmetry breaking) and is the
oracle used to cross-check Brooks' condition on tiny graphs.
"""

from __future__ import annotations

from typing import Sequence

from .errors import SizeLimitError
from .graph_core import Graph

ORACLE_NODE_LIMIT = 20


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


def is_k_colorable(g: Graph, k: int) -> bool:
    """Exact decision by exhaustive search; limited to n <= 20."""
    if g.n > ORACLE_NODE_LIMIT:
        raise SizeLimitError(f"is_k_colorable limited to n <= {ORACLE_NODE_LIMIT}, got {g.n}")
    if k < 0:
        raise ValueError("k must be >= 0")
    if g.n == 0:
        return True
    if k == 0:
        return False
    if g.m == 0:
        return True
    if k == 1:
        return False

    # order: highest degree first, graph-connected where possible
    order = sorted(range(g.n), key=lambda v: (-len(g.adj[v]), v))
    pos = [0] * g.n
    for i, v in enumerate(order):
        pos[v] = i
    nbr_pos = [tuple(sorted(pos[u] for u in g.adj[v])) for v in order]

    full = (1 << k) - 1
    avail = [full] * g.n  # avail[i]: colors not yet taken by earlier neighbors of order[i]
    assigned = [-1] * g.n

    def backtrack(i: int, used: int) -> bool:
        if i == g.n:
            return True
        options = avail[i]
        if options == 0:
            return False
        # canonical symmetry breaking: at most one brand-new color is tried
        cap = min(used + 1, k)
        trial_mask = options & ((1 << cap) - 1)
        while trial_mask:
            low = trial_mask & -trial_mask
            c = low.bit_length() - 1
            trial_mask ^= low
            assigned[i] = c
            touched = []
            dead = False
            for j in nbr_pos[i]:
                if j > i and (avail[j] >> c) & 1:
                    avail[j] &= ~(1 << c)
                    touched.append(j)
                    if avail[j] == 0:
                        dead = True
                        break
            if not dead and backtrack(i + 1, max(used, c + 1)):
                return True
            for j in touched:
                avail[j] |= 1 << c
            assigned[i] = -1
        return False

    return backtrack(0, 0)


def greedy_upper_bound(g: Graph) -> int:
    """Colors used by largest-first greedy; cheap certificate when <= k."""
    order = sorted(range(g.n), key=lambda v: (-len(g.adj[v]), v))
    colors = [-1] * g.n
    best = 0
    for v in order:
        taken = 0
        for u in g.adj[v]:
            if colors[u] >= 0:
                taken |= 1 << colors[u]
        c = 0
        while (taken >> c) & 1:
            c += 1
        colors[v] = c
        best = max(best, c + 1)
    return best


def is_k_colorable_fast(g: Graph, k: int) -> bool:
    """Greedy fast path, falling back to the exact search."""
    if g.n and g.m and k >= 2 and greedy_upper_bound(g) <= k:
        return True
    return is_k_colorable(g, k)
