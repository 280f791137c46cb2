"""Structural measures: missing pairs, outside degree, anti-degree, K_{delta+1} test.

`missing_pairs` is the integer numerator of local sparsity (its value times
delta); the ACD checks compare that count with the integer bounds of
`thresholds.Thresholds`.
"""

from __future__ import annotations

from .graph import Graph


def edges_inside(g: Graph, nodes_mask: int) -> int:
    """Number of edges of g with both endpoints in the masked set."""
    total = 0
    mask = nodes_mask
    while mask:
        low = mask & -mask
        v = low.bit_length() - 1
        total += (g.masks[v] & nodes_mask).bit_count()
        mask ^= low
    return total // 2


def missing_pairs(g: Graph, v: int) -> int:
    """binom(delta,2) - edges inside N(v): the pairs N(v) lacks to be a delta-clique."""
    d = g.delta
    return d * (d - 1) // 2 - edges_inside(g, g.masks[v])


def outside_degree(g: Graph, clique_mask: int, v: int) -> int:
    """Neighbors of v outside its almost-clique, given as a node bitmask."""
    return (g.masks[v] & ~clique_mask).bit_count()


def anti_degree(g: Graph, clique_mask: int, v: int) -> int:
    """Non-neighbors of v inside its almost-clique (v itself excluded)."""
    return (clique_mask & ~(1 << v) & ~g.masks[v]).bit_count()


def contains_delta_plus_one_clique(g: Graph) -> bool:
    """Exact test: a K_{delta+1} forces some degree-delta node whose closed
    neighborhood is complete, and conversely."""
    d = g.delta
    if d == 0:
        return g.n >= 1  # K_1 is a (0+1)-clique
    for v in range(g.n):
        if len(g.adj[v]) != d:
            continue
        closed_v = g.masks[v] | (1 << v)
        if all((closed_v & ~(g.masks[u] | (1 << u))) == 0 for u in g.adj[v]):
            return True
    return False
