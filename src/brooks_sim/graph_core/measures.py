"""Structural measures: missing pairs, outside degree, anti-degree, the
simplicial test and the K_{delta+1} test built on it.

`missing_pairs` is the integer numerator of local sparsity (its value times
delta); the ACD checks compare that count with the integer bounds of
`thresholds.Thresholds`. Each neighbourhood question is answered by one walk
over `g.adj[v]`, one mask AND per neighbour.
"""

from __future__ import annotations

from .graph import Graph


def missing_pairs(g: Graph, v: int) -> int:
    """binom(delta,2) - edges inside N(v): the pairs N(v) lacks to be a delta-clique.

    Summing |N(u) & N(v)| over u in N(v) counts each edge inside N(v) twice."""
    d = g.delta
    masks = g.masks
    nmask = masks[v]
    inside_twice = sum((masks[u] & nmask).bit_count() for u in g.adj[v])
    return d * (d - 1) // 2 - inside_twice // 2


def outside_degree(g: Graph, clique_mask: int, v: int) -> int:
    """Neighbors of v outside its almost-clique, given as a node bitmask."""
    return (g.masks[v] & ~clique_mask).bit_count()


def anti_degree(g: Graph, clique_mask: int, v: int) -> int:
    """Non-neighbors of v inside its almost-clique (v itself excluded)."""
    return (clique_mask & ~(1 << v) & ~g.masks[v]).bit_count()


def is_simplicial(g: Graph, v: int) -> bool:
    """True iff N(v) induces a clique (in the whole graph)."""
    nmask = g.masks[v]
    return all((nmask & ~(1 << u)) & ~g.masks[u] == 0 for u in g.adj[v])


def contains_delta_plus_one_clique(g: Graph) -> bool:
    """Exact test: a K_{delta+1} forces some degree-delta node whose
    neighborhood is a clique, and conversely."""
    d = g.delta
    if d == 0:
        return g.n >= 1  # K_1 is a (0+1)-clique
    return any(len(g.adj[v]) == d and is_simplicial(g, v) for v in range(g.n))
