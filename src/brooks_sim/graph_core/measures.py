"""Structural measures: the common-neighbour pass, outside degree,
anti-degree, the simplicial test and the K_{delta+1} test built on it.

`common_neighbour_pass` counts |N(u) & N(v)| with one mask AND per
undirected edge. The ACD reads each count once for similarity and sums them
per node: twice the edges inside N(v), which gives property (1)'s integer
`binom(delta, 2) - edges inside N(v)` (local sparsity times delta). The
other measures answer one neighbourhood question each, by one walk over
`g.adj[v]` or one mask expression.
"""

from __future__ import annotations

from .graph import Graph


def common_neighbour_pass(g: Graph, at_least: int) -> tuple[list[list[int]], list[int]]:
    """One mask AND per undirected edge uv counts |N(u) & N(v)|.

    Returns, per node v, the neighbours (ascending) that share at least
    `at_least` common neighbours with v, and the sum of v's counts, which is
    twice the number of edges inside N(v): each such edge xy is counted once
    at x and once at y."""
    masks = g.masks
    close: list[list[int]] = [[] for _ in range(g.n)]
    inside_twice = [0] * g.n
    for u, nbrs in enumerate(g.adj):
        mu = masks[u]
        total = inside_twice[u]  # the counts of u's smaller neighbours
        for v in nbrs:
            if v < u:
                continue
            count = (mu & masks[v]).bit_count()
            total += count
            inside_twice[v] += count
            if count >= at_least:
                close[u].append(v)
                close[v].append(u)
        inside_twice[u] = total
    return close, inside_twice


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
