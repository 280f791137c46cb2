"""Structural measures: the common-neighbour pass, the simplicial test and
the K_{delta+1} test built on it.

`common_neighbour_pass` counts |N(u) & N(v)| for every undirected edge and
sums them per node: twice the edges inside N(v). The ACD reads each count
for similarity and the sums for property (1); N(v) of d nodes is a clique
iff its sum is d(d-1), which the simplicial and K_{delta+1} tests read.

The pass and `is_simplicial` read the n-bit masks only where the graph
keeps them (`Graph.small_masks`). Elsewhere the pass lists triangles and
`is_simplicial` intersects sets, so a sparse graph never builds its masks.
The listing holds each node's later neighbours as a tuple slice and
builds one set at a time, for the node it is at, so its memory is of the
order of the graph's rather than n sets (Latapy 2008). It pays per
triangle where the masks pay per edge, so once it has found more triangles
than it has walked edges it stops and the pass reads every node's mask
after all; such a graph is locally dense, and its almost-cliques read most
of them anyway.
The results are the same on every path.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import defaultdict

from .graph import Graph


def common_neighbour_pass(g: Graph, at_least: int) -> tuple[list[list[int]], list[int]]:
    """|N(u) & N(v)| for every undirected edge uv: one mask AND per edge,
    or, on a graph that keeps no masks and has few triangles, one triangle
    listing.

    Returns, per node v, the neighbours (ascending) that share at least
    `at_least` common neighbours with v, and the sum of v's counts, which is
    twice the number of edges inside N(v): each such edge xy is counted once
    at x and once at y."""
    if not g.small_masks:
        listed = _triangle_pass(g, at_least)
        if listed is not None:
            return listed
    # a list indexes faster than the per-node cache of a graph that keeps no masks
    masks = g.masks if g.small_masks else list(map(g.masks.__getitem__, range(g.n)))
    close: list[list[int]] = [[] for _ in range(g.n)]
    inside_twice = [0] * g.n
    for u, nbrs in enumerate(g.adj):
        mu = masks[u]
        total = inside_twice[u]  # the counts of u's smaller neighbours
        for v in nbrs[bisect_right(nbrs, u):]:
            count = (mu & masks[v]).bit_count()
            total += count
            inside_twice[v] += count
            if count >= at_least:
                close[u].append(v)
                close[v].append(u)
        inside_twice[u] = total
    return close, inside_twice


def _triangle_pass(g: Graph, at_least: int) -> tuple[list[list[int]], list[int]] | None:
    """`common_neighbour_pass` without masks. Each triangle u < v < w is
    found once, at edge uv, where v's later neighbours meet the set of u's;
    only the current u's set exists at a time, the rest stay tuple slices.
    Most edges of a sparse graph close no triangle, and `isdisjoint`
    rejects them without building a set. None as soon as the triangles
    found outnumber the edges walked: there one mask AND per edge is
    cheaper."""
    later = [nbrs[bisect_right(nbrs, u):] for u, nbrs in enumerate(g.adj)]
    # shared[u][v] = |N(u) & N(v)| for each edge uv, u < v, in some triangle
    shared: defaultdict[int, dict[int, int]] = defaultdict(dict)
    walked = found = 0
    for u, lu in enumerate(later):
        walked += len(lu)
        su = set(lu)
        for v in lu:
            lv = later[v]
            if su.isdisjoint(lv):
                continue
            common = su.intersection(lv)
            found += len(common)
            row_u, row_v = shared[u], shared[v]
            row_u[v] = row_u.get(v, 0) + len(common)
            for w in common:
                row_u[w] = row_u.get(w, 0) + 1
                row_v[w] = row_v.get(w, 0) + 1
        if found > walked:
            return None
    # an edge in no triangle is close only when at_least < 1
    close = [list(a) if at_least < 1 else [] for a in g.adj]
    inside_twice = [0] * g.n
    for u, row in shared.items():
        for v, count in row.items():
            inside_twice[u] += count
            inside_twice[v] += count
            if 1 <= at_least <= count:
                close[u].append(v)
                close[v].append(u)
    for row in close:
        row.sort()
    return close, inside_twice


def is_simplicial(g: Graph, v: int, inside_twice: list[int] | None = None) -> bool:
    """True iff N(v) induces a clique (in the whole graph); read from the
    sums of `common_neighbour_pass` when given."""
    if inside_twice is not None:
        d = len(g.adj[v])
        return inside_twice[v] == d * (d - 1)
    if not g.small_masks:
        # each neighbour u must see N[v] = N(v) + v, all of it but u itself
        closed = {v, *g.adj[v]}
        return all(len(closed.intersection(g.adj[u])) == len(closed) - 1 for u in g.adj[v])
    masks = g.masks
    nmask = masks[v]
    return all((nmask & ~(1 << u)) & ~masks[u] == 0 for u in g.adj[v])


def contains_delta_plus_one_clique(g: Graph, inside_twice: list[int] | None = None) -> bool:
    """Exact test: a K_{delta+1} forces some degree-delta node whose
    neighborhood is a clique, and conversely (at delta 0, any node).
    Without the sums only the clique minima are tested, the degree-delta
    nodes below all their neighbours: a K_{delta+1}'s members have no
    neighbour outside it, so its smallest member is one."""
    d = g.delta
    if inside_twice is not None:
        # a node of degree below d sums less, except a degree-0 node at d = 1,
        # where an edge is a K_2 anyway
        return d * (d - 1) in inside_twice
    if d == 0:
        return g.n > 0
    return any(len(a) == d and a[0] > v and is_simplicial(g, v) for v, a in enumerate(g.adj))
