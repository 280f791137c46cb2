"""Immutable simple undirected graph with dense integer node ids."""

from __future__ import annotations

import operator
from bisect import bisect_left
from typing import Iterable, Iterator, NoReturn

from ..errors import GraphInvariantError


class Graph:
    """Simple undirected graph on nodes 0..n-1.

    Adjacency is kept as sorted tuples (deterministic iteration, and a
    bisect for `has_edge`) and as int bitmasks (fast intersection
    counting). The tuples hold one plain int object per node id, so they
    cost one pointer per edge end. The freeze stores the entries it is
    given, so the sharing is made where ids come from outside the package:
    `Graph(n, edges)` and the loader append each end through one list of
    ids, whatever int or int-like (`__index__`) objects they read, and the
    generators hand over lists that already share their ids.
    All n masks cost n^2/8 bytes against the 16m bytes of the tuples' 2m
    entries, so the masks are built in construction only where they are
    no larger than the tuples:
    `small_masks` is `masks_fit(n, m)`, n*n <= 128*m, the one home of that
    rule; past this build, only the common-neighbour pass, `PartialColoring`
    and the `random_gnd` generator read it. Elsewhere `masks` is a per-node
    cache that builds a node's mask on its first read. Apart from the
    common-neighbour pass on a locally dense graph, only the ACD and
    classification read it, for the nodes in or next to an almost-clique,
    so such a graph keeps memory linear in its edges plus those masks.
    `Graph(n, edges)` raises GraphInvariantError for a node count that is
    not an int, or is a bool, and for the first edge, in input order, that
    is not a pair of int ids, is out of range, a self-loop or a duplicate
    (found as a node whose neighbour set is smaller than its tuple).
    The generators and the loader build valid neighbour lists and hand them
    to `_from_neighbour_lists`, unchecked; both paths end in `_freeze`.
    Immutable after construction, apart from that mask cache, whose entries
    do not depend on who builds them; safe for concurrent reads.
    """

    __slots__ = ("n", "m", "delta", "adj", "small_masks", "masks")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]]):
        if isinstance(n, bool) or not hasattr(type(n), "__index__"):
            raise GraphInvariantError(f"node count {n!r} is not an int")
        n = operator.index(n)
        if n < 0:
            raise GraphInvariantError(f"negative node count {n}")
        edges = list(edges)
        adj: list[list[int]] = [[] for _ in range(n)]
        ids = list(range(n))  # one plain int object per id, whatever the edges carry
        try:
            for u, v in edges:
                if u == v or not (0 <= u < n and 0 <= v < n):
                    _raise_first_defect(n, edges)
                adj[u].append(ids[v])
                adj[v].append(ids[u])
            self._freeze(adj)
        except (TypeError, ValueError):
            # an edge that is not a pair of ints; only the defect scan checks types
            _raise_first_defect(n, edges)
        # a repeated edge repeats a neighbour, which a set counts once
        if any(len(set(a)) < len(a) for a in self.adj):
            _raise_first_defect(n, edges)

    @classmethod
    def _from_neighbour_lists(cls, adj: list) -> Graph:
        """The graph whose node v has the neighbours in `adj[v]`, a list or a
        set of ids; `adj` is consumed and its entries are stored as they are.
        Not checked: each edge must be in both ends' containers once, with
        plain int ids in range, one object per id, and no self-loop."""
        graph = cls.__new__(cls)
        graph._freeze(adj)
        return graph

    def _freeze(self, adj: list) -> None:
        for v, a in enumerate(adj):  # in turn: containers and tuples never coexist in full
            adj[v] = tuple(sorted(a))
        self.n = n = len(adj)
        self.adj: tuple[tuple[int, ...], ...] = tuple(adj)
        self.m = sum(map(len, self.adj)) // 2
        self.delta = max(map(len, self.adj), default=0)
        self.small_masks: bool = masks_fit(n, self.m)
        self.masks: tuple[int, ...] | MaskCache
        if self.small_masks:
            pow2 = [1 << v for v in range(n)]
            self.masks = tuple([sum(map(pow2.__getitem__, a)) for a in self.adj])
        else:
            self.masks = MaskCache(self.adj)

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def has_edge(self, u: int, v: int) -> bool:
        nbrs = self.adj[u]
        i = bisect_left(nbrs, v)
        return i < len(nbrs) and nbrs[i] == v

    def edges(self) -> Iterator[tuple[int, int]]:
        for u in range(self.n):
            for v in self.adj[u]:
                if u < v:
                    yield (u, v)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and self.adj == other.adj

    def __hash__(self) -> int:
        return hash((self.n, self.adj))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m}, delta={self.delta})"


def masks_fit(n: int, m: int) -> bool:
    """The mask size rule: n masks of n bits take n*n/8 bytes, the 2m
    entries of the neighbour tuples 16*m; a graph keeps its masks from
    construction on only where they are no larger."""
    return n * n <= 128 * m


class MaskCache(dict):
    """The n-bit neighbour masks of a graph that keeps none: `cache[v]` is
    v's mask, built and stored on its first read."""

    __slots__ = ("adj",)

    def __init__(self, adj: tuple[tuple[int, ...], ...]):
        self.adj = adj

    def __missing__(self, v: int) -> int:
        mask = self[v] = mask_of(self.adj[v])
        return mask


def mask_of(nodes: Iterable[int]) -> int:
    """Bitmask with one bit per node id."""
    mask = 0
    for v in nodes:
        mask |= 1 << v
    return mask


def _raise_first_defect(n: int, edges: list) -> NoReturn:
    """Raise for the first edge, in input order, that is not a pair of int
    ids, is out of range, a self-loop or a repeat of an earlier edge."""
    seen: set[tuple[int, int]] = set()
    for edge in edges:
        try:
            u, v = edge
        except (TypeError, ValueError):
            raise GraphInvariantError(f"edge {edge!r} is not a pair of node ids") from None
        try:
            u, v = operator.index(u), operator.index(v)
        except TypeError:
            raise GraphInvariantError(f"edge ({u!r},{v!r}) has a non-int endpoint") from None
        if not (0 <= u < n and 0 <= v < n):
            raise GraphInvariantError(f"edge ({u},{v}) out of range for n={n}")
        if u == v:
            raise GraphInvariantError(f"self-loop at node {u}")
        key = (u, v) if u < v else (v, u)
        if key in seen:
            raise GraphInvariantError(f"duplicate edge ({key[0]},{key[1]})")
        seen.add(key)
    raise GraphInvariantError(f"edge list rejected for n={n}, but no single edge is at fault")
