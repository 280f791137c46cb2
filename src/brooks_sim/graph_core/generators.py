"""Adversarial instance families.

Families:
  clique_minus_edge  K_{delta+1} minus one edge; the missing pair must be
                     same-colored in any delta-coloring.
  matched_cliques    two K_delta joined by a perfect matching; ordinary ACs
                     whose slack must come from the random color trial.
  guarded_pair       a (delta-deficit)-clique fully covered by two outside
                     special nodes; classifies as one guarded AC plus a
                     protector (deficit defaults to 1).
  runaway_pair       two (delta-deficit)-cliques sharing both special nodes;
                     the smaller-id special is picked twice and becomes an
                     escape.
  random_gnd         near-delta-regular random graph, exactly one node of
                     degree delta (the rest keep a-priori slack).
  mixed              disjoint/bridged union of the above.

All generators are deterministic in (delta, seed), emit max degree exactly
delta, contain no K_{delta+1}, and record construction counts in meta for
test cross-checks. epsilon_min/epsilon_max bound the admissible ACD epsilon
for the family at this delta.

One table names each family's builder and smallest delta; a keyword
parameter that the builder does not take raises UnsupportedFamilyError, as
an unknown family does. Each builder returns a _Blueprint: per-node
neighbour lists (each edge appended at both ends once), epsilon bounds and
meta. The lists share one int object per node id, never a fresh int per
entry, since Graph stores them as they are. generate_instance freezes
those lists into the one Graph, unchecked, and checks the max degree and
the absence of a K_{delta+1} on that Graph; mixed offsets its components'
lists and builds no Graph per component.
"""

from __future__ import annotations

import inspect
import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain
from typing import Callable, Iterable, NamedTuple

from ..errors import UnsupportedFamilyError, check_int
from ..thresholds import DEFAULT_EPSILON, ceil_phi, floor_psi
from .graph import Graph, masks_fit
from .measures import contains_delta_plus_one_clique


@dataclass(frozen=True)
class GeneratedGraph:
    graph: Graph
    family: str
    delta: int
    seed: int
    epsilon_min: Fraction
    epsilon_max: Fraction
    meta: dict = field(default_factory=dict)

    @property
    def epsilon(self) -> Fraction:
        """The family's declared epsilon at this delta: DEFAULT_EPSILON clamped
        into [epsilon_min, epsilon_max]."""
        return min(max(DEFAULT_EPSILON, self.epsilon_min), self.epsilon_max)


class _Blueprint(NamedTuple):
    """What a family builder hands generate_instance to build and check."""

    adj: list  # node v's neighbours, a list (or random_gnd's set) of ids
    epsilon_min: Fraction
    epsilon_max: Fraction
    meta: dict


def generate_instance(family: str, delta: int, seed: int = 0, **params) -> GeneratedGraph:
    check_int("delta", delta)
    check_int("seed", seed)  # an OS-entropy seed would make the graph irreproducible
    blueprint = _blueprint(family, delta, seed, **params)
    g = Graph._from_neighbour_lists(blueprint.adj)
    _check_max_degree(family, delta, g.delta)
    if contains_delta_plus_one_clique(g):
        raise UnsupportedFamilyError(f"{family}({delta}, seed={seed}) contains a K_{delta + 1}")
    return GeneratedGraph(
        graph=g,
        family=family,
        delta=delta,
        seed=seed,
        epsilon_min=blueprint.epsilon_min,
        epsilon_max=blueprint.epsilon_max,
        meta=blueprint.meta,
    )


def _blueprint(family: str, delta: int, seed: int, **params) -> _Blueprint:
    spec = _FAMILIES.get(family) if isinstance(family, str) else None
    if spec is None:
        raise UnsupportedFamilyError(f"unknown family {family!r}")
    unknown = sorted(params.keys() - spec.params)
    if unknown:
        raise UnsupportedFamilyError(f"family {family!r} takes no parameter {unknown[0]!r}")
    if delta < spec.min_delta:
        raise UnsupportedFamilyError(
            f"family {family!r} needs delta >= {spec.min_delta}, got {delta}"
        )
    return spec.build(delta, seed, **params)


def _check_max_degree(family: str, delta: int, max_degree: int) -> None:
    if max_degree != delta:
        raise UnsupportedFamilyError(f"{family}({delta}) produced max degree {max_degree}")


def _join(adj: list[list[int]], edges: Iterable[tuple[int, int]]) -> None:
    """Append each edge (u, v) to both ends' neighbour lists."""
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)


def _join_clique(adj: list[list[int]], clique: list[int]) -> None:
    """Join every pair of the clique's members: each member's list gains the
    others as two slices, not one append per pair."""
    for i, v in enumerate(clique):
        row = adj[v]
        row += clique[:i]
        row += clique[i + 1 :]


def _clique_minus_edge(delta: int, seed: int) -> _Blueprint:
    n = delta + 1
    rng = random.Random(seed)
    a = rng.randrange(n)
    b = rng.randrange(n - 1)
    if b >= a:
        b += 1
    missing = (min(a, b), max(a, b))
    adj: list[list[int]] = [[] for _ in range(n)]
    _join_clique(adj, list(range(n)))
    adj[a].remove(b)
    adj[b].remove(a)
    return _Blueprint(
        adj=adj,
        epsilon_min=Fraction(1, 3 * delta),
        epsilon_max=Fraction(1, 4),
        meta={"missing_edge": missing},
    )


def _matched_cliques(delta: int, seed: int) -> _Blueprint:
    rng = random.Random(seed)
    side_a = list(range(delta))
    side_b = list(range(delta, 2 * delta))
    perm = list(range(delta))
    rng.shuffle(perm)
    adj: list[list[int]] = [[] for _ in range(2 * delta)]
    for side in (side_a, side_b):
        _join_clique(adj, side)
    matching = [(side_a[i], side_b[perm[i]]) for i in range(delta)]
    _join(adj, matching)
    return _Blueprint(
        adj=adj,
        epsilon_min=Fraction(1, 4 * delta),
        epsilon_max=Fraction(1, 4),
        meta={"sides": (tuple(side_a), tuple(side_b)), "matching": tuple(matching)},
    )


def _covered_clique(
    adj: list[list[int]], clique: list[int], s_first: int, s_second: int, k: int
) -> tuple[list[int], list[int]]:
    """Join the clique plus coverage: s_first sees positions [0,k), s_second
    sees [k-1, m). Overlap of exactly one member keeps both special degrees
    down while every member gets an outside neighbor (no simplicial nodes)."""
    _join_clique(adj, clique)
    cov_first = clique[:k]
    cov_second = clique[k - 1 :]
    _join(adj, ((s_first, v) for v in cov_first))
    _join(adj, ((s_second, v) for v in cov_second))
    return cov_first, cov_second


def _coverage_epsilon_max(delta: int, max_coverage: int) -> Fraction:
    # The special must stay outside the AC: below the augmentation threshold
    # (coverage < (1-4eps)*delta, strict) and under property-4's cap.
    return Fraction(delta - max_coverage, 4 * delta) - Fraction(1, 8 * delta)


def _check_deficit(family: str, delta: int, deficit: int) -> None:
    # |C| >= delta - floor(psi) keeps the clique in the difficult size range
    check_int("deficit", deficit)
    if not 1 <= deficit <= floor_psi(delta):
        raise UnsupportedFamilyError(
            f"{family}({delta}): deficit {deficit} outside [1, {floor_psi(delta)}]"
        )


def _pad_to_delta(adj: list[list[int]], delta: int) -> bool:
    """Append a disjoint star so the graph's max degree is exactly delta."""
    if max(map(len, adj), default=0) >= delta:
        return False
    hub = len(adj)
    adj.append(list(range(hub + 1, hub + 1 + delta)))
    adj.extend([hub] for _ in range(delta))
    return True


def _guarded_pair(delta: int, seed: int, deficit: int = 1) -> _Blueprint:
    # One (delta-deficit)-clique; specials 0 and 1 cover it with one-node
    # overlap. The deficit parameterizes the figures' unstated clique size.
    _check_deficit("guarded_pair", delta, deficit)
    rng = random.Random(seed)
    m = delta - deficit
    clique = list(range(2, 2 + m))
    rng.shuffle(clique)
    k = (m + 2) // 2  # |S1|; |S2| = m - k + 1
    adj: list[list[int]] = [[] for _ in range(2 + m)]
    cov1, cov2 = _covered_clique(adj, clique, 0, 1, k)
    need = ceil_phi(delta)
    if min(len(cov1), len(cov2)) < need:
        raise UnsupportedFamilyError(f"guarded_pair({delta}): coverage below phi")
    padded = _pad_to_delta(adj, delta)
    return _Blueprint(
        adj=adj,
        epsilon_min=Fraction(deficit, delta),
        epsilon_max=_coverage_epsilon_max(delta, max(len(cov1), len(cov2))),
        meta={
            "clique": tuple(sorted(clique)),
            "specials": (0, 1),
            "expected_protector": 0,
            "coverage": {0: tuple(sorted(cov1)), 1: tuple(sorted(cov2))},
            "deficit": deficit,
            "padded": padded,
        },
    )


def _runaway_pair(delta: int, seed: int, deficit: int = 1) -> _Blueprint:
    # Two (delta-deficit)-cliques; special 0 takes the first ~half of each,
    # special 1 the rest. deg(0) = delta exactly, both special for both cliques.
    _check_deficit("runaway_pair", delta, deficit)
    rng = random.Random(seed)
    m = delta - deficit
    clique1 = list(range(2, 2 + m))
    clique2 = list(range(2 + m, 2 + 2 * m))
    rng.shuffle(clique1)
    rng.shuffle(clique2)
    k1 = (delta + 1) // 2
    k2 = delta - k1
    adj: list[list[int]] = [[] for _ in range(2 + 2 * m)]
    cov11, cov21 = _covered_clique(adj, clique1, 0, 1, k1)
    cov12, cov22 = _covered_clique(adj, clique2, 0, 1, k2)
    need = ceil_phi(delta)
    if min(len(cov11), len(cov21), len(cov12), len(cov22)) < need:
        raise UnsupportedFamilyError(f"runaway_pair({delta}): coverage below phi")
    max_cov = max(len(cov11), len(cov21), len(cov12), len(cov22))
    return _Blueprint(
        adj=adj,
        epsilon_min=Fraction(deficit, delta),
        epsilon_max=_coverage_epsilon_max(delta, max_cov),
        meta={
            "cliques": (tuple(sorted(clique1)), tuple(sorted(clique2))),
            "specials": (0, 1),
            "expected_escape": 0,
            "coverage": {
                0: (tuple(sorted(cov11)), tuple(sorted(cov12))),
                1: (tuple(sorted(cov21)), tuple(sorted(cov22))),
            },
            "deficit": deficit,
        },
    )


def _random_gnd(delta: int, seed: int, n: int | None = None) -> _Blueprint:
    rng = random.Random(seed)
    if n is None:
        n = 4 * delta
    check_int("n", n)
    if n % 2:
        n += 1
    if n <= delta:
        raise UnsupportedFamilyError(
            f"random_gnd({delta}): n must exceed delta, got {n} (rounded up to even)"
        )
    d = delta - 2
    # the d*n/2 planned edges decide the Graph's side of the mask size rule;
    # where it keeps no masks, a short neighbour list is smaller and quicker
    # to build than a set, and on the dense side a set's lookup wins
    if masks_fit(n, d * n // 2):
        adj: list = [set() for _ in range(n)]
        add = set.add
    else:
        adj = [[] for _ in range(n)]
        add = list.append
    # union of d // 2 random Hamiltonian cycles, plus a random perfect
    # matching when d is odd; a pair already joined is skipped. Each
    # permutation shuffles a copy of one id list, so the edges share one int
    # object per node id.
    nodes = list(range(n))
    for k in range(d // 2 + d % 2):
        perm = nodes.copy()
        rng.shuffle(perm)
        if k < d // 2:
            pairs = zip(perm, perm[1:] + perm[:1])
        else:
            pairs = zip(perm[0::2], perm[1::2])
        for u, v in pairs:
            if v not in adj[u]:
                add(adj[u], v)
                add(adj[v], u)
    # duplicate skips leave degrees <= delta-2; raise node 0 to exactly delta by
    # 50n random picks, then by a deterministic scan that is effectively unreachable
    adj0 = adj[0]
    picks = chain((rng.randrange(1, n) for _ in range(50 * n)), range(1, n))
    for v in picks:
        if len(adj[v]) <= delta - 2 and v not in adj0:
            add(adj0, nodes[v])  # the shared id, not the pick's new int
            add(adj[v], 0)
            if len(adj0) >= delta:
                break
    return _Blueprint(
        adj=adj,
        epsilon_min=Fraction(1, 4 * delta),
        epsilon_max=Fraction(1, 4),
        meta={"max_degree_node": 0, "n": n},
    )


def _spare_node(kind: str, part: _Blueprint, adj: list[list[int]], delta: int) -> int | None:
    """The first attachment point that tolerates one more edge without losing
    what the family relies on (random_gnd nodes must keep a-priori slack).
    `part.adj` is the component's list of shared ids in the union."""
    limit = delta - 2 if kind == "random_gnd" else delta - 1
    skip = part.adj[part.meta["max_degree_node"]] if kind == "random_gnd" else None
    for v in part.adj:
        if v != skip and len(adj[v]) <= limit:
            return v
    return None


def _mixed(
    delta: int,
    seed: int,
    components: int | None = None,
    kinds: tuple[str, ...] | None = None,
) -> _Blueprint:
    if components is not None:
        check_int("components", components)
        if components < 1:
            raise UnsupportedFamilyError(f"mixed({delta}): components {components} < 1")
    if kinds is None:
        count = 5 if components is None else components
        kinds = tuple(_MIXED_CYCLE[i % len(_MIXED_CYCLE)] for i in range(count))
    elif not (
        isinstance(kinds, (list, tuple)) and kinds and all(isinstance(k, str) for k in kinds)
    ):
        raise UnsupportedFamilyError(
            f"mixed({delta}): kinds must be a non-empty list of family names, got {kinds!r}"
        )
    elif components is not None and components != len(kinds):
        raise UnsupportedFamilyError(
            f"mixed({delta}): components {components} but {len(kinds)} kinds"
        )
    rng = random.Random(seed ^ 0x5EED)
    # adj is over the union's ids: component i starts at offsets[i]. Its entries
    # share one int per id, and parts keeps only the id list, which the bridges'
    # spare nodes are read from.
    parts: list[_Blueprint] = []
    offsets: list[int] = []
    adj: list[list[int]] = []
    for idx, kind in enumerate(kinds):
        part = _blueprint(kind, delta, seed * 131 + idx)
        _check_max_degree(kind, delta, max(map(len, part.adj), default=0))
        offset = len(adj)
        ids = list(range(offset, offset + len(part.adj)))
        adj.extend(list(map(ids.__getitem__, a)) for a in part.adj)
        parts.append(part._replace(adj=ids))
        offsets.append(offset)

    bridges: list[tuple[int, int]] = []
    for i in range(len(parts) - 1):
        if rng.random() >= 0.5:
            continue
        u = _spare_node(kinds[i], parts[i], adj, delta)
        v = _spare_node(kinds[i + 1], parts[i + 1], adj, delta)
        if u is None or v is None:
            continue  # e.g. matched_cliques has no spare-degree node
        bridges.append((u, v))
        _join(adj, [(u, v)])  # the next pair's spare node sees this degree

    return _Blueprint(
        adj=adj,
        epsilon_min=max(p.epsilon_min for p in parts),
        epsilon_max=min(p.epsilon_max for p in parts),
        meta={
            "components": tuple(
                {"family": kind, "offset": off, "n": len(p.adj), "meta": p.meta}
                for kind, p, off in zip(kinds, parts, offsets)
            ),
            "bridges": tuple(bridges),
        },
    )


class _Family(NamedTuple):
    build: Callable[..., _Blueprint]
    min_delta: int
    params: frozenset[str]  # the builder's keyword parameters after (delta, seed)


_FAMILIES = {
    name: _Family(build, min_delta, frozenset(list(inspect.signature(build).parameters)[2:]))
    for name, build, min_delta in (
        ("clique_minus_edge", _clique_minus_edge, 3),
        ("matched_cliques", _matched_cliques, 3),
        ("guarded_pair", _guarded_pair, 12),
        ("runaway_pair", _runaway_pair, 12),
        ("random_gnd", _random_gnd, 6),
        ("mixed", _mixed, 12),
    )
}
FAMILIES = tuple(_FAMILIES)
_MIXED_CYCLE = tuple(f for f in FAMILIES if f != "mixed")  # mixed's default components
