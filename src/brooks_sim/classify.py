"""Almost-clique classification and the seven-set fine partition.

An AC is easy (a member whose neighbourhood is a clique, read from the
common-neighbour pass sums, or a non-edge), difficult (non-easy, has a special
neighbor, size >= delta - psi), nice (easy or contains a picked special),
or ordinary (none of the above). A special is an outside node with >= phi
neighbors in the AC, from the outsider counts `verify_acd` kept; both cuts
are integers of `thresholds.Thresholds`.
Each difficult AC picks its smallest-id special neighbor; specials picked
twice become escapes (their ACs runaways), picked once become protectors (ACs
guarded).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, fields
from functools import cached_property
from typing import Iterator

from .acd import AlmostCliqueDecomposition
from .errors import PartitionViolationError
from .graph_core import Graph, common_neighbour_pass
from .thresholds import Thresholds

NICE, ORDINARY, GUARDED, RUNAWAY = "nice", "ordinary", "guarded", "runaway"


@dataclass(frozen=True)
class ACClassification:
    labels: tuple[str, ...]
    easy: tuple[bool, ...]
    specials: tuple[frozenset[int], ...]
    picked: tuple[int | None, ...]  # per difficult AC; None elsewhere
    protectors: frozenset[int]
    escapes: frozenset[int]

    def is_difficult(self, idx: int) -> bool:
        return self.labels[idx] in (GUARDED, RUNAWAY)

    def picked_special(self, idx: int) -> int:
        node = self.picked[idx]
        if node is None:
            raise PartitionViolationError(
                f"AC {idx} is not difficult, no picked special", phase="classify"
            )
        return node


@dataclass(frozen=True)
class FinePartition:
    """The seven node sets P, E, V*, O, R, N, G of the fine-grained partition.
    Node sets above `graph_core` are frozensets, not n-bit masks."""

    P: frozenset[int]
    E: frozenset[int]
    Vstar: frozenset[int]
    O: frozenset[int]
    R: frozenset[int]
    N: frozenset[int]
    G: frozenset[int]

    def sets(self) -> dict[str, frozenset[int]]:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @cached_property
    def outside_vo(self) -> frozenset[int]:
        """V minus (V* u O): the nodes colored after steps 4 and 5, which
        the slack gate and step 5 leave out of G[V* u O]; cached, since the
        gate reads it once per node. Empty with no almost-clique."""
        return self.P | self.E | self.R | self.N | self.G


def find_special(g: Graph, acd: AlmostCliqueDecomposition, clique_idx: int) -> frozenset[int]:
    """Outside nodes with at least phi neighbors in the AC."""
    special_min = Thresholds.of(acd.epsilon, g.delta).special_min
    return frozenset(u for u, count in acd.outsiders(g, clique_idx) if count >= special_min)


def non_edges(g: Graph, clique: frozenset[int], cmask: int) -> Iterator[tuple[int, int]]:
    """The non-adjacent pairs (u, w), u < w, of the clique in id order."""
    masks = g.masks
    for u in sorted(clique):
        missing = cmask & ~masks[u] & ~((2 << u) - 1)
        while missing:
            low = missing & -missing
            yield u, low.bit_length() - 1
            missing ^= low


def is_easy(g: Graph, acd: AlmostCliqueDecomposition, idx: int, inside_twice: list[int]) -> bool:
    """A non-edge, or a member of degree d whose pass sum `inside_twice` is d(d-1)."""
    clique = acd.cliques[idx]
    if any(non_edges(g, clique, acd.clique_masks[idx])):
        return True
    return any(inside_twice[v] == len(g.adj[v]) * (len(g.adj[v]) - 1) for v in clique)


def classify_acs(
    g: Graph, acd: AlmostCliqueDecomposition, inside_twice: list[int] | None = None
) -> ACClassification:
    """Label every AC; without `inside_twice`, one common-neighbour pass runs here."""
    bounds = Thresholds.of(acd.epsilon, g.delta)
    if inside_twice is None:
        inside_twice = common_neighbour_pass(g, bounds.similar_min)[1]
    t = len(acd.cliques)
    easy = tuple(is_easy(g, acd, i, inside_twice) for i in range(t))
    specials = tuple(find_special(g, acd, i) for i in range(t))

    # pass 1: difficult ACs pick their smallest-id special
    difficult = [
        not easy[i] and bool(specials[i]) and len(acd.cliques[i]) >= bounds.difficult_min
        for i in range(t)
    ]
    picked: list[int | None] = [min(specials[i]) if difficult[i] else None for i in range(t)]

    # pass 2: escape/protector status needs the global pick counts
    pick_count = Counter(node for node in picked if node is not None)
    escapes = frozenset(v for v, c in pick_count.items() if c >= 2)
    protectors = frozenset(v for v, c in pick_count.items() if c == 1)
    picked_any = escapes | protectors

    labels = []
    for i in range(t):
        if difficult[i]:
            labels.append(RUNAWAY if picked[i] in escapes else GUARDED)
        elif easy[i] or (acd.cliques[i] & picked_any):
            labels.append(NICE)
        else:
            labels.append(ORDINARY)
    return ACClassification(
        labels=tuple(labels),
        easy=easy,
        specials=specials,
        picked=tuple(picked),
        protectors=protectors,
        escapes=escapes,
    )


def fine_partition(
    g: Graph, acd: AlmostCliqueDecomposition, cls: ACClassification
) -> FinePartition:
    """Build the seven sets and assert both structural observations."""
    pe = cls.protectors | cls.escapes
    if cls.protectors & cls.escapes:
        raise PartitionViolationError(
            f"node {min(cls.protectors & cls.escapes)} is both protector and escape",
            phase="classify",
        )

    members: dict[str, set[int]] = {label: set() for label in (NICE, ORDINARY, GUARDED, RUNAWAY)}
    for idx, clique in enumerate(acd.cliques):
        label = cls.labels[idx]
        if label != NICE:
            # Obs: difficult and ordinary ACs are cliques without P/E members
            if any(non_edges(g, clique, acd.clique_masks[idx])):
                raise PartitionViolationError(
                    f"{label} AC {idx} is not a clique", phase="classify"
                )
            inside_pe = clique & pe
            if inside_pe:
                raise PartitionViolationError(
                    f"{label} AC {idx} contains picked special {min(inside_pe)}",
                    node=min(inside_pe),
                    phase="classify",
                )
        members[label].update(clique - pe)

    part = FinePartition(
        P=cls.protectors,
        E=cls.escapes,
        Vstar=frozenset(acd.sparse - pe),
        O=frozenset(members[ORDINARY]),
        R=frozenset(members[RUNAWAY]),
        N=frozenset(members[NICE]),
        G=frozenset(members[GUARDED]),
    )

    counts = [0] * g.n
    for name, nodes in part.sets().items():
        for v in nodes:
            counts[v] += 1
    for v, c in enumerate(counts):
        if c != 1:
            raise PartitionViolationError(
                f"node {v} appears in {c} partition sets", node=v, phase="classify"
            )
    return part
