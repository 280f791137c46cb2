"""Almost-clique decomposition: centralized construction plus contract checks.

The construction is a stand-in for the cited distributed algorithm; what the
rest of the pipeline relies on are the four verified properties:

  (1) sparse nodes have sparsity >= C_SPARSE * eps^2 * delta,
  (2) (1-eps)*delta <= |C_i| <= (1+3eps)*delta,
  (3) members have >= (1-4eps)*delta neighbors inside their own AC,
  (4) outsiders have <= (1-2eps)*delta neighbors inside any AC.

compute_acd builds a candidate via a similarity graph (two adjacent nodes are
similar when they share (1-eps')*delta neighbors), then augments: any
leftover node with (1-4eps)*delta neighbors in a base clique joins it. A
failed verification raises rather than forcing a decomposition.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

from .errors import AcdVerificationError, BrooksSimError
from .graph_core import Graph, anti_degree, mask_of, outside_degree, sparsity

# (1/4) * (1/108)^2, from the proof constant eta = eps/108 and sparsity (eta^2/4)*delta.
C_SPARSE = Fraction(1, 4) * Fraction(1, 108) ** 2

# Desk-scale ceiling; the classical analysis assumes < 1/20, but small-delta
# instances only decompose at larger values (up to 1/4 stays workable).
EPSILON_CEILING = Fraction(1, 4)


@dataclass(frozen=True)
class AlmostCliqueDecomposition:
    epsilon: Fraction
    sparse: frozenset[int]
    cliques: tuple[frozenset[int], ...]
    membership: tuple[int, ...]  # -1 for sparse, else clique index

    @cached_property
    def clique_masks(self) -> tuple[int, ...]:
        return tuple(mask_of(c) for c in self.cliques)

    @staticmethod
    def build(
        epsilon: Fraction, sparse: frozenset[int], cliques: tuple[frozenset[int], ...], n: int
    ) -> "AlmostCliqueDecomposition":
        membership = [-1] * n
        for idx, clique in enumerate(cliques):
            if not clique:
                raise BrooksSimError(f"empty almost-clique at index {idx}", phase="acd")
            for v in clique:
                if membership[v] != -1:
                    raise BrooksSimError(f"node {v} in two almost-cliques", phase="acd")
                membership[v] = idx
        for v in sparse:
            if membership[v] != -1:
                raise BrooksSimError(f"node {v} both sparse and dense", phase="acd")
        covered = len(sparse) + sum(len(c) for c in cliques)
        if covered != n or any(m == -1 and v not in sparse for v, m in enumerate(membership)):
            raise BrooksSimError("sparse set and almost-cliques do not partition V", phase="acd")
        return AlmostCliqueDecomposition(
            epsilon=epsilon,
            sparse=sparse,
            cliques=cliques,
            membership=tuple(membership),
        )

    def to_json(self) -> str:
        payload = {
            "epsilon": str(self.epsilon),
            "sparse": sorted(self.sparse),
            "cliques": [sorted(c) for c in self.cliques],
        }
        return json.dumps(payload, sort_keys=True)

    @staticmethod
    def from_json(text: str, n: int) -> "AlmostCliqueDecomposition":
        payload = json.loads(text)
        return AlmostCliqueDecomposition.build(
            Fraction(payload["epsilon"]),
            frozenset(payload["sparse"]),
            tuple(frozenset(c) for c in payload["cliques"]),
            n,
        )


@dataclass
class PropertyReport:
    """Per-property violation lists; empty everywhere means the contract holds."""

    epsilon: Fraction
    violations: dict[str, list[str]] = field(default_factory=dict)
    measured: dict[str, object] = field(default_factory=dict)

    def add(self, prop: str, message: str) -> None:
        self.violations.setdefault(prop, []).append(message)

    @property
    def ok(self) -> bool:
        return not any(self.violations.values())

    def summary(self) -> str:
        if self.ok:
            return "all properties hold"
        return "; ".join(f"{k}: {len(v)} violations" for k, v in sorted(self.violations.items()))


def similarity_epsilon(epsilon: Fraction, delta: int) -> Fraction:
    """eps' = max(3*eps, 3/delta); the floor keeps near-complete cliques similar
    at tiny delta where 3*eps alone would split them."""
    return max(3 * epsilon, Fraction(3, max(delta, 1)))


def compute_acd(g: Graph, epsilon: Fraction | str) -> AlmostCliqueDecomposition:
    epsilon = Fraction(epsilon)
    if not 0 < epsilon <= EPSILON_CEILING:
        raise BrooksSimError(f"epsilon {epsilon} outside (0, {EPSILON_CEILING}]", phase="config")
    delta = g.delta
    if delta < 3:
        raise BrooksSimError(f"compute_acd needs delta >= 3, got {delta}", phase="precondition")
    eps_prime = similarity_epsilon(epsilon, delta)

    similar_threshold = (1 - eps_prime) * delta

    similar: list[list[int]] = [[] for _ in range(g.n)]
    for u in range(g.n):
        mu = g.masks[u]
        for v in g.adj[u]:
            if v < u:
                continue
            if (mu & g.masks[v]).bit_count() >= similar_threshold:
                similar[u].append(v)
                similar[v].append(u)
    dense = [len(similar[v]) >= similar_threshold for v in range(g.n)]

    # base cliques = similarity components over dense nodes, size-filtered
    base: list[list[int]] = []
    visited = [False] * g.n
    for root in range(g.n):
        if visited[root] or not dense[root]:
            continue
        stack = [root]
        visited[root] = True
        comp = []
        while stack:
            x = stack.pop()
            comp.append(x)
            for y in similar[x]:
                if dense[y] and not visited[y]:
                    visited[y] = True
                    stack.append(y)
        if (1 - epsilon) * delta <= len(comp) <= (1 + 3 * epsilon) * delta:
            base.append(sorted(comp))

    base_masks = [mask_of(c) for c in base]
    in_base = 0
    for mask in base_masks:
        in_base |= mask

    # augmentation: leftover nodes with >= (1-4eps)*delta neighbors in some base
    audit_threshold = (1 - 4 * epsilon) * delta
    extras: list[list[int]] = [[] for _ in base]
    sparse_nodes: list[int] = []
    for v in range(g.n):
        if (in_base >> v) & 1:
            continue
        best_idx, best_count = -1, -1
        for idx, mask in enumerate(base_masks):
            count = (g.masks[v] & mask).bit_count()
            if count > best_count:
                best_idx, best_count = idx, count
        if best_idx >= 0 and best_count >= max(audit_threshold, 1):
            extras[best_idx].append(v)
        else:
            sparse_nodes.append(v)

    cliques = tuple(frozenset(c) | frozenset(e) for c, e in zip(base, extras))
    acd = AlmostCliqueDecomposition.build(epsilon, frozenset(sparse_nodes), cliques, g.n)
    report = verify_acd(g, acd)
    if not report.ok:
        raise AcdVerificationError(
            f"ACD verification failed at eps={epsilon}: {report.summary()}",
            report,
            phase="acd",
        )
    return acd


def verify_acd(g: Graph, acd: AlmostCliqueDecomposition) -> PropertyReport:
    eps = acd.epsilon
    delta = g.delta
    report = PropertyReport(epsilon=eps)

    sparse_floor = C_SPARSE * eps * eps * delta
    measured_sparsity = {}
    for v in sorted(acd.sparse):
        zeta = sparsity(g, v)
        measured_sparsity[v] = zeta
        if zeta < sparse_floor:
            report.add("1_sparse_nodes_sparse", f"node {v}: zeta={zeta} < {sparse_floor}")
    report.measured["sparse_zeta"] = measured_sparsity

    low, high = (1 - eps) * delta, (1 + 3 * eps) * delta
    for idx, clique in enumerate(acd.cliques):
        if not low <= len(clique) <= high:
            report.add("2_clique_size", f"AC {idx}: |C|={len(clique)} outside [{low},{high}]")

    inside_floor = (1 - 4 * eps) * delta
    for idx, clique in enumerate(acd.cliques):
        cmask = acd.clique_masks[idx]
        for v in sorted(clique):
            inside = (g.masks[v] & cmask).bit_count()
            if inside < inside_floor:
                report.add(
                    "3_member_inside_degree",
                    f"AC {idx} node {v}: {inside} inside neighbors < {inside_floor}",
                )

    outside_cap = (1 - 2 * eps) * delta
    for idx, clique in enumerate(acd.cliques):
        cmask = acd.clique_masks[idx]
        outside = set()
        for v in clique:
            outside.update(g.adj[v])
        for u in sorted(outside - set(clique)):
            count = (g.masks[u] & cmask).bit_count()
            if count > outside_cap:
                report.add(
                    "4_outsider_cap",
                    f"node {u} has {count} neighbors in AC {idx} > {outside_cap}",
                )
    return report


def obs22_check(g: Graph, acd: AlmostCliqueDecomposition) -> PropertyReport:
    """Anti-degree <= 7*eps*delta and outside degree <= 4*eps*delta per AC member."""
    eps = acd.epsilon
    delta = g.delta
    report = PropertyReport(epsilon=eps)
    a_cap = 7 * eps * delta
    e_cap = 4 * eps * delta
    for idx, clique in enumerate(acd.cliques):
        for v in sorted(clique):
            a = anti_degree(g, acd, v)
            e = outside_degree(g, acd, v)
            if a > a_cap:
                report.add("anti_degree", f"AC {idx} node {v}: a={a} > {a_cap}")
            if e > e_cap:
                report.add("outside_degree", f"AC {idx} node {v}: e={e} > {e_cap}")
    return report
