"""Almost-clique decomposition: centralized construction plus contract checks.

The construction is a stand-in for the cited distributed algorithm; what the
rest of the pipeline relies on are the four verified properties:

  (1) sparse nodes have sparsity >= C_SPARSE * eps^2 * delta,
  (2) (1-eps)*delta <= |C_i| <= (1+3eps)*delta,
  (3) members have >= (1-4eps)*delta neighbors inside their own AC,
  (4) outsiders have <= (1-2eps)*delta neighbors inside any AC.

(2) and (3) imply Observation 2.2 at the integer bounds of `Thresholds`: a
member has at most floor(7eps*delta) - 1 non-neighbours in its AC and at most
floor(4eps*delta) neighbours outside it, so it needs no check of its own.

compute_acd builds a candidate via a similarity graph (two adjacent nodes are
similar when they share (1-eps')*delta neighbors), then augments: any
leftover node with (1-4eps)*delta neighbors in a base clique joins it. A
failed verification raises rather than forcing a decomposition.

One common-neighbour pass (`common_neighbour_pass`: one mask AND per edge,
or a triangle listing on a graph that keeps no masks) feeds both the
similarity graph and property (1); run_pipeline hands it to compute_acd,
and either function called on its own runs it. Property (4) and the
specials count each AC's outsiders once (`AlmostCliqueDecomposition.outsiders`).
Past that pass, the construction and the checks read the n-bit masks
(`Graph.masks`) of AC members and of their neighbours only, so a graph that
keeps no masks builds just those.

Every bound above is read from `thresholds.Thresholds`, which settles each one
as an exact integer, so the checks compare integer counts only; property (1)
compares the missing pairs `binom(delta, 2) - edges inside N(v)` (sparsity
times delta) with `missing_min`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

from .errors import AcdVerificationError, BrooksSimError
from .graph_core import Graph, common_neighbour_pass, mask_of
from .thresholds import Thresholds

# Desk-scale ceiling; the classical analysis assumes < 1/20, but small-delta
# instances only decompose at larger values (up to 1/4 stays workable).
EPSILON_CEILING = Fraction(1, 4)


@dataclass(frozen=True)
class AlmostCliqueDecomposition:
    epsilon: Fraction
    sparse: frozenset[int]
    cliques: tuple[frozenset[int], ...]

    @cached_property
    def clique_masks(self) -> tuple[int, ...]:
        return tuple(mask_of(c) for c in self.cliques)

    def outsiders(self, g: Graph, idx: int) -> list[tuple[int, int]]:
        """`outsider_counts(g, self, idx)`, kept for the graph last asked about."""
        if self.__dict__.get("_outsiders_of") is not g:  # not fields: eq and repr skip them
            self.__dict__.update(_outsiders_of=g, _outsiders={})
        counts = self.__dict__["_outsiders"]
        if idx not in counts:
            counts[idx] = outsider_counts(g, self, idx)
        return counts[idx]

    @staticmethod
    def build(
        epsilon: Fraction, sparse: frozenset[int], cliques: tuple[frozenset[int], ...], n: int
    ) -> "AlmostCliqueDecomposition":
        owner = [-1] * n
        for idx, clique in enumerate(cliques):
            if not clique:
                raise BrooksSimError(f"empty almost-clique at index {idx}", phase="acd")
            for v in clique:
                if owner[v] != -1:
                    raise BrooksSimError(f"node {v} in two almost-cliques", phase="acd")
                owner[v] = idx
        for v in sparse:
            if owner[v] != -1:
                raise BrooksSimError(f"node {v} both sparse and dense", phase="acd")
        covered = len(sparse) + sum(len(c) for c in cliques)
        if covered != n or any(m == -1 and v not in sparse for v, m in enumerate(owner)):
            raise BrooksSimError("sparse set and almost-cliques do not partition V", phase="acd")
        return AlmostCliqueDecomposition(epsilon, sparse, cliques)


@dataclass
class PropertyReport:
    """Per-property violation lists; empty everywhere means the contract holds."""

    violations: dict[str, list[str]] = field(default_factory=dict)

    def add(self, prop: str, message: str) -> None:
        self.violations.setdefault(prop, []).append(message)

    @property
    def ok(self) -> bool:
        return not any(self.violations.values())

    def summary(self) -> str:
        if self.ok:
            return "all properties hold"
        return "; ".join(f"{k}: {len(v)} violations" for k, v in sorted(self.violations.items()))


def check_epsilon(epsilon: Fraction | str) -> Fraction:
    """epsilon as a Fraction; a config error unless it parses and lies in
    (0, EPSILON_CEILING]."""
    try:
        value = Fraction(epsilon)
    except (TypeError, ValueError, ZeroDivisionError, OverflowError):
        raise BrooksSimError(
            f"epsilon must be a fraction, got {epsilon!r}", phase="config"
        ) from None
    if not 0 < value <= EPSILON_CEILING:
        raise BrooksSimError(f"epsilon {value} outside (0, {EPSILON_CEILING}]", phase="config")
    return value


def compute_acd(
    g: Graph, epsilon: Fraction | str, common: tuple[list[list[int]], list[int]] | None = None
) -> AlmostCliqueDecomposition:
    epsilon = check_epsilon(epsilon)
    delta = g.delta
    if delta < 3:
        raise BrooksSimError(f"compute_acd needs delta >= 3, got {delta}", phase="precondition")
    t = Thresholds.of(epsilon, delta)

    similar, inside_twice = common or common_neighbour_pass(g, t.similar_min)
    dense = [len(similar[v]) >= t.similar_min for v in range(g.n)]

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
        if t.size_min <= len(comp) <= t.size_max:
            base.append(sorted(comp))

    # augmentation: a node in no base with >= inside_min neighbours in some
    # base joins the first base holding the most of them; only a node next to
    # a base can, so no other node's mask is read; a base that owns none of
    # its neighbours would count 0, so only those that own one are counted
    owner = {v: idx for idx, c in enumerate(base) for v in c}
    placed = owner.keys()
    base_masks = [mask_of(c) for c in base]
    extras: list[list[int]] = [[] for _ in base]
    for v in range(g.n):
        if v in owner or placed.isdisjoint(g.adj[v]):
            continue
        mask = g.masks[v]
        near = sorted(set(map(owner.get, g.adj[v])) - {None})
        counts = [(mask & base_masks[idx]).bit_count() for idx in near]
        best = max(counts)
        if best >= max(t.inside_min, 1):
            extras[near[counts.index(best)]].append(v)

    cliques = tuple(frozenset(c) | frozenset(e) for c, e in zip(base, extras))
    sparse = frozenset(range(g.n)).difference(*cliques)
    acd = AlmostCliqueDecomposition.build(epsilon, sparse, cliques, g.n)
    report = verify_acd(g, acd, inside_twice)
    if not report.ok:
        raise AcdVerificationError(
            f"ACD verification failed at eps={epsilon}: {report.summary()}",
            report,
            phase="acd",
        )
    return acd


def outsider_counts(g: Graph, acd: AlmostCliqueDecomposition, idx: int) -> list[tuple[int, int]]:
    """(u, |N(u) & C|) for every node u outside AC idx with a neighbor in it, by id."""
    clique = acd.cliques[idx]
    cmask, masks = acd.clique_masks[idx], g.masks
    around: set[int] = set()
    for v in clique:
        around.update(g.adj[v])
    return [(u, (masks[u] & cmask).bit_count()) for u in sorted(around - clique)]


def verify_acd(
    g: Graph, acd: AlmostCliqueDecomposition, inside_twice: list[int] | None = None
) -> PropertyReport:
    """Check the four properties. `inside_twice[v]` is twice the number of
    edges inside N(v), as `common_neighbour_pass` sums it; without it the
    pass runs here."""
    t = Thresholds.of(acd.epsilon, g.delta)
    if inside_twice is None:
        inside_twice = common_neighbour_pass(g, t.similar_min)[1]
    report = PropertyReport()
    pairs = g.delta * (g.delta - 1) // 2
    for v in sorted(acd.sparse):
        missing = pairs - inside_twice[v] // 2
        if missing < t.missing_min:
            report.add(
                "1_sparse_nodes_sparse", f"node {v}: {missing} missing pairs < {t.missing_min}"
            )

    for idx, clique in enumerate(acd.cliques):
        if not t.size_min <= len(clique) <= t.size_max:
            bounds = f"[{t.size_min},{t.size_max}]"
            report.add("2_clique_size", f"AC {idx}: |C|={len(clique)} outside {bounds}")
        cmask = acd.clique_masks[idx]
        for v in sorted(clique):
            inside = (g.masks[v] & cmask).bit_count()
            if inside < t.inside_min:
                report.add(
                    "3_member_inside_degree",
                    f"AC {idx} node {v}: {inside} inside neighbors < {t.inside_min}",
                )
        for u, count in acd.outsiders(g, idx):
            if count > t.outsider_max:
                report.add(
                    "4_outsider_cap",
                    f"node {u} has {count} neighbors in AC {idx} > {t.outsider_max}",
                )
    return report

