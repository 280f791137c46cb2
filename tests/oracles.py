"""Ground-truth reference code the tests compare the package against.

Each oracle recomputes from scratch what the package keeps incrementally or
decides by construction:

- `is_k_colorable` is an exact k-colorability search (highest-degree-first
  order, forward palette pruning, canonical new-color symmetry breaking) over
  adjacency bitmasks, so a caller can check a graph without building a
  `Graph`; `is_k_colorable_fast` tries a largest-first greedy coloring first;
  `neighbour_masks` lists a graph's n masks, read node by node, so it
  serves a graph that keeps its masks and one that builds each on its
  first read alike;
- `list_instance` builds a `ListInstance` from unit-index edges and colour
  lists, and `recount_instance` recounts from G and the colour list the
  adjacency and the palettes, as ascending colour tuples, that
  `build_instance` must give a set of units;
- `solve_greedy_oracle` and `validate_assignment` solve and check a
  (deg+1)-list instance sequentially, on the colour list of each palette
  mask (`colours_of`);
- `measure_slack` recounts a node's slack from the color array alone;
- `missing_pairs` counts the pairs N(v) lacks to be a delta-clique node by
  node, one mask AND per neighbour, as the reference for the sums of
  `graph_core.common_neighbour_pass` and property (1) of `verify_acd`;
- `is_simplicial` tests "N(v) is a clique" pair by pair with `has_edge`,
  the reference for the pass sums' d(d-1) rule and for the sorted-tuple
  scan of `graph_core.contains_delta_plus_one_clique`;
- `observation_22_violations` counts each AC member's anti-degree and
  outside degree with sets and compares them with Observation 2.2's exact
  bounds 7*eps*delta and 4*eps*delta, which `acd.verify_acd` leaves to its
  properties (2) and (3);
- `acd_cliques_all_bases` builds the almost-cliques of `compute_acd` with
  the augmentation counting every base for every candidate node;
- `sequential_graph` is the edge-by-edge `Graph` constructor, with a set of
  seen edges, that `Graph(n, edges)` must match in adjacency, masks, edge
  count, max degree and the `GraphInvariantError` it raises;
- `scan_graph_file` is the line-by-line graph file reader, with a set of
  seen edges, that `graph_core.load_graph_with_header` must match in graph,
  header hints and the message and line of the `GraphFormatError` it
  raises, a line with a non-ASCII character, '+' or '_' failing as a
  non-integer one; on invalid UTF-8 it lets the `UnicodeDecodeError` through;
- `connected_graphs` lists one edge list per isomorphism class of the
  connected graphs on n nodes, in the labelling `canonical_edges` gives
  (degrees ascending, then the least sorted edge list);
- `hidden_in_prism` hides a small graph in a large triangle-free one, so
  that the graph keeps no masks;
- `rook_graph`, `circulant_graph` and `cycle_complement` build the
  Delta-regular, Delta-colorable graphs of the structured corpus, and
  `perturbed_graph` refills a graph to Delta after removing a few edges;
- `trial_by_messages` runs the colour trial the way `sim_engine.run_protocol`
  is specified, as per-node `TrialProgram`s that exchange TRY and KEEP
  messages through per-receiver inboxes (`run_message_protocol`); it takes
  the engine's palette masks and keeps each as an ascending list, which it
  filters and indexes as the specification says, and the engine must match
  it in colours, metrics and errors.

Bad arguments raise `ValueError`, except in `sequential_graph` and
`scan_graph_file`. Only the standard library and the package itself are
imported.
"""

from __future__ import annotations

import functools
import itertools
import os
import random
from fractions import Fraction
from typing import Iterable, Sequence

from brooks_sim.errors import (
    GraphFormatError,
    GraphInvariantError,
    MessageSizeViolation,
    PaletteExhausted,
    RoundLimitExceeded,
)
from brooks_sim.graph_core import Graph, common_neighbour_pass, mask_of
from brooks_sim.listcolor import ListInstance
from brooks_sim.sim_engine import TAG_BITS, RoundMetrics, keyed
from brooks_sim.thresholds import Thresholds

ORACLE_NODE_LIMIT = 20


def _bits(mask: int) -> Iterable[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def colours_of(mask: int) -> list[int]:
    """The ascending colours of a palette mask."""
    return list(_bits(mask))


def _largest_first(masks: Sequence[int]) -> list[int]:
    return sorted(range(len(masks)), key=lambda v: (-masks[v].bit_count(), v))


def is_k_colorable(masks: Sequence[int], k: int) -> bool:
    """Exact decision by exhaustive search on the graph whose node v has
    neighbour bitmask masks[v]; limited to n <= ORACLE_NODE_LIMIT."""
    n = len(masks)
    if n > ORACLE_NODE_LIMIT:
        raise ValueError(f"is_k_colorable limited to n <= {ORACLE_NODE_LIMIT}, got {n}")
    if k < 0:
        raise ValueError("k must be >= 0")
    if n == 0:
        return True
    if k == 0:
        return False
    if not any(masks):
        return True
    if k == 1:
        return False

    order = _largest_first(masks)
    pos = [0] * n
    for i, v in enumerate(order):
        pos[v] = i
    # positions of each node's neighbours that come later in the order
    later = [
        sorted(p for p in (pos[u] for u in _bits(masks[v])) if p > i)
        for i, v in enumerate(order)
    ]

    avail = [(1 << k) - 1] * n  # avail[i]: colors not yet taken by earlier neighbors

    def backtrack(i: int, used: int) -> bool:
        if i == n:
            return True
        # canonical symmetry breaking: at most one brand-new color is tried
        trial_mask = avail[i] & ((1 << min(used + 1, k)) - 1)
        while trial_mask:
            low = trial_mask & -trial_mask
            c = low.bit_length() - 1
            trial_mask ^= low
            touched = []
            dead = False
            for j in later[i]:
                if avail[j] & low:
                    avail[j] ^= low
                    touched.append(j)
                    if avail[j] == 0:
                        dead = True
                        break
            if not dead and backtrack(i + 1, max(used, c + 1)):
                return True
            for j in touched:
                avail[j] |= low
        return False

    return backtrack(0, 0)


def greedy_upper_bound(masks: Sequence[int]) -> int:
    """Colors used by largest-first greedy; a cheap certificate when <= k."""
    classes: list[int] = []  # node bitmask of each color class
    for v in _largest_first(masks):
        for c, members in enumerate(classes):
            if not members & masks[v]:
                classes[c] |= 1 << v
                break
        else:
            classes.append(1 << v)
    return len(classes)


def is_k_colorable_fast(masks: Sequence[int], k: int) -> bool:
    """Greedy fast path, falling back to the exact search."""
    if k >= 2 and any(masks) and greedy_upper_bound(masks) <= k:
        return True
    return is_k_colorable(masks, k)


def list_instance(
    units: Sequence[tuple[int, ...]],
    edges: Iterable[tuple[int, int]],
    palettes: Iterable[Iterable[int]],
    *,
    delta: int,
    name: str = "t",
) -> ListInstance:
    """A `ListInstance` over `units` whose unit-index pairs in `edges` are
    adjacent, in the form `build_instance` gives: sorted neighbour tuples
    and one mask per colour list."""
    nbrs: list[set[int]] = [set() for _ in units]
    for i, j in edges:
        nbrs[i].add(j)
        nbrs[j].add(i)
    return ListInstance(
        name,
        delta,
        tuple(units),
        tuple(tuple(sorted(a)) for a in nbrs),
        tuple(mask_of(p) for p in palettes),
    )


def recount_instance(
    g: Graph, color: Sequence[int | None], delta: int, units: Sequence[tuple[int, ...]]
) -> tuple[tuple[tuple[int, ...], ...], tuple[tuple[int, ...], ...]]:
    """The `(adj, palettes)` of the instance over `units` (sorted, as
    `build_instance` orders them), recounted pair by pair from G's edges
    and the colour list alone."""
    adj = tuple(
        tuple(
            j
            for j, other in enumerate(units)
            if j != i and any(g.has_edge(v, w) for v in unit for w in other)
        )
        for i, unit in enumerate(units)
    )
    palettes = []
    for unit in units:
        used = {color[w] for v in unit for w in range(g.n) if g.has_edge(v, w)}
        palettes.append(tuple(c for c in range(delta) if c not in used))
    return adj, tuple(palettes)


def solve_greedy_oracle(instance) -> dict[tuple[int, ...], int]:
    """Sequential greedy over a `ListInstance` in unit order; the deg+1
    property guarantees a free color at every step."""
    colors: list[int | None] = [None] * len(instance.units)
    for idx, nbrs in enumerate(instance.adj):
        taken = {colors[j] for j in nbrs if colors[j] is not None}
        free = [c for c in colours_of(instance.palettes[idx]) if c not in taken]
        if not free:
            raise ValueError(f"{instance.name}: unit {instance.units[idx]} has no free color")
        colors[idx] = free[0]
    return dict(zip(instance.units, colors))


def validate_assignment(instance, assignment: dict[tuple[int, ...], int]) -> bool:
    """Total, in-palette and proper with respect to the instance adjacency."""
    if set(assignment) != set(instance.units):
        return False
    for unit, palette in zip(instance.units, instance.palettes):
        if assignment[unit] not in colours_of(palette):
            return False
    return all(
        assignment[unit] != assignment[instance.units[j]]
        for unit, nbrs in zip(instance.units, instance.adj)
        for j in nbrs
    )


def measure_slack(g: Graph, coloring, v: int, subgraph_nodes: Iterable[int]) -> int:
    """Slack of an uncolored node in the induced subgraph, recounted from the
    color array and G alone, independently of `PartialColoring`."""
    if coloring.color[v] is not None:
        raise ValueError(f"node {v} is colored, slack undefined")
    sub = set(subgraph_nodes)
    used = {coloring.color[u] for u in g.adj[v] if coloring.color[u] is not None}
    uncolored_deg = sum(1 for u in g.adj[v] if u in sub and coloring.color[u] is None)
    return coloring.delta - len(used) - uncolored_deg


def missing_pairs(g: Graph, v: int) -> int:
    """binom(delta,2) - edges inside N(v): the pairs N(v) lacks to be a delta-clique.

    Summing |N(u) & N(v)| over u in N(v) counts each edge inside N(v) twice."""
    d = g.delta
    nmask = g.masks[v]
    inside_twice = sum((g.masks[u] & nmask).bit_count() for u in g.adj[v])
    return d * (d - 1) // 2 - inside_twice // 2


def is_simplicial(g: Graph, v: int) -> bool:
    """N(v) induces a clique: every two neighbours of v are adjacent."""
    return all(g.has_edge(x, y) for x, y in itertools.combinations(g.adj[v], 2))


def observation_22_violations(g: Graph, acd) -> list[tuple[int, int, int, int]]:
    """(AC index, node, anti-degree, outside degree) of every AC member
    with more than 7*eps*delta non-neighbours in its AC or more than
    4*eps*delta neighbours outside it."""
    eps, delta = acd.epsilon, g.delta
    bad = []
    for idx, clique in enumerate(acd.cliques):
        for v in sorted(clique):
            nbrs = set(g.adj[v])
            anti, outside = len(clique - {v} - nbrs), len(nbrs - clique)
            if anti > 7 * eps * delta or outside > 4 * eps * delta:
                bad.append((idx, v, anti, outside))
    return bad


def acd_cliques_all_bases(g: Graph, epsilon: Fraction) -> tuple[frozenset[int], ...]:
    """The almost-cliques `acd.compute_acd` builds before it verifies them,
    with its augmentation counted against every base for every node next
    to one, where `compute_acd` counts only the bases that own one of the
    node's neighbours. The bases are the similarity components, found with
    a set of seen nodes."""
    t = Thresholds.of(epsilon, g.delta)
    similar = common_neighbour_pass(g, t.similar_min)[0]
    dense = [len(row) >= t.similar_min for row in similar]
    base: list[list[int]] = []
    seen: set[int] = set()
    for root in range(g.n):
        if root in seen or not dense[root]:
            continue
        seen.add(root)
        comp, stack = [], [root]
        while stack:
            x = stack.pop()
            comp.append(x)
            fresh = [y for y in similar[x] if dense[y] and y not in seen]
            seen.update(fresh)
            stack += fresh
        if t.size_min <= len(comp) <= t.size_max:
            base.append(sorted(comp))
    placed = {v for c in base for v in c}
    base_masks = [mask_of(c) for c in base]
    extras: list[list[int]] = [[] for _ in base]
    for v in range(g.n):
        if v in placed or placed.isdisjoint(g.adj[v]):
            continue
        counts = [(g.masks[v] & b).bit_count() for b in base_masks]
        best = max(counts)
        if best >= max(t.inside_min, 1):
            extras[counts.index(best)].append(v)
    return tuple(frozenset(c) | frozenset(e) for c, e in zip(base, extras))


def sequential_graph(
    n: int, edges: Iterable[tuple[int, int]]
) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...], int, int]:
    """`(adj, masks, m, delta)` of the graph, checking each edge as it comes:
    the first edge out of range, a self-loop or seen before raises."""
    if n < 0:
        raise GraphInvariantError(f"negative node count {n}")
    seen: set[tuple[int, int]] = set()
    nbrs: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise GraphInvariantError(f"edge ({u},{v}) out of range for n={n}")
        if u == v:
            raise GraphInvariantError(f"self-loop at node {u}")
        key = (u, v) if u < v else (v, u)
        if key in seen:
            raise GraphInvariantError(f"duplicate edge ({key[0]},{key[1]})")
        seen.add(key)
        nbrs[u].append(v)
        nbrs[v].append(u)
    adj = tuple(tuple(sorted(a)) for a in nbrs)
    masks = tuple(sum(1 << w for w in a) for a in adj)
    return adj, masks, len(seen), max((len(a) for a in adj), default=0)


def scan_graph_file(path: str | os.PathLike) -> tuple[Graph, dict[str, str]]:
    """The graph and `# key=value` hints of a graph file, checking each line
    as it comes: the first offending line raises GraphFormatError, then a
    missing header or an edge count that differs from the header's."""
    header: dict[str, str] = {}
    n = m = None
    seen: set[tuple[int, int]] = set()
    edges: list[tuple[int, int]] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            if line.startswith("#"):
                body = line[1:].strip()
                if "=" in body and " " not in body.split("=", 1)[0]:
                    key, _, value = body.partition("=")
                    header[key.strip()] = value.strip()
                continue
            parts = line.split()
            # int() also takes '+', '_' and other scripts' digits, which
            # save_graph never writes; such a line fails as a non-integer one
            written = raw.isascii() and not {"+", "_"} & set(raw)
            if n is None:
                if len(parts) != 2:
                    raise GraphFormatError("expected header 'n m'", line=lineno)
                try:
                    n, m = int(parts[0]), int(parts[1])
                    if not written:
                        raise ValueError
                except ValueError:
                    raise GraphFormatError("non-integer header", line=lineno) from None
                if n < 0 or m < 0:
                    raise GraphFormatError("negative n or m", line=lineno)
                continue
            if len(parts) != 2:
                raise GraphFormatError("expected edge 'u v'", line=lineno)
            try:
                u, v = int(parts[0]), int(parts[1])
                if not written:
                    raise ValueError
            except ValueError:
                raise GraphFormatError("non-integer edge", line=lineno) from None
            if u == v:
                raise GraphFormatError(f"self-loop ({u},{v})", line=lineno)
            if not (0 <= u < v < n):
                raise GraphFormatError(f"edge ({u},{v}) violates 0 <= u < v < n", line=lineno)
            if (u, v) in seen:
                raise GraphFormatError(f"duplicate edge ({u},{v})", line=lineno)
            seen.add((u, v))
            edges.append((u, v))
    if n is None:
        raise GraphFormatError("empty file, no 'n m' header", line=1)
    if len(edges) != m:
        raise GraphFormatError(f"header declared m={m} but found {len(edges)} edges")
    return Graph(n, edges), header


def neighbour_masks(g: Graph) -> list[int]:
    """The n-bit neighbour mask of every node, in id order."""
    return [g.masks[v] for v in range(g.n)]


def complete_graph(k: int) -> Graph:
    return Graph(k, [(i, j) for i in range(k) for j in range(i + 1, k)])


def cycle_graph(k: int) -> Graph:
    return Graph(k, [(i, (i + 1) % k) for i in range(k)])


def path_graph(k: int) -> Graph:
    return Graph(k, [(i, i + 1) for i in range(k - 1)])


Edges = tuple[tuple[int, int], ...]


def canonical_edges(n: int, edges: Iterable[tuple[int, int]]) -> Edges:
    """The least sorted edge list over the relabellings of the graph that
    number its nodes by ascending degree. Isomorphic graphs have the same
    one, since an isomorphism keeps degrees; only the orders within each
    degree class are tried."""
    edges = list(edges)
    degree = [0] * n
    for u, v in edges:
        degree[u] += 1
        degree[v] += 1
    classes = [[v for v in range(n) if degree[v] == d] for d in sorted(set(degree))]
    best = None
    for orders in itertools.product(*map(itertools.permutations, classes)):
        label = {v: i for i, v in enumerate(itertools.chain.from_iterable(orders))}
        form = tuple(sorted((min(label[u], label[v]), max(label[u], label[v])) for u, v in edges))
        if best is None or form < best:
            best = form
    return best


@functools.lru_cache(maxsize=None)
def connected_graphs(n: int) -> tuple[Edges, ...]:
    """The `canonical_edges` of every connected graph on n >= 1 nodes, one
    per isomorphism class, in ascending order. Removing a leaf of a spanning
    tree leaves a connected graph on n - 1 nodes, so every class is a class
    on n - 1 nodes plus a node joined to a nonempty set of its nodes."""
    if n < 1:
        raise ValueError(f"no connected graph on {n} nodes")
    if n == 1:
        return ((),)
    found = set()
    for edges in connected_graphs(n - 1):
        for k in range(1, n):
            for joined in itertools.combinations(range(n - 1), k):
                found.add(canonical_edges(n, edges + tuple((u, n - 1) for u in joined)))
    return tuple(sorted(found))


def hidden_in_prism(edges: list[tuple[int, int]], k: int) -> Graph:
    """A k-node graph hidden, under shuffled ids, beside the
    triangle-free 3-regular prism C_200 x K_2, so the graph keeps no masks
    and its common-neighbour pass lists triangles. Delta is 3 or the hidden
    graph's, whichever is larger."""
    ring = [(i, (i + 1) % 200) for i in range(200)]
    prism = ring + [(200 + u, 200 + v) for u, v in ring] + [(i, 200 + i) for i in range(200)]
    prism += [(400 + u, 400 + v) for u, v in edges]
    ids = list(range(400 + k))
    random.Random(k).shuffle(ids)
    g = Graph(400 + k, [(ids[u], ids[v]) for u, v in prism])
    if g.small_masks:
        raise ValueError("the hidden graph made the masks fit")
    return g


def rook_graph(a: int) -> Graph:
    """K_a x K_a: node i*a + j, adjacent when in the same row or column."""
    rows = [(i * a + j, i * a + k) for i in range(a) for j in range(a) for k in range(j + 1, a)]
    cols = [(i * a + j, k * a + j) for j in range(a) for i in range(a) for k in range(i + 1, a)]
    return Graph(a * a, rows + cols)


def circulant_graph(n: int, k: int) -> Graph:
    """C_n(1..k): v adjacent to v +- 1..k mod n; the edges are distinct for 2k + 1 < n."""
    if not 2 * k + 1 < n:
        raise ValueError(f"circulant C_{n}(1..{k}) needs 2k + 1 < n")
    return Graph(n, [(v, (v + d) % n) for v in range(n) for d in range(1, k + 1)])


def cycle_complement(n: int) -> Graph:
    """The complement of the cycle 0-1-...-(n-1)-0."""
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 2, n) if v - u != n - 1])


def perturbed_graph(g: Graph, seed: int, removed: int = 3) -> Graph:
    """g with `removed` seeded edges taken out, then refilled: non-adjacent
    pairs of nodes both below g.delta are joined in a seeded order until no
    such pair is left. Degrees only grow, so one pass over the pairs that
    qualify at the start is enough. The result may have a lower max degree
    or a K_{delta+1}; callers that need neither check for them."""
    if not 0 <= removed <= g.m:
        raise ValueError(f"cannot remove {removed} of {g.m} edges")
    rng = random.Random(seed)
    edges = set(g.edges())
    edges.difference_update(rng.sample(sorted(edges), removed))
    degree = [0] * g.n
    for u, v in edges:
        degree[u] += 1
        degree[v] += 1
    low = [v for v in range(g.n) if degree[v] < g.delta]
    pairs = [(u, v) for i, u in enumerate(low) for v in low[i + 1 :] if (u, v) not in edges]
    rng.shuffle(pairs)
    for u, v in pairs:
        if degree[u] < g.delta and degree[v] < g.delta:
            edges.add((u, v))
            degree[u] += 1
            degree[v] += 1
    return Graph(g.n, sorted(edges))


TAG_TRY = 1
TAG_KEEP = 2

Message = tuple[int, int | None]


class TrialProgram:
    """Per-node trial loop: even rounds try, odd rounds resolve.

    In a try round the node drops the colors its neighbors just kept, then
    with probability p broadcasts a uniform available color; in the resolve
    round it keeps that color if no neighbor tried the same one, announces
    it and halts. `trials` caps the try rounds (None: until colored); a node
    out of trials halts at its next try round. A node that may still try
    with no colour left raises PaletteExhausted for `phase`.
    """

    __slots__ = ("available", "p", "trials", "phase", "candidate", "color", "halted")

    def __init__(
        self,
        palette: Iterable[int],
        p: float = 0.5,
        trials: int | None = None,
        phase: str | None = None,
    ):
        self.available = sorted(palette)
        self.p = p
        self.trials = trials
        self.phase = phase
        self.candidate: int | None = None
        self.color: int | None = None
        self.halted = False

    def step(self, round_no: int, inbox: list, key: tuple[int, int, int]):
        """One round; `key` is (seed, node, round): the node draws
        `keyed(*key, 0)` to activate and `keyed(*key, 1)` for its colour."""
        if round_no % 2 == 0:
            # neighbors fixed in the previous resolve round shrink the palette
            for tag, value in inbox:
                if tag == TAG_KEEP and value in self.available:
                    self.available.remove(value)
            if self.trials == 0:
                return None, True
            if not self.available:
                raise PaletteExhausted(key[1], round_no, phase=self.phase)
            if self.trials is not None:
                self.trials -= 1
            self.candidate = None
            if (keyed(*key, 0) >> 11) / (1 << 53) < self.p:  # 53-bit uniform in [0, 1)
                self.candidate = self.available[(keyed(*key, 1) * len(self.available)) >> 64]
                return (TAG_TRY, self.candidate), False
            return None, False
        if self.candidate is not None and (TAG_TRY, self.candidate) not in inbox:
            self.color = self.candidate
            return (TAG_KEEP, self.color), True
        return None, False


def run_message_protocol(
    adj,
    programs,
    seed: int,
    max_rounds: int,
    *,
    value_bits: int = 1,
    strict_bit_budget: int | None = None,
    phase: str | None = None,
):
    """Lockstep rounds with one inbox list per receiver: every non-halted
    program steps in node-id order on last round's neighbour broadcasts, and
    each broadcast is appended to every neighbour's next inbox."""
    n = len(adj)
    if len(programs) != n:
        raise ValueError(f"need one program per node: {len(programs)} != {n}")
    if max_rounds < 1:
        raise ValueError("max_rounds must be >= 1")
    metrics = RoundMetrics()
    halted = [bool(getattr(p, "halted", False)) for p in programs]
    inboxes: list[list[Message]] = [[] for _ in range(n)]
    value_limit = 1 << value_bits
    for round_no in range(max_rounds):
        if all(halted):
            return list(programs), metrics
        next_inboxes: list[list[Message]] = [[] for _ in range(n)]
        for v in range(n):
            if halted[v]:
                continue
            msg, halted[v] = programs[v].step(round_no, inboxes[v], (seed, v, round_no))
            nbrs = adj[v]
            if msg is None or not nbrs:
                continue
            value = msg[1]
            bits = TAG_BITS
            if value is not None:
                if not 0 <= value < value_limit:
                    raise ValueError(f"node {v}: value {value} overflows {value_bits} bits")
                bits += value_bits
            if strict_bit_budget is not None and bits > strict_bit_budget:
                raise MessageSizeViolation(v, bits, strict_bit_budget, phase=phase)
            if bits > metrics.max_message_bits:
                metrics.max_message_bits = bits
            metrics.messages_sent += len(nbrs)
            for u in nbrs:
                next_inboxes[u].append(msg)
        metrics.rounds_elapsed += 1
        inboxes = next_inboxes
    if not all(halted):
        pending = tuple(v for v in range(n) if not halted[v])
        raise RoundLimitExceeded(
            f"{len(pending)} nodes had not halted after {max_rounds} rounds",
            pending,
            phase=phase,
        )
    return list(programs), metrics


def trial_by_messages(adj, palettes, activation, seed, max_rounds, *, trials=None, **kwargs):
    """`sim_engine.run_protocol`'s inputs and outputs, computed by message
    delivery between `TrialProgram`s, each given its palette mask's colour
    list."""
    phase = kwargs.get("phase")
    programs = [
        TrialProgram(colours_of(pal), p, trials, phase) for pal, p in zip(palettes, activation)
    ]
    final, metrics = run_message_protocol(adj, programs, seed, max_rounds, **kwargs)
    return [prog.color for prog in final], metrics
