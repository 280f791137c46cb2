"""Round-synchronous simulator of the randomized colour trial (Johansson,
"Simple distributed Delta+1-coloring of graphs", IPL 1999), with bit
accounting. Even rounds try: a live node drops the colours its neighbours
just kept and, with its activation probability, broadcasts a uniform colour
of what is left. Odd rounds resolve: it keeps that colour if no neighbour
tried the same one, broadcasts it and halts. A trial cap, the same for every
node, halts the live nodes at the next try round before any palette check.

`run_protocol` resolves rounds by colour class instead of delivering
messages: a try round writes each live node's candidate (or None) into one
array, and the resolve round compares a candidate with the neighbours'
entries, which are exactly the TRY messages its inbox would hold. A kept
colour sets a bit in each neighbour's `blocked` int, which the neighbour
removes from its palette at its next try round, as the KEEP messages would
make it. A broadcast from a node with neighbours counts one message per
neighbour, encoded as 2 tag bits plus `value_bits` payload bits; the strict
budget checks that size and `max_message_bits` records the largest (all the
CONGEST bound needs).

Every random bit of a run is a blake2b-64 digest of little-endian signed
64-bit ints, read little-endian. Node v draws the digest of
(seed, v, round, 0) to activate and of (seed, v, round, 1) for its colour,
so a run is a pure function of its inputs and a node that draws nothing
(activation 0) moves no other node's draws. blake2b is a streaming hash:
`run_protocol` checks the seed and primes one state with it at entry,
copies that state and adds (v, round) once per node that draws in a try
round, then finishes a copy with tag 0 and the state itself with tag 1.
`keyed(*parts)` hashes its packed parts at once and gives the same bytes;
it draws the pipeline's attempt seed, `keyed(seed, attempt) >> 2`, and
each instance's, `keyed(attempt_seed, plan index) >> 2`, and is the
reference the tests check the engine's draws against. blake2b comes from
`_blake2`, the module CPython's `hashlib` takes it from, so the package
never loads OpenSSL's libcrypto.
"""

from __future__ import annotations

import struct
from _blake2 import blake2b
from dataclasses import dataclass
from typing import Sequence

from .errors import MessageSizeViolation, RoundLimitExceeded

TAG_BITS = 2

Adjacency = Sequence[Sequence[int]]

_PACKERS = {k: struct.Struct(f"<{k}q").pack for k in (2, 4)}
_PACK_ONE = struct.Struct("<q").pack
_ACTIVATE, _COLOUR = _PACK_ONE(0), _PACK_ONE(1)

# Initialised once and never updated: each `keyed` call hashes a copy of it.
_BLAKE2B_64 = blake2b(digest_size=8)


def keyed(*parts: int) -> int:
    """64 pseudo-random bits: the little-endian blake2b-64 of the parts packed
    as little-endian signed 64-bit ints (2 or 4 of them)."""
    h = _BLAKE2B_64.copy()
    h.update(_PACKERS[len(parts)](*parts))
    return int.from_bytes(h.digest(), "little")


@dataclass
class RoundMetrics:
    rounds_elapsed: int = 0
    messages_sent: int = 0
    max_message_bits: int = 0

    def merge(self, other: "RoundMetrics") -> None:
        self.rounds_elapsed += other.rounds_elapsed
        self.messages_sent += other.messages_sent
        self.max_message_bits = max(self.max_message_bits, other.max_message_bits)


def run_protocol(
    adj: Adjacency,
    palettes: Sequence[Sequence[int]],
    activation: Sequence[float],
    seed: int,
    max_rounds: int,
    *,
    trials: int | None = None,
    value_bits: int = 1,
    strict_bit_budget: int | None = None,
    phase: str | None = None,
) -> tuple[list[int | None], RoundMetrics]:
    """Run trial rounds until every node halts or max_rounds is hit.

    `adj[v]` lists v's neighbours (`Graph.adj` or `ListInstance.adj`),
    `palettes[v]` its colours (ints >= 0) in ascending order (nodes may
    share one list; it is never mutated) and `activation[v]` its try
    probability. `trials` caps the try rounds (None: until coloured).
    Returns each node's kept colour or None, plus metrics. Raises
    RoundLimitExceeded naming the nodes still live, MessageSizeViolation in
    strict mode when a broadcast overflows the budget, ValueError when a
    colour overflows `value_bits` or `seed` is not a signed 64-bit int, and
    AssertionError when a node that may still try has no colour left.
    """
    n = len(adj)
    if len(palettes) != n or len(activation) != n:
        raise ValueError(f"need {n} palettes and activations: {len(palettes)}, {len(activation)}")
    if max_rounds < 1:
        raise ValueError("max_rounds must be >= 1")
    if isinstance(seed, bool) or not isinstance(seed, int) or not -(1 << 63) <= seed < 1 << 63:
        raise ValueError(f"seed must be a signed 64-bit int, got {seed!r}")
    seeded = blake2b(_PACK_ONE(seed), digest_size=8)
    pack_key = _PACKERS[2]
    from_bytes = int.from_bytes
    metrics = RoundMetrics()
    bits = TAG_BITS + value_bits
    value_limit = 1 << value_bits
    over_budget = strict_bit_budget is not None and bits > strict_bit_budget
    available = list(palettes)  # replaced by a filtered copy once a colour is blocked
    blocked = [0] * n  # bit c: a neighbour kept colour c since v's last try round
    cand: list[int | None] = [None] * n  # colour tried in the last try round
    colors: list[int | None] = [None] * n
    live = list(range(n))
    trials_left = trials
    sent = 0
    for round_no in range(max_rounds):
        if not live:
            break
        metrics.rounds_elapsed += 1
        if round_no % 2 == 0:
            if trials_left == 0:
                live = []
                continue
            if trials_left is not None:
                trials_left -= 1
            for v in live:
                avail = available[v]
                if blocked[v]:
                    mask = blocked[v]
                    avail = available[v] = [c for c in avail if not mask >> c & 1]
                    blocked[v] = 0
                if not avail:
                    raise AssertionError("palette exhausted despite deg+1 invariant")
                c = None
                p = activation[v]
                if p > 0:  # with p = 0 the activation draw cannot succeed
                    state = seeded.copy()
                    state.update(pack_key(v, round_no))
                    draw = state.copy()
                    draw.update(_ACTIVATE)
                    # 53-bit uniform activation draw
                    if (from_bytes(draw.digest(), "little") >> 11) / (1 << 53) < p:
                        state.update(_COLOUR)
                        c = avail[(from_bytes(state.digest(), "little") * len(avail)) >> 64]
                        nbrs = adj[v]  # an isolated node sends, and checks, nothing
                        if nbrs and not 0 <= c < value_limit:
                            raise ValueError(f"node {v}: value {c} overflows {value_bits} bits")
                        if nbrs and over_budget:
                            raise MessageSizeViolation(v, bits, strict_bit_budget, phase=phase)
                        sent += len(nbrs)
                cand[v] = c
            continue
        # A KEEP repeats the checked TRY value to the same neighbours. A
        # keeper's entry in `cand` goes stale, but a neighbour that tries
        # again has that colour blocked, so it can never match.
        block = trials_left is None or trials_left > 0
        still = []
        for v in live:
            c = cand[v]
            nbrs = adj[v]
            if c is None or c in map(cand.__getitem__, nbrs):
                still.append(v)
                continue
            colors[v] = c
            sent += len(nbrs)
            if block and nbrs:
                bit = 1 << c
                for u in nbrs:
                    blocked[u] |= bit
        live = still
    if live:
        pending = tuple(live)
        raise RoundLimitExceeded(
            f"{len(pending)} nodes had not halted after {max_rounds} rounds",
            pending,
            phase=phase,
        )
    metrics.messages_sent = sent
    metrics.max_message_bits = bits if sent else 0
    return colors, metrics


def congest_budget(n: int, c: int) -> int:
    """The CONGEST message budget c * ceil(log2 n) bits, at least c."""
    return c * max(1, (n - 1).bit_length())


def color_value_bits(delta: int) -> int:
    """Bits for one color in [delta]."""
    return max(1, (delta - 1).bit_length())
