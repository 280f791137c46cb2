"""Round-synchronous simulator of the randomized colour trial (Johansson,
"Simple distributed Delta+1-coloring of graphs", IPL 1999), with bit
accounting. Even rounds try: a live node with no colour left fails, and
otherwise, with its activation probability, broadcasts a uniform colour of
its palette. Odd rounds resolve: it keeps that colour if no neighbour tried
the same one, broadcasts it and halts, and its neighbours strike it from
their palettes. A trial cap, the same for every node, halts the live nodes
at the next try round before any palette check.

`run_protocol` resolves rounds by colour class instead of delivering
messages. A palette is a mask with bit c for colour c. A try round writes
each live node's candidate (or None) into one array, and the resolve round
compares a candidate with the neighbours' entries, which are exactly the
TRY messages its inbox would hold. A kept colour clears its bit in the mask
of each neighbour not yet coloured, as the KEEP messages would, so a
palette has run out when its mask is 0. A broadcast from a node with
neighbours counts one message per neighbour, encoded as 2 tag bits plus
`value_bits` payload bits; the strict budget checks that size and
`max_message_bits` records the largest (all the CONGEST bound needs).

Every random bit of a run is a blake2b-64 digest of little-endian signed
64-bit ints, read little-endian. Node v draws the digest h of
(seed, v, round, 0) to activate and of (seed, v, round, 1) for its colour,
so a run is a pure function of its inputs and a node that draws nothing
(activation 0) moves no other node's draws. It activates when the 53-bit
float `(h >> 11) / 2**53` is below its probability p, which the engine
tests as `h < ceil(p * 2**53) << 11`, one integer limit per distinct p.
With k colours left it tries the set bit of rank `(h * k) >> 64` in its
mask (found bytewise via `_BYTE_BITS`), the colour an ascending list holds
at that index, so the draw does not depend on how a palette is stored.
blake2b is a streaming hash: `run_protocol` checks the seed and primes one
state with it at entry, and draws each key from a copy of that state
updated once with the packed (v, round, tag). `keyed(*parts)` hashes its
packed parts at once and gives the same bytes; it draws the pipeline's
attempt seed, `keyed(seed, attempt) >> 2`, and each instance's,
`keyed(attempt_seed, plan index) >> 2`, and is the reference the tests
check the engine's draws against. blake2b comes from `_blake2`, the module
CPython's `hashlib` takes it from, so the package never loads OpenSSL's
libcrypto.
"""

from __future__ import annotations

import math
import struct
from _blake2 import blake2b
from dataclasses import dataclass
from typing import Sequence

from .errors import MessageSizeViolation, PaletteExhausted, RoundLimitExceeded

TAG_BITS = 2

Adjacency = Sequence[Sequence[int]]

_PACKERS = {k: struct.Struct(f"<{k}q").pack for k in (2, 3, 4)}
_PACK_ONE = struct.Struct("<q").pack

_BYTE_BITS = tuple(tuple(i for i in range(8) if b >> i & 1) for b in range(256))

# Initialised once and never updated: each `keyed` call hashes a copy of it.
_BLAKE2B_64 = blake2b(digest_size=8)


def keyed(*parts: int) -> int:
    """64 pseudo-random bits: the little-endian blake2b-64 of the parts packed
    as little-endian signed 64-bit ints (2 to 4 of them)."""
    h = _BLAKE2B_64.copy()
    h.update(_PACKERS[len(parts)](*parts))
    return int.from_bytes(h.digest(), "little")


def _activation_limit(p: float) -> int:
    """The activation draw h succeeds iff h < this: `(h >> 11) / 2**53 < p`
    holds iff the integer `h >> 11` is below `ceil(p * 2**53)`, and
    `p * 2**53` is exact for a float or a Fraction."""
    if not p > 0:
        return 0
    return math.ceil(min(p, 1) * (1 << 53)) << 11


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
    palettes: Sequence[int],
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
    `palettes[v]` is its palette as a mask with bit c for colour c, and
    `activation[v]` its try probability. `trials` caps the try rounds
    (None: until coloured).
    Returns each node's kept colour or None, plus metrics. Raises
    RoundLimitExceeded naming the nodes still live, MessageSizeViolation in
    strict mode when a broadcast overflows the budget, ValueError when a
    colour overflows `value_bits` or `seed` is not a signed 64-bit int, and
    PaletteExhausted, naming the node, the round and `phase`, when a node
    that may still try has no colour left.
    """
    n = len(adj)
    if len(palettes) != n or len(activation) != n:
        raise ValueError(f"need {n} palettes and activations: {len(palettes)}, {len(activation)}")
    if max_rounds < 1:
        raise ValueError("max_rounds must be >= 1")
    if isinstance(seed, bool) or not isinstance(seed, int) or not -(1 << 63) <= seed < 1 << 63:
        raise ValueError(f"seed must be a signed 64-bit int, got {seed!r}")
    seeded = blake2b(_PACK_ONE(seed), digest_size=8)
    pack_key = _PACKERS[3]
    from_bytes = int.from_bytes
    limits = {p: _activation_limit(p) for p in set(activation)}
    limit = [limits[p] for p in activation]
    metrics = RoundMetrics()
    bits = TAG_BITS + value_bits
    value_limit = 1 << value_bits
    over_budget = strict_bit_budget is not None and bits > strict_bit_budget
    masks = list(palettes)  # a KEEP clears its colour in each live neighbour's mask
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
                mask = masks[v]
                if not mask:
                    raise PaletteExhausted(v, round_no, phase=phase)
                c = None
                if limit[v]:  # with p <= 0 the activation draw cannot succeed
                    draw = seeded.copy()
                    draw.update(pack_key(v, round_no, 0))
                    if from_bytes(draw.digest(), "little") < limit[v]:
                        draw = seeded.copy()
                        draw.update(pack_key(v, round_no, 1))
                        k = (from_bytes(draw.digest(), "little") * mask.bit_count()) >> 64
                        c = 0  # the position of the k-th set bit, a byte at a time
                        if mask & (mask + 1):  # in a mask 2**m - 1 it is k
                            row = _BYTE_BITS[mask & 255]
                            while k >= len(row):
                                k -= len(row)
                                mask >>= 8
                                c += 8
                                row = _BYTE_BITS[mask & 255]
                            k = row[k]
                        c += k
                        nbrs = adj[v]  # an isolated node sends, and checks, nothing
                        if nbrs and c >= value_limit:
                            raise ValueError(f"node {v}: value {c} overflows {value_bits} bits")
                        if nbrs and over_budget:
                            raise MessageSizeViolation(v, bits, strict_bit_budget, phase=phase)
                        sent += len(nbrs)
                cand[v] = c
            continue
        # A KEEP repeats the checked TRY value to the same neighbours. A
        # keeper's entry in `cand` goes stale, but a neighbour that tries
        # again has that colour cleared, so it can never match.
        block = trials_left is None or trials_left > 0
        still = []
        for v in live:
            c = cand[v]
            if c is None:
                still.append(v)
                continue
            nbrs = adj[v]
            for u in nbrs:
                if cand[u] == c:
                    still.append(v)
                    break
            else:
                colors[v] = c
                sent += len(nbrs)
                if block and nbrs:
                    clear = ~(1 << c)
                    for u in nbrs:
                        if colors[u] is None:  # a coloured node tries no more
                            masks[u] &= clear
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
