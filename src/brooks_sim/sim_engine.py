"""Round-synchronous message-passing simulator with bit accounting.

Execution model: in round r every non-halted node sees the messages its
neighbors broadcast in round r-1, its own state, and a private random stream,
and broadcasts at most one message to all of its neighbors. The scheduler is
sequential in node-id order, which (together with the keyed streams) makes a
run a pure function of (adjacency, programs, seed).

Messages are (tag, value) pairs with value an int in [0, 2^value_bits) or
None; their canonical encoding is 2 tag bits plus value_bits payload bits,
and that encoding is what the budget accounting measures. Only the largest
message of the whole run is recorded: that is all the CONGEST bound needs.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass
from typing import Protocol, Sequence

from .errors import MessageSizeViolation, RoundLimitExceeded

TAG_BITS = 2
TAG_TRY = 1
TAG_KEEP = 2

Message = tuple[int, int | None]
Adjacency = Sequence[Sequence[int]]


class StreamRng:
    """Deterministic per-(seed, node, round) stream.

    Draws come from blake2b over (seed, node, round, counter); activation and
    color draws therefore stay independent, and a node's randomness is
    reproducible without running the simulator.
    """

    __slots__ = ("_prefix", "_counter")

    def __init__(self, seed: int, node: int, round_no: int):
        self._prefix = struct.pack("<qqq", seed, node, round_no)
        self._counter = 0

    def _next(self) -> int:
        raw = hashlib.blake2b(
            self._prefix + struct.pack("<q", self._counter), digest_size=8
        ).digest()
        self._counter += 1
        return int.from_bytes(raw, "little")

    def uniform(self) -> float:
        """Float in [0, 1) with 53 random bits."""
        return (self._next() >> 11) / (1 << 53)

    def randrange(self, k: int) -> int:
        """Uniform int in [0, k), rejection-free (multiply-shift)."""
        if k <= 0:
            raise ValueError("randrange needs k >= 1")
        return (self._next() * k) >> 64


class NodeProgram(Protocol):
    """Per-node protocol logic. `halted` may be True before the first step."""

    halted: bool

    def step(
        self, round_no: int, inbox: list[Message], rng: StreamRng
    ) -> tuple[Message | None, bool]:
        """Return (message broadcast to every neighbor or None, halted).

        The inbox holds last round's neighbor broadcasts in sender order."""
        ...


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
    programs: Sequence[NodeProgram],
    seed: int,
    max_rounds: int,
    *,
    value_bits: int = 1,
    strict_bit_budget: int | None = None,
    phase: str | None = None,
) -> tuple[list[NodeProgram], RoundMetrics]:
    """Run lockstep rounds until every program halts or max_rounds is hit.

    `adj[v]` lists v's neighbors (`Graph.adj` or `ListInstance.adj`). Returns
    the (mutated) programs as final states plus metrics. Raises
    RoundLimitExceeded naming the nodes that had not halted, and
    MessageSizeViolation in strict mode when a message overflows the budget.
    """
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
            msg, halted[v] = programs[v].step(round_no, inboxes[v], StreamRng(seed, v, round_no))
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


def congest_budget(n: int, c: int) -> int:
    """The CONGEST message budget c * ceil(log2 n) bits, at least c."""
    return c * max(1, (n - 1).bit_length())


def color_value_bits(delta: int) -> int:
    """Bits for one color in [delta]."""
    return max(1, (delta - 1).bit_length())
