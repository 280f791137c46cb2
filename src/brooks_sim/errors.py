"""Exception types shared across the package.

Every error that the pipeline or the CLI raises names its `phase`: `config`,
`input`, `precondition`, `acd`, `classify`, `slackgen`, or the instance kind
being built. The CLI serializes it into its error object. Helpers called on
their own (`Graph`, `PartialColoring.assign`, `run_protocol` without a phase)
may leave it None. `check_int` is the one type check of an int argument.
"""

from __future__ import annotations


class BrooksSimError(Exception):
    def __init__(self, message: str, *, phase: str | None = None):
        super().__init__(message)
        self.phase = phase


def check_int(name: str, value) -> None:
    """Reject a value that is not an int, or is a bool, as a config error."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise BrooksSimError(f"{name} must be an int, got {value!r}", phase="config")


class GraphFormatError(BrooksSimError):
    """Unparseable or non-simple graph file; carries the 1-based line number."""

    def __init__(self, message: str, *, line: int | None = None):
        super().__init__(message if line is None else f"line {line}: {message}", phase="input")
        self.line = line


class GraphInvariantError(BrooksSimError):
    """Construction would violate simplicity (self-loop, duplicate, bad id)."""


class UnsupportedFamilyError(BrooksSimError):
    """Unknown generator family or unsupported (family, delta) combination."""

    def __init__(self, message: str):
        super().__init__(message, phase="config")


class ImproperColoringError(BrooksSimError):
    """Assignment would give two adjacent nodes the same color."""


class RoundLimitExceeded(BrooksSimError):
    def __init__(self, message: str, pending: tuple[int, ...], *, phase: str | None = None):
        super().__init__(message, phase=phase)
        self.pending = pending


class MessageSizeViolation(BrooksSimError):
    def __init__(self, node: int, bits: int, budget: int, *, phase: str | None = None):
        super().__init__(
            f"node {node} sent a {bits}-bit message, budget is {budget} bits", phase=phase
        )
        self.node = node
        self.bits = bits
        self.budget = budget


class PaletteExhausted(BrooksSimError):
    """A node that may still try a colour has none left: the deg+1
    invariant of its list instance does not hold."""

    def __init__(self, node: int, round_no: int, *, phase: str | None = None):
        super().__init__(
            f"node {node}: palette exhausted despite deg+1 invariant in round {round_no}",
            phase=phase,
        )
        self.node = node
        self.round_no = round_no


class ProtocolOutputError(BrooksSimError):
    """`run_protocol` returned colours its caller rules out: a unit left
    uncolored after every unit halted, or a colour kept by a node that was
    not drawing. `node` is the first offending node or unit."""

    def __init__(self, message: str, node, *, phase: str | None = None):
        super().__init__(f"{message}: {node}", phase=phase)
        self.node = node


class AcdVerificationError(BrooksSimError):
    """The computed decomposition fails one of the four contract properties."""

    def __init__(self, message: str, report=None, *, phase: str | None = None):
        super().__init__(message, phase=phase)
        self.report = report


class PartitionViolationError(BrooksSimError):
    """A node landed in zero or two of the seven fine-partition sets."""

    def __init__(self, message: str, node: int | None = None, *, phase: str | None = None):
        super().__init__(message, phase=phase)
        self.node = node


class DegPlusOneViolation(BrooksSimError):
    """A list instance unit has |palette| <= instance degree (upstream slack failure)."""

    def __init__(self, instance_name: str, unit, palette_size: int, degree: int):
        super().__init__(
            f"{instance_name}: unit {unit} has palette {palette_size} <= degree {degree}",
            phase=instance_name,
        )
        self.unit = unit
        self.palette_size = palette_size
        self.degree = degree


class DeltaPlusOneCliquePresent(BrooksSimError):
    """Input contains a K_{delta+1}; no delta-coloring exists."""


class RetryExhausted(BrooksSimError):
    def __init__(self, message: str, records: tuple, *, phase: str | None = None):
        super().__init__(message, phase=phase)
        self.records = records  # one phases.Attempt per attempt, in order
        self.attempts = len(records)
