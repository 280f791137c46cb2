"""Graph text format.

Line 1: "n m". Then m lines "u v" with 0 <= u < v < n. Lines starting with
'#' are ignored anywhere in the file; a `# key=value` line is a header hint.
UTF-8, LF. Non-simple input is rejected with the offending line number.

The loader opens the file once and reads it in one pass, which keeps the
edge list and, beside it, each edge's line number in an array; `Graph`
finds a repeated edge. A bad line, a missing header, an edge count that
differs from the header's and a repeated edge each raise GraphFormatError.
Before it raises, a scan of the edges read so far looks for a repeated
edge, so the error names the first offending line. Invalid UTF-8 raises
GraphFormatError too, with no line number: the text is decoded in chunks,
so the lines before the bad byte in its chunk are never read.
"""

from __future__ import annotations

import os
from array import array
from typing import Mapping, NoReturn

from ..errors import GraphFormatError, GraphInvariantError
from .graph import Graph


def load_graph_with_header(path: str | os.PathLike) -> tuple[Graph, dict[str, str]]:
    """Load a graph plus any `# key=value` comment hints (family, delta, ...)."""
    header: dict[str, str] = {}
    n = m = None
    edges: list[tuple[int, int]] = []
    lines = array("L")  # lines[i] is the line number of edges[i]
    with open(path, "r", encoding="utf-8") as fh:
        try:
            for lineno, raw in enumerate(fh, start=1):
                parts = raw.split()
                if not parts:
                    continue
                if parts[0][0] == "#":
                    body = raw.strip()[1:].strip()
                    if "=" in body and " " not in body.split("=", 1)[0]:
                        key, _, value = body.partition("=")
                        header[key.strip()] = value.strip()
                    continue
                if n is None:
                    n, m = _header(parts, lineno)
                    continue
                try:
                    u, v = map(int, parts)
                except ValueError:
                    bad = "expected edge 'u v'" if len(parts) != 2 else "non-integer edge"
                    _fail(edges, lines, bad, lineno)
                if 0 <= u < v < n:
                    edges.append((u, v))
                    lines.append(lineno)
                elif u == v:
                    _fail(edges, lines, f"self-loop ({u},{v})", lineno)
                else:
                    _fail(edges, lines, f"edge ({u},{v}) violates 0 <= u < v < n", lineno)
        except UnicodeDecodeError as exc:
            _fail(edges, lines, f"invalid UTF-8 ({exc.reason})")
    if n is None:
        raise GraphFormatError("empty file, no 'n m' header", line=1)
    if len(edges) != m:
        _fail(edges, lines, f"header declared m={m} but found {len(edges)} edges")
    try:
        return Graph(n, edges), header
    except GraphInvariantError as exc:
        _fail(edges, lines, str(exc))  # a repeated edge, which the scan names


def _header(parts: list[str], lineno: int) -> tuple[int, int]:
    if len(parts) != 2:
        raise GraphFormatError("expected header 'n m'", line=lineno)
    try:
        n, m = int(parts[0]), int(parts[1])
    except ValueError:
        raise GraphFormatError("non-integer header", line=lineno) from None
    if n < 0 or m < 0:
        raise GraphFormatError("negative n or m", line=lineno)
    return n, m


def _fail(edges: list, lines: array, message: str, line: int | None = None) -> NoReturn:
    """Raise GraphFormatError(message, line), unless one of the edges read so
    far repeats an earlier one: that line comes first in the file."""
    seen: set[tuple[int, int]] = set()
    for edge, lineno in zip(edges, lines):
        if edge in seen:
            raise GraphFormatError(f"duplicate edge ({edge[0]},{edge[1]})", line=lineno)
        seen.add(edge)
    raise GraphFormatError(message, line=line)


def save_graph(g: Graph, path: str | os.PathLike, header: Mapping[str, str] | None = None) -> None:
    """Write canonical form: sorted edges, LF endings, optional hint comments."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        if header:
            for key in sorted(header):
                fh.write(f"# {key}={header[key]}\n")
        fh.write(f"{g.n} {g.m}\n")
        for u, v in g.edges():
            fh.write(f"{u} {v}\n")
