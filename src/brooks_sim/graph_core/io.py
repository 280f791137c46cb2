"""Graph text format.

Line 1: "n m". Then m lines "u v" with 0 <= u < v < n. Lines starting with
'#' are ignored anywhere in the file; a `# key=value` line is a header hint.
UTF-8, LF. Non-simple input is rejected with the offending line number.

The loader opens the file once and checks each line as it reads it, with a
set of the edges read so far to catch a repeat, so the first offending line
raises GraphFormatError: a bad line, a self-loop, an id out of range or a
repeated edge. A line that passes is appended to both ends' neighbour lists,
through one list of ids so that the entries share one int object per node,
and the lists become the Graph with no second check. A missing header or an edge
count that differs from the header's raises it after the last line. Invalid
UTF-8 raises GraphFormatError too, with no line number: the text is decoded
in chunks, so the lines before the bad byte in its chunk are never read.
"""

from __future__ import annotations

import os
from typing import Mapping

from ..errors import BrooksSimError, GraphFormatError
from .graph import Graph


def load_graph_with_header(path: str | os.PathLike) -> tuple[Graph, dict[str, str]]:
    """Load a graph plus any `# key=value` comment hints (family, delta, ...)."""
    header: dict[str, str] = {}
    n = m = None
    adj: list[list[int]] = []
    seen: set[int] = set()
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
                    adj = [[] for _ in range(n)]
                    ids = list(range(n))  # the entries share one int per id
                    continue
                try:
                    u, v = map(int, parts)
                except ValueError:
                    bad = "expected edge 'u v'" if len(parts) != 2 else "non-integer edge"
                    raise GraphFormatError(bad, line=lineno) from None
                key = u * n + v  # one int per edge, unique where 0 <= u < v < n
                if 0 <= u < v < n and key not in seen:
                    seen.add(key)
                    adj[u].append(ids[v])
                    adj[v].append(ids[u])
                elif u == v:
                    raise GraphFormatError(f"self-loop ({u},{v})", line=lineno)
                elif 0 <= u < v < n:
                    raise GraphFormatError(f"duplicate edge ({u},{v})", line=lineno)
                else:
                    raise GraphFormatError(f"edge ({u},{v}) violates 0 <= u < v < n", line=lineno)
        except UnicodeDecodeError as exc:
            raise GraphFormatError(f"invalid UTF-8 ({exc.reason})") from None
    if n is None:
        raise GraphFormatError("empty file, no 'n m' header", line=1)
    if len(seen) != m:
        raise GraphFormatError(f"header declared m={m} but found {len(seen)} edges")
    del seen  # not held while Graph freezes the neighbour lists
    return Graph._from_neighbour_lists(adj), header


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


def save_graph(g: Graph, path: str | os.PathLike, header: Mapping[str, str] | None = None) -> None:
    """Write canonical form: sorted edges, LF endings, optional hint comments.
    A hint the loader would not read back unchanged raises BrooksSimError:
    an empty key, whitespace or '=' in a key, a line break in a value, or a
    value with whitespace at either end."""
    for key, value in (header or {}).items():
        bad_key = key.split() != [key] or "=" in key
        if bad_key or value != value.strip() or "\n" in value or "\r" in value:
            raise BrooksSimError(f"hint {key!r}={value!r} would not read back", phase="config")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        if header:
            for key in sorted(header):
                fh.write(f"# {key}={header[key]}\n")
        fh.write(f"{g.n} {g.m}\n")
        for u, v in g.edges():
            fh.write(f"{u} {v}\n")
