"""Graph text format.

Line 1: "n m". Then m lines "u v" with 0 <= u < v < n. Lines starting with
'#' are ignored anywhere in the file. UTF-8, LF. Non-simple input is
rejected with the offending line number.

A valid file is read in one pass that keeps the edge list and nothing
else per edge: `Graph` finds a repeated edge. On any defect the loader
reads the file again in `_raise_first_defect`, which checks it line by
line with a set of the edges seen so far, so the error names the first
offending line.
"""

from __future__ import annotations

import os
from typing import Iterable, Mapping, NoReturn

from ..errors import GraphFormatError, GraphInvariantError
from .graph import Graph


def load_graph_with_header(path: str | os.PathLike) -> tuple[Graph, dict[str, str]]:
    """Load a graph plus any `# key=value` comment hints (family, delta, ...)."""
    header: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        try:
            parsed = _read_edges(fh, header)
        except UnicodeDecodeError:
            parsed = None  # a defect on an earlier line is reported first
    if parsed is not None:
        try:
            return Graph(*parsed), header
        except GraphInvariantError:
            pass  # a repeated edge
    _raise_first_defect(path)


def _read_edges(lines: Iterable[str], header: dict[str, str]) -> tuple[int, list] | None:
    """n and the edge list, or None for a bad line, a missing header or an
    edge count that differs from the header's; `# key=value` hints go to
    `header`. Repeated edges pass."""
    n = m = None
    edges: list[tuple[int, int]] = []
    for raw in lines:
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            body = line[1:].strip()
            if "=" in body and " " not in body.split("=", 1)[0]:
                key, _, value = body.partition("=")
                header[key.strip()] = value.strip()
            continue
        try:
            u, v = map(int, line.split())
        except ValueError:  # not two ints
            return None
        if n is None:
            n, m = u, v
            if n < 0 or m < 0:
                return None
        elif 0 <= u < v < n:
            edges.append((u, v))
        else:
            return None
    if n is None or len(edges) != m:
        return None
    return n, edges


def _raise_first_defect(path: str | os.PathLike) -> NoReturn:
    """Raise GraphFormatError for the first offending line of the file, or
    for a missing header or an edge count that differs from the header's."""
    n = m = None
    count = 0
    seen: set[tuple[int, int]] = set()
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if n is None:
                if len(parts) != 2:
                    raise GraphFormatError("expected header 'n m'", line=lineno)
                try:
                    n, m = int(parts[0]), int(parts[1])
                except ValueError:
                    raise GraphFormatError("non-integer header", line=lineno) from None
                if n < 0 or m < 0:
                    raise GraphFormatError("negative n or m", line=lineno)
                continue
            if len(parts) != 2:
                raise GraphFormatError("expected edge 'u v'", line=lineno)
            try:
                u, v = int(parts[0]), int(parts[1])
            except ValueError:
                raise GraphFormatError("non-integer edge", line=lineno) from None
            if u == v:
                raise GraphFormatError(f"self-loop ({u},{v})", line=lineno)
            if not (0 <= u < v < n):
                raise GraphFormatError(f"edge ({u},{v}) violates 0 <= u < v < n", line=lineno)
            if (u, v) in seen:
                raise GraphFormatError(f"duplicate edge ({u},{v})", line=lineno)
            seen.add((u, v))
            count += 1
    if n is None:
        raise GraphFormatError("empty file, no 'n m' header", line=1)
    if count != m:
        raise GraphFormatError(f"header declared m={m} but found {count} edges")
    raise GraphFormatError("no line is at fault on a second read; did the file change?")


def save_graph(g: Graph, path: str | os.PathLike, header: Mapping[str, str] | None = None) -> None:
    """Write canonical form: sorted edges, LF endings, optional hint comments."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        if header:
            for key in sorted(header):
                fh.write(f"# {key}={header[key]}\n")
        fh.write(f"{g.n} {g.m}\n")
        for u, v in g.edges():
            fh.write(f"{u} {v}\n")
