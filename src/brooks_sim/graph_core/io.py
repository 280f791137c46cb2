"""Graph text format.

Line 1: "n m". Then m lines "u v" with 0 <= u < v < n. Lines starting with
'#' are ignored anywhere in the file. UTF-8, LF. Non-simple input is
rejected with the offending line number.
"""

from __future__ import annotations

import os
from typing import Mapping

from ..errors import GraphFormatError
from .graph import Graph


def load_graph_with_header(path: str | os.PathLike) -> tuple[Graph, dict[str, str]]:
    """Load a graph plus any `# key=value` comment hints (family, delta, ...)."""
    header: dict[str, str] = {}
    n = m = None
    edges: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
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
            edges.append((u, v))
    if n is None:
        raise GraphFormatError("empty file, no 'n m' header", line=1)
    if len(edges) != m:
        raise GraphFormatError(f"header declared m={m} but found {len(edges)} edges")
    return Graph(n, edges), header


def save_graph(g: Graph, path: str | os.PathLike, header: Mapping[str, str] | None = None) -> None:
    """Write canonical form: sorted edges, LF endings, optional hint comments."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        if header:
            for key in sorted(header):
                fh.write(f"# {key}={header[key]}\n")
        fh.write(f"{g.n} {g.m}\n")
        for u, v in g.edges():
            fh.write(f"{u} {v}\n")
