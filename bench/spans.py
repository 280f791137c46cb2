"""In-memory span recorder for the benchmark's traced runs.

`instrument` wraps, for the duration of a `with` block, the module-level
names that `run_pipeline` calls, so every call into a layer becomes a span
without any change to the package. Spans are kept in memory and written
once, when the run ends.
"""

from __future__ import annotations

import functools
import json
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Iterator

from brooks_sim import acd, listcolor, phases, slackgen
from brooks_sim.errors import DegPlusOneViolation
from brooks_sim.graph_core.graph import Graph

ROOT = "phases.run_pipeline"
VALIDATE = "oracle_validate.validate"


class Span:
    __slots__ = ("id", "parent", "run", "name", "start", "end", "attrs")

    def __init__(self, id: int, parent: int | None, run: int, name: str, start: float):
        self.id = id
        self.parent = parent
        self.run = run
        self.name = name
        self.start = start
        self.end = start
        self.attrs: dict = {}

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_json_dict(self) -> dict:
        return {
            "id": self.id,
            "parent": self.parent,
            "run": self.run,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "attrs": self.attrs,
        }


class Tracer:
    """Records nested spans; a span opened with no span open starts a new
    run, and every span below it carries that run's id."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._open: list[Span] = []
        self._runs = 0

    def open(self, name: str) -> Span:
        if self._open:
            parent = self._open[-1]
            span = Span(len(self.spans), parent.id, parent.run, name, time.perf_counter())
        else:
            self._runs += 1
            span = Span(len(self.spans), None, self._runs, name, time.perf_counter())
        self.spans.append(span)
        self._open.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        if self._open.pop() is not span:
            raise RuntimeError(f"span {span.name} closed out of order")

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span.to_json_dict(), sort_keys=True) + "\n")


Describe = Callable[[dict, tuple, dict, object], None]


def _traced(tracer: Tracer, fn: Callable, name: str, describe: Describe | None) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = tracer.open(name)
        result = None
        try:
            result = fn(*args, **kwargs)
            return result
        except Exception as exc:
            span.attrs["error"] = type(exc).__name__
            raise
        finally:
            tracer.close(span)
            if describe is not None:
                describe(span.attrs, args, kwargs, result)

    return wrapper


def _acd_counts(attrs, args, kwargs, result):
    if result is not None:
        attrs["cliques"] = len(result.cliques)
        attrs["sparse_nodes"] = len(result.sparse)


def _gate_verdict(attrs, args, kwargs, result):
    attrs["passed"] = result is not None and result.gate_ok


def _built(attrs, args, kwargs, result):
    attrs["kind"] = kwargs.get("name", "instance")
    attrs["units"] = len(result.units) if result is not None else 0


def _solved(attrs, args, kwargs, result):
    attrs["kind"] = args[0].name
    attrs["units"] = len(args[0].units)


def _messages(caller: str) -> Describe:
    def describe(attrs, args, kwargs, result):
        attrs["caller"] = caller
        attrs["messages"] = result[1].messages_sent if result is not None else 0

    return describe


@contextmanager
def instrument(tracer: Tracer) -> Iterator[None]:
    """Wrap each layer's entry points in spans; restore them on exit."""
    targets = (
        (phases, "contains_delta_plus_one_clique", "graph_core.kclique", None),
        (phases, "compute_acd", "acd.build", _acd_counts),
        (acd, "verify_acd", "acd.verify", None),
        (phases, "classify_acs", "classify.classify", None),
        (phases, "fine_partition", "classify.partition", None),
        (phases, "run_slack_generation_with_metrics", "slackgen.trial", None),
        (phases, "check_lemma33", "slackgen.gate", _gate_verdict),
        (phases, "build_instance", "listcolor.build", _built),
        (phases, "solve_distributed", "listcolor.solve", _solved),
        (slackgen, "run_protocol", "sim_engine.run", _messages("slackgen")),
        (listcolor, "run_protocol", "sim_engine.run", _messages("listcolor")),
        (Graph, "__init__", "graph_core.graph_init", None),
    )
    saved = []
    try:
        for owner, attr, name, describe in targets:
            fn = getattr(owner, attr)
            saved.append((owner, attr, fn))
            setattr(owner, attr, _traced(tracer, fn, name, describe))
        yield
    finally:
        for owner, attr, fn in saved:
            setattr(owner, attr, fn)


def _children(spans: list[Span]) -> dict[int, list[Span]]:
    kids: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent is not None:
            kids.setdefault(span.parent, []).append(span)
    return kids


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the part of it its children cover."""
    kids = _children(spans)
    out = {}
    for span in spans:
        covered = 0.0
        cursor = span.start
        for child in sorted(kids.get(span.id, ()), key=lambda s: s.start):
            lo, hi = max(child.start, cursor), min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[span.id] = span.duration - covered
    return out


def check(spans: list[Span], pipeline_runs: int) -> list[str]:
    """Problems with the trace's structure; empty when it is sound.

    Every span hangs off one root per pipeline run (validation spans are
    roots of their own), and a span's self time plus its children's time
    equals its duration within 1%, i.e. children nest and do not overlap.
    """
    problems = []
    by_id = {span.id: span for span in spans}
    roots = [s for s in spans if s.parent is None]
    pipeline_roots = [s for s in roots if s.name == ROOT]
    if len(pipeline_roots) != pipeline_runs:
        problems.append(f"{len(pipeline_roots)} {ROOT} roots for {pipeline_runs} pipeline runs")
    for root in roots:
        if root.name not in (ROOT, VALIDATE):
            problems.append(f"span {root.id} {root.name} has no parent")
    if len({s.run for s in roots}) != len(roots):
        problems.append("two root spans share a run id")
    for span in spans:
        parent = by_id.get(span.parent) if span.parent is not None else None
        if span.parent is not None and (parent is None or parent.id >= span.id):
            problems.append(f"span {span.id} {span.name} has a bad parent {span.parent}")
        elif parent is not None and parent.run != span.run:
            problems.append(f"span {span.id} {span.name} left its parent's run")
    own = self_times(spans)
    kids = _children(spans)
    for span in spans:
        total = own[span.id] + sum(c.duration for c in kids.get(span.id, ()))
        if abs(total - span.duration) > 0.01 * span.duration + 1e-9:
            problems.append(
                f"span {span.id} {span.name}: self+children {total:.6f}s "
                f"!= duration {span.duration:.6f}s"
            )
    return problems[:20]


def layer_metrics(spans: list[Span]) -> dict[str, tuple[float, str]]:
    """Per-layer totals over the given spans, by metric name, with units."""
    own = self_times(spans)
    time_in: dict[str, float] = {}
    count: dict[str, int] = {}
    for span in spans:
        time_in[span.name] = time_in.get(span.name, 0.0) + span.duration
        count[span.name] = count.get(span.name, 0) + 1

    def self_of(name: str) -> float:
        return sum(own[s.id] for s in spans if s.name == name)

    def total(name: str, key: str, **match) -> int:
        return sum(
            s.attrs.get(key, 0)
            for s in spans
            if s.name == name and all(s.attrs.get(k) == v for k, v in match.items())
        )

    attempts = count.get("slackgen.trial", 0)
    passed = sum(1 for s in spans if s.name == "slackgen.gate" and s.attrs["passed"])
    m: dict[str, tuple[float, str]] = {
        "graph_core.graph_init_s": (time_in.get("graph_core.graph_init", 0.0), "s"),
        "graph_core.graph_inits": (count.get("graph_core.graph_init", 0), "count"),
        "graph_core.kclique_s": (time_in.get("graph_core.kclique", 0.0), "s"),
        "acd.build_s": (self_of("acd.build"), "s"),
        "acd.verify_s": (time_in.get("acd.verify", 0.0), "s"),
        "acd.cliques": (total("acd.build", "cliques"), "count"),
        "acd.sparse_nodes": (total("acd.build", "sparse_nodes"), "count"),
        "classify.classify_s": (time_in.get("classify.classify", 0.0), "s"),
        "classify.partition_s": (time_in.get("classify.partition", 0.0), "s"),
        "phases.self_s": (self_of(ROOT), "s"),
        "slackgen.trial_s": (time_in.get("slackgen.trial", 0.0), "s"),
        "slackgen.gate_s": (time_in.get("slackgen.gate", 0.0), "s"),
        "slackgen.attempts": (attempts, "count"),
        "slackgen.gate_pass_ratio": (passed / attempts if attempts else 0.0, "ratio"),
        "slackgen.deg1_retries": (
            sum(
                1
                for s in spans
                if s.name == "listcolor.build"
                and s.attrs.get("error") == DegPlusOneViolation.__name__
            ),
            "count",
        ),
        "listcolor.build_s": (time_in.get("listcolor.build", 0.0), "s"),
        "listcolor.solve_s": (time_in.get("listcolor.solve", 0.0), "s"),
        "listcolor.units": (total("listcolor.solve", "units"), "count"),
        "oracle_validate.validate_s": (time_in.get(VALIDATE, 0.0), "s"),
    }
    for caller in ("", "slackgen", "listcolor"):
        match = {"caller": caller} if caller else {}
        prefix = f"sim_engine.{caller}." if caller else "sim_engine."
        run_s = sum(
            s.duration
            for s in spans
            if s.name == "sim_engine.run" and (not caller or s.attrs["caller"] == caller)
        )
        messages = total("sim_engine.run", "messages", **match)
        m[prefix + "run_s"] = (run_s, "s")
        m[prefix + "messages"] = (messages, "count")
        m[prefix + "messages_per_s"] = (messages / run_s if run_s else 0.0, "1/s")
    return m


def kind_metrics(spans: list[Span]) -> dict[str, tuple[float, str]]:
    """listcolor.<kind>.build_s / solve_s / units for every kind that ran."""
    m: dict[str, tuple[float, str]] = {}
    for span in spans:
        if span.name not in ("listcolor.build", "listcolor.solve"):
            continue
        stage = span.name.split(".")[1]
        key = f"listcolor.{span.attrs['kind']}.{stage}_s"
        m[key] = (m.get(key, (0.0, "s"))[0] + span.duration, "s")
        if stage == "solve":
            key = f"listcolor.{span.attrs['kind']}.units"
            m[key] = (m.get(key, (0, "count"))[0] + span.attrs["units"], "count")
    return dict(sorted(m.items()))
