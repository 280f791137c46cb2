"""brooks-sim benchmark: generate one workload from a seed, color it with
`run_pipeline` for a fixed time, check every output, and print the metrics.

    python3 bench/run.py --workload sweep --seed 0 --seconds 60 --trace 0

Run from a checkout's root. The package is imported from the checkout's
`src/`. With `--trace 0` the last stdout line is a JSON object with the
end-to-end metrics; with `--trace 1` untraced and traced passes alternate
and it holds the per-layer metrics. The lines before it are a readable
report: the run environment, the raw wall-clock times, the model's
outputs, per-graph latency percentiles and the per-kind breakdown. Times in
the JSON are on the speed probe's reference scale (see bench/speed.py).
See bench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
if not (SRC / "brooks_sim" / "__init__.py").is_file():
    raise SystemExit(f"bench/run.py: no brooks_sim source under {SRC}")
sys.path.insert(0, str(SRC))

from brooks_sim import PIPELINE_PLAN, run_pipeline, validate_coloring  # noqa: E402
from brooks_sim.errors import BrooksSimError, RetryExhausted  # noqa: E402

import spans  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402

EXPECTED = BENCH / "expected.json"
TRACE_DIR = BENCH / "out"
PLAN_KINDS = tuple(spec.kind for spec in PIPELINE_PLAN)

# Set-up repeats at least this often, and until it has taken SETUP_MIN_S,
# so its median rests on several samples even for the cheap workloads.
SETUP_REPEATS = 3
SETUP_MIN_S = 2.0
SETUP_MAX_REPEATS = 15

# Simulated outputs of the model, with units. They repeat exactly at a seed
# and are checked against EXPECTED wherever it lists the seed.
MODEL_UNITS = {
    "slack_attempts": "count",
    "rounds": "rounds",
    "messages": "count",
    "max_message_bits": "bits",
    "fail_share": "share",
}


@dataclass
class Outcome:
    """What one pipeline call produced; equal across passes of one graph."""

    ok: bool
    attempts: int
    rounds: int = 0
    messages: int = 0
    max_message_bits: int = 0
    detail: str = ""


@dataclass
class Pass:
    times: list[float]
    outcomes: list[Outcome]
    traced: bool
    # Per call: the index of the speed probe taken last before it.
    probes: list[int] = field(default_factory=list)
    span_range: tuple[int, int] = (0, 0)

    @property
    def seconds(self) -> float:
        return sum(self.times)


@dataclass
class Gate:
    """Correctness problems found while running; the run is correct iff none."""

    problems: list[str] = field(default_factory=list)
    failed: int = 0

    def fail(self, message: str) -> None:
        if len(self.problems) < 20:
            self.problems.append(message)


def environment() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "loadavg": list(os.getloadavg()),
    }


def set_up(
    specs: list[workloads.Spec], probe: speed.Probe
) -> tuple[list[workloads.Case], list[float], list[float]]:
    """Generate the workload several times, with a speed probe before and
    after each; keep the last copy. Returns it with the wall-clock times
    and the same times on the reference scale."""
    times: list[float] = []
    reference: list[float] = []
    cases: list[workloads.Case] = []
    while len(times) < SETUP_REPEATS or (
        sum(times) < SETUP_MIN_S and len(times) < SETUP_MAX_REPEATS
    ):
        cases = []
        gc.collect()
        before = probe.latest()
        start = time.perf_counter()
        cases = workloads.generate(specs)
        times.append(time.perf_counter() - start)
        probe.take()
        reference.append(probe.to_reference(times[-1], before))
    return cases, times, reference


def color_once(
    case: workloads.Case, gate: Gate, tracer: spans.Tracer | None
) -> tuple[float, Outcome]:
    """One timed pipeline call, then its (untimed) output check."""
    root = tracer.open(spans.ROOT) if tracer else None
    start = time.perf_counter()
    try:
        result = run_pipeline(case.graph, case.config)
    except BrooksSimError as exc:
        elapsed = time.perf_counter() - start
        if root:
            root.attrs["error"] = type(exc).__name__
            tracer.close(root)
        attempts = exc.attempts if isinstance(exc, RetryExhausted) else 0
        return elapsed, Outcome(False, attempts, detail=f"{type(exc).__name__}@{exc.phase}")
    elapsed = time.perf_counter() - start
    if root:
        tracer.close(root)
        check = tracer.open(spans.VALIDATE)
    colors = result.coloring.as_list()
    valid = validate_coloring(case.graph, colors, case.graph.delta)
    if root:
        tracer.close(check)
    kinds = result.ledger.kinds()
    if not valid or kinds != PLAN_KINDS:
        gate.failed += 1
        gate.fail(
            f"{case.spec.family}/{case.spec.delta}/{case.spec.seed}: "
            f"valid coloring {valid}, ledger kinds {kinds}"
        )
    metrics = result.metrics
    return elapsed, Outcome(
        valid,
        result.retries + 1,
        metrics.rounds_elapsed,
        metrics.messages_sent,
        metrics.max_message_bits,
        detail=str(hash(tuple(colors))),
    )


def color_pass(
    cases: list[workloads.Case], gate: Gate, tracer: spans.Tracer | None, probe: speed.Probe
) -> Pass:
    gc.collect()
    result = Pass([], [], traced=tracer is not None)
    for case in cases:
        result.probes.append(probe.latest())
        elapsed, outcome = color_once(case, gate, tracer)
        probe.spent(elapsed)
        result.times.append(elapsed)
        result.outcomes.append(outcome)
    return result


def model_outputs(outcomes: list[Outcome]) -> dict:
    """The simulated outputs of one pass; they repeat exactly at a seed."""
    failures = sum(1 for o in outcomes if not o.ok)
    return {
        "slack_attempts": sum(o.attempts for o in outcomes),
        "rounds": sum(o.rounds for o in outcomes),
        "messages": sum(o.messages for o in outcomes),
        "max_message_bits": max(o.max_message_bits for o in outcomes),
        "fail_share": str(Fraction(failures, len(outcomes))),
    }


def expected_outputs(workload: str, seed: int) -> dict | None:
    table = json.loads(EXPECTED.read_text(encoding="utf-8"))
    return table.get(workload, {}).get(str(seed))


def reference_total(passes: list[Pass], probe: speed.Probe) -> float:
    """Each graph's median call time over the passes, on the reference
    scale, summed over the workload's graphs."""
    per_call = [
        [probe.to_reference(t, i) for t, i in zip(p.times, p.probes)] for p in passes
    ]
    return sum(statistics.median(ts) for ts in zip(*per_call))


def percentile(samples: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(samples)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def measure(
    cases: list[workloads.Case],
    seconds: float,
    trace: bool,
    gate: Gate,
    tracer: spans.Tracer,
    probe: speed.Probe,
) -> list[Pass]:
    """Color the workload pass after pass until a pass as slow as the
    slowest so far would overrun `seconds`; always at least one pass (one of
    each kind when tracing). A last probe closes the run, so every call
    has a probe after it."""
    passes: list[Pass] = []
    slowest = 0.0
    start = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        traced = trace and len(passes) % 2 == 1
        if traced:
            first = len(tracer.spans)
            with spans.instrument(tracer):
                passes.append(color_pass(cases, gate, tracer, probe))
            passes[-1].span_range = (first, len(tracer.spans))
        else:
            passes.append(color_pass(cases, gate, None, probe))
        now = time.perf_counter()
        slowest = max(slowest, now - pass_start)
        if trace and len(passes) < 2:
            continue
        if now - start + slowest > seconds:
            probe.take()
            return passes


def check_determinism(passes: list[Pass], gate: Gate) -> None:
    first = passes[0].outcomes
    for p in passes[1:]:
        if p.outcomes != first:
            gate.fail("pipeline outputs differ between passes over the same graphs")
            return


def run(
    workload: str, seed: int, seconds: float, trace: bool, toy: bool = False
) -> tuple[dict, dict]:
    """Run one workload. Returns the result object (the last stdout line)
    and a report: run facts, and metrics printed beside the result."""
    env = environment()
    probe = speed.Probe()
    cases, setup_times, setup_reference = set_up(workloads.specs(workload, seed, toy), probe)
    gate = Gate()
    tracer = spans.Tracer()
    passes = measure(cases, seconds, trace, gate, tracer, probe)
    check_determinism(passes, gate)

    model = model_outputs(passes[0].outcomes)
    expected = None if toy else expected_outputs(workload, seed)
    if expected is not None:
        for key in MODEL_UNITS:
            if model[key] != expected[key]:
                gate.fail(f"{key} is {model[key]}, expected {expected[key]} at seed {seed}")

    untraced = [p for p in passes if not p.traced]
    # A graph's latency is its median over the untraced passes; the
    # percentiles are taken across the workload's graphs.
    latencies = [statistics.median(ts) for ts in zip(*(p.times for p in untraced))]
    info = {
        "workload": workload,
        "seed": seed,
        "env": env,
        "graphs": len(cases),
        "setup_wall_s": [round(t, 4) for t in setup_times],
        "pass_wall_s": [round(p.seconds, 4) for p in passes],
        "probe_s": {
            "median": round(statistics.median(probe.points), 5),
            "min": round(min(probe.points), 5),
            "max": round(max(probe.points), 5),
            "count": len(probe.points),
        },
        "expected_checked": expected is not None,
    }
    extra = {key: (model[key], unit) for key, unit in MODEL_UNITS.items()}
    extra["graph_p50_s"] = (statistics.median(latencies), "s")
    extra["graph_p95_s"] = (percentile(latencies, 95), "s")

    if not trace:
        metrics = {
            "setup_s": (statistics.median(setup_reference), "s"),
            "color_s": (reference_total(untraced, probe), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "success_share": (float(1 - Fraction(model["fail_share"])), "share"),
            "messages": (model["messages"], "count"),
            "max_message_bits": (model["max_message_bits"], "bits"),
        }
    else:
        traced = [p for p in passes if p.traced]
        per_pass = [spans.layer_metrics(tracer.spans[slice(*p.span_range)]) for p in traced]
        metrics = {
            name: (statistics.median(m[name][0] for m in per_pass), unit)
            for name, (_, unit) in per_pass[0].items()
        }
        metrics["trace.overhead_s"] = (
            reference_total(traced, probe) - reference_total(untraced, probe),
            "s",
        )
        extra.update(spans.kind_metrics(tracer.spans[slice(*traced[0].span_range)]))
        for problem in spans.check(tracer.spans, sum(len(p.times) for p in traced)):
            gate.fail(f"trace: {problem}")
        trace_file = TRACE_DIR / f"trace-{workload}-{seed}.jsonl"
        tracer.write(trace_file)
        info["trace_file"] = str(trace_file.relative_to(BENCH.parent))
        info["spans"] = len(tracer.spans)

    info["problems"] = gate.problems
    result = {
        "correct": not gate.problems,
        "attempted": sum(len(p.times) for p in passes),
        "failed": gate.failed,
        "metrics": {name: {"value": v, "unit": unit} for name, (v, unit) in metrics.items()},
    }
    return result, {"info": info, "extra": extra}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    result, report = run(args.workload, args.seed, args.seconds, bool(args.trace))
    for key, value in report["info"].items():
        print(f"# {key}: {json.dumps(value, sort_keys=True)}")
    for name, (value, unit) in report["extra"].items():
        print(f"# {name}: {value} {unit}")
    for problem in report["info"]["problems"]:
        print(f"FAIL {problem}", file=sys.stderr)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
