"""Acceptance suite: one test per criterion, each printing a PASS line with
the measured numbers. Run with `pytest tests/test_acceptance.py -s` to see
the lines as they complete.

The end-to-end sweep (families x deltas x 100 seeds) runs once in a module
fixture and feeds criteria 1, 4, 5, and 8.
"""

import itertools
import random
import time
from dataclasses import dataclass
from fractions import Fraction

import pytest

from brooks_sim.acd import compute_acd, verify_acd
from brooks_sim.classify import classify_acs, fine_partition
from brooks_sim.cli import main as cli_main
from brooks_sim.errors import RetryExhausted
from brooks_sim.graph_core import Graph, generate_instance
from brooks_sim.listcolor import InstanceLedger
from brooks_sim.oracle_validate import validate_coloring
from brooks_sim.phases import PIPELINE_PLAN, PipelineConfig, run_pipeline
from brooks_sim.sim_engine import congest_budget
from brooks_sim.slackgen import (
    check_lemma33,
    participant_set,
    run_slack_generation_with_metrics,
)
from oracles import is_k_colorable_fast, measure_slack, observation_22_violations

SWEEP_FAMILIES = (
    "clique_minus_edge",
    "matched_cliques",
    "guarded_pair",
    "runaway_pair",
    "mixed",
)
SWEEP_DELTAS = (16, 27, 64)
SWEEP_SEEDS = 100
MAX_RETRIES = 16


@dataclass
class SweepRun:
    family: str
    delta: int
    seed: int
    returned: bool
    valid: bool
    retries: int
    ledger: InstanceLedger | None
    structural_ok: bool


@pytest.fixture(scope="module")
def sweep():
    runs: list[SweepRun] = []
    started = time.time()
    for family, delta in itertools.product(SWEEP_FAMILIES, SWEEP_DELTAS):
        for seed in range(SWEEP_SEEDS):
            inst = generate_instance(family, delta, seed=seed)
            g = inst.graph
            # criterion 8 inputs: ACD contract, degree bounds, partition shape
            acd = compute_acd(g, inst.epsilon)
            structural_ok = verify_acd(g, acd).ok and not observation_22_violations(g, acd)
            cls = classify_acs(g, acd)
            fine_partition(g, acd, cls)  # raises on any partition-shape violation
            config = PipelineConfig(epsilon=inst.epsilon, seed=seed, max_retries=MAX_RETRIES)
            try:
                result = run_pipeline(g, config)
            except RetryExhausted:
                runs.append(SweepRun(family, delta, seed, False, False, MAX_RETRIES, None, structural_ok))
                continue
            valid = validate_coloring(g, result.coloring.as_list(), delta)
            runs.append(
                SweepRun(family, delta, seed, True, valid, result.retries, result.ledger, structural_ok)
            )
    elapsed = time.time() - started
    return runs, elapsed


def test_criterion_1_end_to_end(sweep):
    runs, elapsed = sweep
    total = len(runs)
    assert total == len(SWEEP_FAMILIES) * len(SWEEP_DELTAS) * SWEEP_SEEDS
    returned = [r for r in runs if r.returned]
    # every run that returns a coloring passes validate_coloring
    invalid = [r for r in returned if not r.valid]
    assert invalid == [], f"invalid colorings: {[(r.family, r.delta, r.seed) for r in invalid]}"
    rate = len(returned) / total
    assert rate >= 0.95, f"only {rate:.2%} of runs returned within {MAX_RETRIES} retries"
    assert elapsed < 600, f"sweep took {elapsed:.0f}s, budget is 10 minutes"
    print(
        f"\nACCEPTANCE 1 PASS: {total} runs, {len(returned)} returned "
        f"({rate:.2%} >= 95%), 0 invalid colorings, sweep {elapsed:.0f}s"
    )


def test_criterion_2_forced_pair():
    checked = 0
    for delta in (4, 8, 16):
        for seed in range(100):
            inst = generate_instance("clique_minus_edge", delta, seed=seed)
            config = PipelineConfig(epsilon=inst.epsilon, seed=seed)
            result = run_pipeline(inst.graph, config)
            colors = result.coloring.as_list()
            assert validate_coloring(inst.graph, colors, delta)
            a, b = inst.meta["missing_edge"]
            assert colors[a] == colors[b], (delta, seed)
            checked += 1
    print(f"\nACCEPTANCE 2 PASS: non-adjacent pair same-colored in {checked}/300 runs")


def test_criterion_3_brooks_oracle_exhaustive():
    mismatches = 0
    checked = 0
    for n in range(1, 8):
        pairs = list(itertools.combinations(range(n), 2))
        nbits = len(pairs)
        for mask in range(1 << nbits):
            adj = [0] * n
            mm = mask
            while mm:
                low = mm & -mm
                u, v = pairs[low.bit_length() - 1]
                adj[u] |= 1 << v
                adj[v] |= 1 << u
                mm ^= low
            seen = 1
            frontier = 1
            while frontier:
                nxt = 0
                f = frontier
                while f:
                    low = f & -f
                    nxt |= adj[low.bit_length() - 1]
                    f ^= low
                frontier = nxt & ~seen
                seen |= nxt
            if seen != (1 << n) - 1:
                continue
            checked += 1
            degs = [a.bit_count() for a in adj]
            delta = max(degs) if n > 1 else 0
            odd_cycle = n % 2 == 1 and n >= 3 and all(d == 2 for d in degs)
            complete = mask.bit_count() == n * (n - 1) // 2
            expected = not (odd_cycle or (complete and delta == n - 1))
            if n == 1:
                expected = False  # K_1 is a (delta+1)-clique at delta 0
            if is_k_colorable_fast(adj, delta) != expected:
                mismatches += 1
    assert mismatches == 0
    print(
        f"\nACCEPTANCE 3 PASS: Brooks condition matches oracle on {checked} "
        f"connected graphs with n <= 7, 0 mismatches"
    )


def test_criterion_4_constant_instances(sweep):
    runs, _ = sweep
    kinds = tuple(spec.kind for spec in PIPELINE_PLAN)
    for r in runs:
        if r.ledger is not None:
            assert len(r.ledger) <= 16
            assert r.ledger.kinds() == kinds
    # structurally identical mixed instances at different n: identical ledgers
    base_kinds = ("clique_minus_edge", "matched_cliques", "guarded_pair", "runaway_pair", "random_gnd")
    patterns = []
    for comps in (5, 20):
        inst = generate_instance(
            "mixed", 64, seed=11, components=comps, kinds=base_kinds * (comps // 5)
        )
        config = PipelineConfig(epsilon=inst.epsilon, seed=11)
        result = run_pipeline(inst.graph, config)
        patterns.append(tuple((rec.kind, rec.units > 0) for rec in result.ledger))
    assert patterns[0] == patterns[1]
    print(
        "\nACCEPTANCE 4 PASS: ledger length 16 on every run; mixed with 2568 vs "
        "642 nodes produced identical instance patterns"
    )


def _meets(delta: int, palette: int, bound: str) -> bool:
    if bound == "phi/2":
        return (4 * palette) ** 3 >= delta * delta
    if bound == "Delta/2":
        return 2 * palette >= delta
    if bound == "Delta/3":
        return 3 * palette >= delta
    raise ValueError(bound)


def test_criterion_5_list_size_gates(sweep):
    runs, _ = sweep
    gates = {
        "guarded_pairs": "phi/2",
        "nice_c_pairs": "Delta/2",
        "nice_c_gray": "Delta/3",
        "nice_c_white": "Delta/3",
        "guarded_gray": "Delta/2",
    }
    checked = 0
    violations = []
    for r in runs:
        if r.ledger is None:
            continue
        for rec in r.ledger:
            if rec.units == 0 or rec.kind not in gates:
                continue
            checked += 1
            if not _meets(r.delta, rec.min_palette, gates[rec.kind]):
                violations.append((r.family, r.delta, r.seed, rec.kind, rec.min_palette))
    assert violations == []
    assert checked > 0
    print(
        f"\nACCEPTANCE 5 PASS: {checked} executed gated instances, 0 list-size "
        f"violations (exact integer comparisons)"
    )


def test_criterion_6_colored_fraction_statistic():
    seeds = 1000
    for family in ("runaway_pair", "guarded_pair"):
        inst = generate_instance(family, 64, seed=0)
        g = inst.graph
        acd = compute_acd(g, inst.epsilon)
        cls = classify_acs(g, acd)
        part = fine_partition(g, acd, cls)
        participants = sorted(participant_set(part))
        ok = 0
        for seed in range(seeds):
            coloring, _ = run_slack_generation_with_metrics(g, participants, 1 / 20, seed)
            report = check_lemma33(g, acd, cls, part, coloring)
            if all(f <= Fraction(1, 2) for f in report.difficult_colored_fraction.values()):
                ok += 1
        assert ok >= 0.99 * seeds, f"{family}: {ok}/{seeds}"
        print(f"\nACCEPTANCE 6 PASS: {family}(64) colored fraction <= 1/2 in {ok}/{seeds} seeds")


def test_criterion_7_slack_accounting_identity():
    rng = random.Random(2024)
    mismatches = 0
    pairs_checked = 0
    for trial in range(1000):
        n = rng.randrange(6, 28)
        p = rng.choice([0.2, 0.35, 0.5])
        edges = [
            (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p
        ]
        g = Graph(n, edges)
        if g.delta == 0:
            continue
        seed = rng.randrange(1 << 30)
        coloring, _ = run_slack_generation_with_metrics(g, range(n), 0.5, seed)
        sub = [v for v in range(n) if rng.random() < 0.6]
        left_out = frozenset(range(n)).difference(sub)
        for v in range(n):
            if coloring.is_colored(v):
                continue
            pairs_checked += 1
            if measure_slack(g, coloring, v, sub) != coloring.slack_in(v, left_out):
                mismatches += 1
    assert mismatches == 0
    print(
        f"\nACCEPTANCE 7 PASS: recomputed slack equals incremental slack on "
        f"{pairs_checked} node checks across 1000 random (graph, seed) pairs"
    )


def test_criterion_8_structural_observations(sweep):
    runs, _ = sweep
    bad = [r for r in runs if not r.structural_ok]
    assert bad == []
    # fine_partition already hard-asserted the partition shape in the fixture
    print(
        f"\nACCEPTANCE 8 PASS: ACD contract, anti/outside degree bounds, and the "
        f"seven-set partition shape hold on all {len(runs)} sweep runs"
    )


def test_criterion_9_congest_budget():
    inst = generate_instance(
        "mixed",
        16,
        seed=0,
        components=300,
        kinds=("clique_minus_edge", "guarded_pair") * 150,
    )
    g = inst.graph
    assert g.n >= 5000
    config = PipelineConfig(epsilon=inst.epsilon, seed=0, strict_congest=True, congest_c=4)
    result = run_pipeline(g, config)  # strict mode raises on any oversized message
    assert validate_coloring(g, result.coloring.as_list(), 16)
    assert result.metrics.max_message_bits <= congest_budget(g.n, 4)
    budget = 4 * (g.n - 1).bit_length()
    print(
        f"\nACCEPTANCE 9 PASS: n={g.n}, max message {result.metrics.max_message_bits} "
        f"bits <= {budget} bits with strict CONGEST accounting on"
    )


def test_criterion_10_cli_determinism(tmp_path, capsys):
    gpath = tmp_path / "g.txt"
    cli_main(["gen", "--family", "mixed", "--delta", "16", "--out", str(gpath)])
    capsys.readouterr()

    def once(argv, out_file=None):
        code = cli_main(argv)
        captured = capsys.readouterr()
        data = out_file.read_bytes() if out_file else b""
        return code, captured.out, data

    reps = 20
    diffs = 0
    for argv, out_file in (
        (["gen", "--family", "runaway_pair", "--delta", "16", "--seed", "3", "--out", str(tmp_path / "r.txt")], tmp_path / "r.txt"),
        (["color", "--graph", str(gpath), "--seed", "9", "--out", str(tmp_path / "c.json")], tmp_path / "c.json"),
        (["experiment", "--families", "clique_minus_edge", "--deltas", "16", "--seeds", "2", "--out", str(tmp_path / "e.csv")], tmp_path / "e.csv"),
    ):
        baseline = once(argv, out_file)
        for _ in range(reps - 1):
            if once(argv, out_file) != baseline:
                diffs += 1
    assert diffs == 0
    print(f"\nACCEPTANCE 10 PASS: 3 CLI commands x {reps} repetitions, 0 diffs")
