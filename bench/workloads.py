"""The benchmark's workloads: which graphs each one generates from a seed,
and with which pipeline configuration they are colored.

Every workload is a closed loop with one client: the next pipeline call
starts when the previous one returns. Graph seeds derive only from the
workload seed, so the same seed gives the same inputs. The `toy` sizes keep
the same structure at a size the smoke tests can afford.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from brooks_sim import Graph, PipelineConfig, generate_instance
from brooks_sim.graph_core import FAMILIES

# Seed the bench runs when none is given, and the second seed that confirms
# a claim made on the first. Both sweeps contain RetryExhausted runs.
DEFAULT_SEED = 0
HELD_OUT_SEED = 1

# Graphs per (family, delta) cell of the sweep; experiment's CLI default is 10.
SWEEP_SEEDS = 20
SWEEP_DELTAS = (16, 27, 64)

FARM_KINDS = ("clique_minus_edge", "guarded_pair")

SPARSE_GRAPHS = 3


@dataclass(frozen=True)
class Spec:
    """One graph of a workload: generator arguments plus config overrides."""

    family: str
    delta: int
    seed: int
    params: dict = field(default_factory=dict)
    config: dict = field(default_factory=dict)


@dataclass
class Case:
    spec: Spec
    graph: Graph
    config: PipelineConfig


def _sparse_gnd(seed: int, toy: bool) -> list[Spec]:
    # Several graphs per pass: a graph whose slack generation retries costs
    # up to a third more, and one graph per pass made that seed noise.
    n = 400 if toy else 4000
    first = seed * SPARSE_GRAPHS
    return [Spec("random_gnd", 16, s, {"n": n}) for s in range(first, first + SPARSE_GRAPHS)]


def _dense_mixed(seed: int, toy: bool) -> list[Spec]:
    return [Spec("mixed", 64 if toy else 256, seed)]


def _clique_farm(seed: int, toy: bool) -> list[Spec]:
    pairs = 3 if toy else 150
    return [
        Spec(
            "mixed",
            16,
            seed,
            {"components": 2 * pairs, "kinds": FARM_KINDS * pairs},
            {"strict_congest": True, "congest_c": 4},
        )
    ]


def _sweep(seed: int, toy: bool) -> list[Spec]:
    # experiment_row's config: p_g 0.5, max_retries 16 and delta_min
    # min(8, delta) are PipelineConfig's defaults at these deltas.
    deltas = SWEEP_DELTAS[:1] if toy else SWEEP_DELTAS
    per_cell = 1 if toy else SWEEP_SEEDS
    first = seed * per_cell
    return [
        Spec(family, delta, s)
        for family in FAMILIES
        for delta in deltas
        for s in range(first, first + per_cell)
    ]


WORKLOADS: dict[str, Callable[[int, bool], list[Spec]]] = {
    "sparse_gnd": _sparse_gnd,
    "dense_mixed": _dense_mixed,
    "clique_farm": _clique_farm,
    "sweep": _sweep,
}


def specs(workload: str, seed: int, toy: bool = False) -> list[Spec]:
    return WORKLOADS[workload](seed, toy)


def generate(specs: list[Spec]) -> list[Case]:
    """The set-up step: generate every graph and its pipeline config."""
    cases = []
    for spec in specs:
        inst = generate_instance(spec.family, spec.delta, spec.seed, **spec.params)
        config = PipelineConfig(epsilon=inst.epsilon, seed=spec.seed, **spec.config)
        cases.append(Case(spec, inst.graph, config))
    return cases
