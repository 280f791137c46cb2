"""Batch experiment runner and report emitter.

Usage:
    brooks-sim gen --family clique_minus_edge --delta 4 --out g.txt
    brooks-sim acd --graph g.txt --epsilon 1/8 --out acd.json
    brooks-sim classify --graph g.txt --epsilon 1/8 --out cls.json
    brooks-sim color --graph g.txt --seed 1 --out run.json
    brooks-sim validate --graph g.txt --coloring run.json --k 4
    brooks-sim experiment --families all --deltas 16,27,64 --seeds 100 --out sweep.csv

Single runs emit JSON, sweeps emit CSV; both carry a schema_version field.
Identical flags (and seed) produce byte-identical outputs.

Defaults live in the library: the epsilon of a graph file with no
`# epsilon=` header is `thresholds.DEFAULT_EPSILON`, and color's and
experiment's flags default to `PipelineConfig`'s fields. Library objects
reach JSON through one encoder, `_plain`, so their field names are the keys.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from contextlib import contextmanager
from dataclasses import fields, is_dataclass
from fractions import Fraction
from typing import Callable, Iterator, TypeVar

from . import __version__
from .acd import check_epsilon, compute_acd, obs22_check
from .classify import classify_acs, fine_partition
from .errors import BrooksSimError
from .graph_core import (
    FAMILIES,
    generate_instance,
    load_graph_with_header,
    save_graph,
)
from .oracle_validate import validate_coloring
from .phases import PIPELINE_PLAN, PipelineConfig, run_pipeline
from .thresholds import DEFAULT_EPSILON

SCHEMA_VERSION = 1

T = TypeVar("T")


def _emit(text: str, out: str | None) -> None:
    """Write text to the --out file, if any, and to stdout."""
    if out:
        with _writing(out), open(out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    sys.stdout.write(text)


def _plain(value):
    """value as JSON data: a dataclass becomes a dict of its fields, a set a
    sorted list, a Fraction a string, and dict keys become strings."""
    if is_dataclass(value):
        return {f.name: _plain(getattr(value, f.name)) for f in fields(value)}
    if isinstance(value, dict):
        return {str(k): _plain(v) for k, v in value.items()}
    if isinstance(value, (set, frozenset)):
        return sorted(value)
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, Fraction):
        return str(value)
    return value


def _dump_json(payload: dict, out: str | None) -> None:
    _emit(json.dumps(payload, sort_keys=True, indent=2) + "\n", out)


@contextmanager
def _reading(path: str) -> Iterator[None]:
    """Turn an unreadable or undecodable input file into a BrooksSimError."""
    try:
        yield
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise BrooksSimError(f"cannot read {path}: {exc}", phase="input") from None


@contextmanager
def _writing(path: str) -> Iterator[None]:
    """Turn an --out path that cannot be written into a BrooksSimError."""
    try:
        yield
    except OSError as exc:
        raise BrooksSimError(f"cannot write {path}: {exc}", phase="config") from None


def _parse(convert: Callable[[str], T], text: str, what: str) -> T:
    """convert(text), or a BrooksSimError naming the bad value."""
    try:
        return convert(text)
    except (ValueError, ZeroDivisionError):
        raise BrooksSimError(f"{what}: cannot parse {text!r}", phase="config") from None


def _load(path: str):
    with _reading(path):
        return load_graph_with_header(path)


def _epsilon_from(args, header: dict[str, str]) -> Fraction:
    if args.epsilon is not None:
        return _parse(Fraction, args.epsilon, "--epsilon")
    if "epsilon" not in header:
        return DEFAULT_EPSILON
    try:
        return check_epsilon(header["epsilon"])
    except BrooksSimError as exc:  # a defect of the input file, not of the flags
        raise BrooksSimError(f"epsilon header: {exc}", phase="input") from None


def cmd_gen(args) -> int:
    inst = generate_instance(args.family, args.delta, args.seed)
    header = {
        "family": inst.family,
        "delta": str(inst.delta),
        "seed": str(inst.seed),
        "epsilon": str(inst.epsilon),
    }
    with _writing(args.out):
        save_graph(inst.graph, args.out, header=header)
    _dump_json(
        {
            "schema_version": SCHEMA_VERSION,
            "family": inst.family,
            "delta": inst.delta,
            "seed": inst.seed,
            "n": inst.graph.n,
            "m": inst.graph.m,
            "epsilon": str(inst.epsilon),
            "out": args.out,
        },
        None,
    )
    return 0


def cmd_acd(args) -> int:
    g, header = _load(args.graph)
    epsilon = _epsilon_from(args, header)
    acd = compute_acd(g, epsilon)  # verifies, and raises on a failed property
    obs22 = obs22_check(g, acd)
    _dump_json(
        {
            **_plain(acd),
            "schema_version": SCHEMA_VERSION,
            "verify_ok": True,
            "obs22_ok": obs22.ok,
            "obs22_violations": obs22.violations,
        },
        args.out,
    )
    return 0


def cmd_classify(args) -> int:
    g, header = _load(args.graph)
    epsilon = _epsilon_from(args, header)
    acd = compute_acd(g, epsilon)
    cls = classify_acs(g, acd)
    part = fine_partition(g, acd, cls)
    _dump_json(
        {
            "schema_version": SCHEMA_VERSION,
            "epsilon": str(epsilon),
            "acd": _plain(acd),
            "classification": _plain(cls),
            "partition": _plain(part),
        },
        args.out,
    )
    return 0


def _run_result_payload(g, result, epsilon: Fraction) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "n": g.n,
        "delta": g.delta,
        "epsilon": str(epsilon),
        "valid": validate_coloring(g, result.coloring.as_list(), g.delta),
        "coloring": result.coloring.as_list(),
        "retries": result.retries,
        "ledger": _plain(result.ledger.records),
        "metrics": _plain(result.metrics),
        "slack_report": _plain(result.slack_report),
    }


def cmd_color(args) -> int:
    g, header = _load(args.graph)
    epsilon = _epsilon_from(args, header)
    config = PipelineConfig(
        epsilon=epsilon,
        p_g=args.pg,
        max_retries=args.max_retries,
        seed=args.seed,
        strict_congest=args.strict_congest,
        congest_c=args.congest_c,
    )
    result = run_pipeline(g, config)
    _dump_json(_run_result_payload(g, result, epsilon), args.out)
    return 0


def cmd_validate(args) -> int:
    g, _ = _load(args.graph)
    with _reading(args.coloring), open(args.coloring, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    colors = payload.get("coloring") if isinstance(payload, dict) else payload
    if not isinstance(colors, list):
        raise BrooksSimError(f"{args.coloring}: no coloring list", phase="input")
    ok = validate_coloring(g, colors, args.k)
    _dump_json({"schema_version": SCHEMA_VERSION, "valid": ok, "k": args.k}, args.out)
    return 0 if ok else 1


_CSV_MIN_LIST_KINDS = tuple(spec.kind for spec in PIPELINE_PLAN)


def experiment_row(family: str, delta: int, seed: int, *, pg: float, max_retries: int) -> dict:
    inst = generate_instance(family, delta, seed)
    g = inst.graph
    epsilon = inst.epsilon
    row = {
        "schema_version": SCHEMA_VERSION,
        "family": family,
        "delta": delta,
        "seed": seed,
        "epsilon": str(epsilon),
        "n": g.n,
        "status": "ok",
        "valid": 0,
        "retries": "",
        "instances": "",
        "rounds_total": "",
        "max_message_bits": "",
    }
    for kind in _CSV_MIN_LIST_KINDS:
        row[f"min_list_{kind}"] = ""
    config = PipelineConfig(epsilon=epsilon, p_g=pg, max_retries=max_retries, seed=seed)
    try:
        result = run_pipeline(g, config)
    except BrooksSimError as exc:
        row["status"] = type(exc).__name__
        return row
    row["valid"] = int(validate_coloring(g, result.coloring.as_list(), g.delta))
    row["retries"] = result.retries
    row["instances"] = len(result.ledger)
    row["rounds_total"] = result.metrics.rounds_elapsed
    row["max_message_bits"] = result.metrics.max_message_bits
    for record in result.ledger:
        if record.units:
            row[f"min_list_{record.kind}"] = record.min_palette
    return row


def cmd_experiment(args) -> int:
    families = FAMILIES if args.families == "all" else tuple(args.families.split(","))
    for family in families:
        if family not in FAMILIES:
            raise BrooksSimError(f"unknown family {family!r}", phase="config")
    deltas = tuple(_parse(int, d, "--deltas") for d in args.deltas.split(","))
    if args.seeds < 0:
        raise BrooksSimError(f"--seeds must be >= 0, got {args.seeds}", phase="config")
    rows = [
        experiment_row(family, delta, seed, pg=args.pg, max_retries=args.max_retries)
        for family in families
        for delta in deltas
        for seed in range(args.seeds)
    ]
    rows.sort(key=lambda r: (r["family"], r["delta"], r["seed"]))

    if args.format == "json":
        text = json.dumps(rows, sort_keys=True, indent=2) + "\n"
    else:
        buf = io.StringIO()
        fieldnames = list(rows[0].keys()) if rows else ["schema_version"]
        writer = csv.DictWriter(buf, fieldnames=fieldnames, lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
        text = buf.getvalue()
    _emit(text, args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="brooks-sim", description=__doc__.split("\n")[0])
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="write a generated graph file")
    p_gen.add_argument("--family", required=True, choices=FAMILIES)
    p_gen.add_argument("--delta", type=int, required=True)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--out", required=True)
    p_gen.set_defaults(func=cmd_gen)

    for name, func in (("acd", cmd_acd), ("classify", cmd_classify)):
        p = sub.add_parser(name, help=f"write {name} analysis JSON")
        p.add_argument("--graph", required=True)
        p.add_argument("--epsilon", default=None)
        p.add_argument("--out", default=None)
        p.set_defaults(func=func)

    p_color = sub.add_parser("color", help="run the full pipeline")
    p_color.add_argument("--graph", required=True)
    p_color.add_argument("--epsilon", default=None)
    p_color.add_argument("--pg", type=float, default=PipelineConfig.p_g)
    p_color.add_argument("--seed", type=int, default=PipelineConfig.seed)
    p_color.add_argument("--max-retries", type=int, default=PipelineConfig.max_retries)
    p_color.add_argument("--strict-congest", action="store_true")
    p_color.add_argument("--congest-c", type=int, default=PipelineConfig.congest_c)
    p_color.add_argument("--out", default=None)
    p_color.set_defaults(func=cmd_color)

    p_val = sub.add_parser("validate", help="check a coloring file")
    p_val.add_argument("--graph", required=True)
    p_val.add_argument("--coloring", required=True)
    p_val.add_argument("--k", type=int, required=True)
    p_val.add_argument("--out", default=None)
    p_val.set_defaults(func=cmd_validate)

    p_exp = sub.add_parser("experiment", help="sweep families x deltas x seeds to CSV")
    p_exp.add_argument("--families", default="all")
    p_exp.add_argument("--deltas", default="16,27,64")
    p_exp.add_argument("--seeds", type=int, default=10)
    p_exp.add_argument("--pg", type=float, default=PipelineConfig.p_g)
    p_exp.add_argument("--max-retries", type=int, default=PipelineConfig.max_retries)
    p_exp.add_argument("--format", choices=("json", "csv"), default="csv")
    p_exp.add_argument("--out", default=None)
    p_exp.set_defaults(func=cmd_experiment)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BrooksSimError as exc:
        error = {
            "error": {
                "type": type(exc).__name__,
                "message": str(exc),
                "phase": getattr(exc, "phase", None),
            }
        }
        sys.stderr.write(json.dumps(error, sort_keys=True) + "\n")
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
