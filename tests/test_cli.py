import json
import subprocess
import sys

import pytest

import brooks_sim.acd as acd_module
import brooks_sim.cli as cli_module
from brooks_sim.cli import main
from brooks_sim.graph_core import load_graph_with_header


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _error_for(capsys, *argv):
    """The error object of a CLI call that must fail with exit 1 and no output."""
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    return json.loads(err)["error"]


def test_gen_then_color_smoke(tmp_path, capsys):
    gpath = tmp_path / "g.txt"
    code, out, _ = run_cli(
        capsys, "gen", "--family", "clique_minus_edge", "--delta", "4", "--out", str(gpath)
    )
    assert code == 0
    assert gpath.exists()
    code, out, _ = run_cli(capsys, "color", "--graph", str(gpath), "--seed", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload["valid"] is True
    assert payload["schema_version"] == 1
    assert len(payload["ledger"]) == 16


def test_gen_header_reads_back(tmp_path, capsys):
    gpath = tmp_path / "g.txt"
    run_cli(capsys, "gen", "--family", "guarded_pair", "--delta", "16", "--out", str(gpath))
    _, header = load_graph_with_header(gpath)
    assert header == {"family": "guarded_pair", "delta": "16", "seed": "0", "epsilon": "15/128"}


def test_color_reads_epsilon_hint_from_header(tmp_path, capsys):
    gpath = tmp_path / "g.txt"
    run_cli(capsys, "gen", "--family", "guarded_pair", "--delta", "16", "--out", str(gpath))
    code, out, _ = run_cli(capsys, "color", "--graph", str(gpath), "--seed", "0")
    assert code == 0
    payload = json.loads(out)
    assert payload["epsilon"] == "15/128"
    assert payload["valid"] is True


def test_validate_detects_corruption(tmp_path, capsys):
    gpath = tmp_path / "g.txt"
    cpath = tmp_path / "c.json"
    run_cli(capsys, "gen", "--family", "clique_minus_edge", "--delta", "4", "--out", str(gpath))
    code, out, _ = run_cli(
        capsys, "color", "--graph", str(gpath), "--seed", "1", "--out", str(cpath)
    )
    assert code == 0
    payload = json.loads(cpath.read_text())
    payload["coloring"][0] = payload["coloring"][1]  # break a pair somewhere
    # make it definitely improper: set two adjacent nodes equal
    payload["coloring"] = [0] * len(payload["coloring"])
    cpath.write_text(json.dumps(payload))
    code, out, _ = run_cli(
        capsys, "validate", "--graph", str(gpath), "--coloring", str(cpath), "--k", "4"
    )
    assert code == 1
    assert json.loads(out)["valid"] is False


def test_validate_accepts_good_coloring(tmp_path, capsys):
    gpath = tmp_path / "g.txt"
    cpath = tmp_path / "c.json"
    run_cli(capsys, "gen", "--family", "matched_cliques", "--delta", "8", "--out", str(gpath))
    run_cli(capsys, "color", "--graph", str(gpath), "--seed", "2", "--out", str(cpath))
    code, out, _ = run_cli(
        capsys, "validate", "--graph", str(gpath), "--coloring", str(cpath), "--k", "8"
    )
    assert code == 0
    assert json.loads(out)["valid"] is True


def test_acd_and_classify_json(tmp_path, capsys):
    gpath = tmp_path / "g.txt"
    run_cli(capsys, "gen", "--family", "runaway_pair", "--delta", "16", "--out", str(gpath))
    code, out, _ = run_cli(capsys, "acd", "--graph", str(gpath))
    assert code == 0
    acd = json.loads(out)
    assert acd["verify_ok"] and acd["obs22_ok"]
    assert len(acd["cliques"]) == 2
    code, out, _ = run_cli(capsys, "classify", "--graph", str(gpath))
    assert code == 0
    cls = json.loads(out)
    assert cls["classification"]["labels"] == ["runaway", "runaway"]
    assert cls["partition"]["E"] == [0]


def test_error_object_on_failure(tmp_path, capsys):
    gpath = tmp_path / "k9.txt"
    gpath.write_text("9 36\n" + "\n".join(f"{i} {j}" for i in range(9) for j in range(i + 1, 9)) + "\n")
    code, out, err = run_cli(capsys, "color", "--graph", str(gpath), "--seed", "0")
    assert code == 1
    error = json.loads(err)["error"]
    assert error["type"] == "DeltaPlusOneCliquePresent"
    assert error["phase"] == "precondition"


def test_color_rejects_pg_outside_unit_interval(tmp_path, capsys):
    gpath = tmp_path / "g.txt"
    run_cli(capsys, "gen", "--family", "clique_minus_edge", "--delta", "4", "--out", str(gpath))
    code, _, err = run_cli(capsys, "color", "--graph", str(gpath), "--pg", "2")
    assert code == 1
    error = json.loads(err)["error"]
    assert error["type"] == "BrooksSimError"
    assert error["phase"] == "config"


def test_color_rejects_max_retries_below_one(tmp_path, capsys):
    gpath = tmp_path / "g.txt"
    run_cli(capsys, "gen", "--family", "clique_minus_edge", "--delta", "4", "--out", str(gpath))
    code, _, err = run_cli(capsys, "color", "--graph", str(gpath), "--max-retries", "0")
    assert code == 1
    error = json.loads(err)["error"]
    assert error["phase"] == "config"
    assert "max_retries" in error["message"]


def test_experiment_rejects_pg_outside_unit_interval(capsys):
    error = _error_for(
        capsys, "experiment", "--families", "clique_minus_edge", "--deltas", "16", "--pg", "2"
    )
    assert error["phase"] == "config"


def test_missing_graph_file_is_an_error_object(tmp_path, capsys):
    error = _error_for(capsys, "color", "--graph", str(tmp_path / "absent.txt"))
    assert error["type"] == "BrooksSimError"
    assert error["phase"] == "input"


def test_non_json_coloring_is_an_error_object(tmp_path, capsys):
    gpath = tmp_path / "g.txt"
    cpath = tmp_path / "c.json"
    run_cli(capsys, "gen", "--family", "clique_minus_edge", "--delta", "4", "--out", str(gpath))
    cpath.write_text("not json")
    error = _error_for(
        capsys, "validate", "--graph", str(gpath), "--coloring", str(cpath), "--k", "4"
    )
    assert error["phase"] == "input"


def test_coloring_without_list_is_an_error_object(tmp_path, capsys):
    gpath = tmp_path / "g.txt"
    cpath = tmp_path / "c.json"
    run_cli(capsys, "gen", "--family", "clique_minus_edge", "--delta", "4", "--out", str(gpath))
    cpath.write_text(json.dumps({"colors": [0, 1]}))
    error = _error_for(
        capsys, "validate", "--graph", str(gpath), "--coloring", str(cpath), "--k", "4"
    )
    assert error["phase"] == "input"


@pytest.mark.parametrize("bad", ["abc", "1/0"])
def test_unparsable_epsilon_is_an_error_object(tmp_path, capsys, bad):
    gpath = tmp_path / "g.txt"
    run_cli(capsys, "gen", "--family", "clique_minus_edge", "--delta", "4", "--out", str(gpath))
    error = _error_for(capsys, "color", "--graph", str(gpath), "--epsilon", bad)
    assert error["phase"] == "config"
    assert bad in error["message"]


def test_unparsable_deltas_is_an_error_object(capsys):
    error = _error_for(capsys, "experiment", "--deltas", "1x", "--seeds", "1")
    assert error["phase"] == "config"
    assert "1x" in error["message"]


@pytest.mark.parametrize(
    "argv, field",
    [
        (("--seed", "99999999999999999999"), "seed"),
        (("--seed", str(-(1 << 63) - 1)), "seed"),
        (("--strict-congest", "--congest-c", "0"), "congest_c"),
    ],
)
def test_out_of_range_color_config_is_an_error_object(tmp_path, capsys, argv, field):
    gpath = tmp_path / "g.txt"
    run_cli(capsys, "gen", "--family", "clique_minus_edge", "--delta", "4", "--out", str(gpath))
    error = _error_for(capsys, "color", "--graph", str(gpath), *argv)
    assert error["type"] == "BrooksSimError"
    assert error["phase"] == "config"
    assert field in error["message"]


@pytest.mark.parametrize(
    "text, error_type",
    [
        ("5 5\n0 1\n1 2\n2 3\n3 4\n0 4\n", "BrooksSimError"),  # C_5: compute_acd needs delta >= 3
        ("3 3\n0 1\n0 2\n1 2\n", "DeltaPlusOneCliquePresent"),  # K_3 at delta 2
    ],
    ids=["C_5", "K_3"],
)
def test_delta_two_graph_is_a_precondition_error(tmp_path, capsys, text, error_type):
    gpath = tmp_path / "g.txt"
    gpath.write_text(text)
    error = _error_for(capsys, "color", "--graph", str(gpath))
    assert error["type"] == error_type
    assert error["phase"] == "precondition"


def test_negative_seed_count_is_an_error_object(capsys):
    error = _error_for(capsys, "experiment", "--seeds", "-2")
    assert error["phase"] == "config"
    assert "--seeds" in error["message"]


def test_zero_seed_count_prints_an_empty_sweep(capsys):
    assert run_cli(capsys, "experiment", "--seeds", "0") == (0, "schema_version\n", "")
    assert run_cli(capsys, "experiment", "--seeds", "0", "--format", "json") == (0, "[]\n", "")


def test_parse_error_reports_line(tmp_path, capsys):
    gpath = tmp_path / "bad.txt"
    gpath.write_text("3 2\n0 1\n0 1\n")
    code, out, err = run_cli(capsys, "color", "--graph", str(gpath), "--seed", "0")
    assert code == 1
    error = json.loads(err)["error"]
    assert error["type"] == "GraphFormatError"
    assert error["phase"] == "input"


def test_invalid_utf8_graph_is_a_format_error(tmp_path, capsys):
    gpath = tmp_path / "bad.txt"
    gpath.write_bytes(b"3 1\n0 1\n\xff\n")
    error = _error_for(capsys, "color", "--graph", str(gpath), "--seed", "0")
    assert error["type"] == "GraphFormatError"
    assert error["phase"] == "input"
    assert "UTF-8" in error["message"]


def test_epsilon_outside_range_names_config(tmp_path, capsys):
    gpath = tmp_path / "g.txt"
    run_cli(capsys, "gen", "--family", "clique_minus_edge", "--delta", "4", "--out", str(gpath))
    error = _error_for(capsys, "color", "--graph", str(gpath), "--epsilon", "1/2")
    assert error["phase"] == "config"
    assert "1/2" in error["message"]


@pytest.mark.parametrize(
    "command, hint", [("color", "abc"), ("acd", "1/2"), ("classify", "0"), ("color", "1/0")]
)
def test_bad_epsilon_header_names_input(tmp_path, capsys, command, hint):
    # the file's own hint is input, not a flag: without --epsilon it must parse
    # and lie in (0, 1/4], and --epsilon overrides it
    gpath = tmp_path / "g.txt"
    gpath.write_text(f"# epsilon={hint}\n5 4\n0 1\n0 2\n0 3\n0 4\n")  # the star K_{1,4}
    error = _error_for(capsys, command, "--graph", str(gpath))
    assert error["type"] == "BrooksSimError"
    assert error["phase"] == "input"
    assert "epsilon header" in error["message"] and hint in error["message"]
    code, out, _ = run_cli(capsys, command, "--graph", str(gpath), "--epsilon", "1/8")
    assert code == 0 and json.loads(out)["epsilon"] == "1/8"


@pytest.mark.parametrize(
    "argv, kind",
    [
        (("--families", "mixed", "--deltas", "2"), "UnsupportedFamilyError"),
        (("--families", "foo"), "BrooksSimError"),
    ],
)
def test_experiment_bad_family_names_config(capsys, argv, kind):
    error = _error_for(capsys, "experiment", *argv, "--seeds", "1")
    assert error["type"] == kind
    assert error["phase"] == "config"


@pytest.mark.parametrize(
    "argv",
    [
        ("gen", "--family", "clique_minus_edge", "--delta", "4"),
        ("color", "--graph", "g.txt"),
        ("experiment", "--families", "clique_minus_edge", "--deltas", "4", "--seeds", "1"),
    ],
    ids=lambda argv: argv[0],
)
def test_unwritable_out_names_config(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    run_cli(capsys, "gen", "--family", "clique_minus_edge", "--delta", "4", "--out", "g.txt")
    error = _error_for(capsys, *argv, "--out", str(tmp_path / "missing" / "out"))
    assert error["type"] == "BrooksSimError"
    assert error["phase"] == "config"
    assert "missing" in error["message"]


def test_experiment_csv_schema(tmp_path, capsys):
    out_path = tmp_path / "sweep.csv"
    code, out, _ = run_cli(
        capsys,
        "experiment",
        "--families",
        "clique_minus_edge,matched_cliques",
        "--deltas",
        "16",
        "--seeds",
        "2",
        "--out",
        str(out_path),
    )
    assert code == 0
    lines = out_path.read_text().splitlines()
    header = lines[0].split(",")
    assert header[:6] == ["schema_version", "family", "delta", "seed", "epsilon", "n"]
    assert "min_list_nice_c_pairs" in header
    assert len(lines) == 1 + 4
    for line in lines[1:]:
        row = dict(zip(header, line.split(",")))
        assert row["valid"] == "1"
        assert row["instances"] == "16"


def test_experiment_json_format(tmp_path, capsys):
    code, out, _ = run_cli(
        capsys,
        "experiment",
        "--families",
        "clique_minus_edge",
        "--deltas",
        "16",
        "--seeds",
        "1",
        "--format",
        "json",
    )
    assert code == 0
    rows = json.loads(out)
    assert rows[0]["family"] == "clique_minus_edge"
    assert rows[0]["valid"] == 1


def test_cli_determinism_same_flags(tmp_path, capsys):
    gpath = tmp_path / "g.txt"
    run_cli(capsys, "gen", "--family", "mixed", "--delta", "16", "--out", str(gpath))
    outputs = set()
    for _ in range(3):
        code, out, _ = run_cli(capsys, "color", "--graph", str(gpath), "--seed", "9")
        assert code == 0
        outputs.add(out)
    assert len(outputs) == 1


def test_console_entry_point_subprocess(tmp_path):
    gpath = tmp_path / "g.txt"
    result = subprocess.run(
        [
            sys.executable,
            "-m",
            "brooks_sim.cli",
            "gen",
            "--family",
            "clique_minus_edge",
            "--delta",
            "4",
            "--out",
            str(gpath),
        ],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert gpath.exists()


def test_acd_command_verifies_once(tmp_path, capsys, monkeypatch):
    gpath = tmp_path / "g.txt"
    run_cli(capsys, "gen", "--family", "random_gnd", "--delta", "16", "--out", str(gpath))
    calls = []
    verify = acd_module.verify_acd

    def counted(*args):
        calls.append(args)
        return verify(*args)

    monkeypatch.setattr(acd_module, "verify_acd", counted)
    # a name cli imports from acd would bypass the patch above
    monkeypatch.setattr(cli_module, "verify_acd", counted, raising=False)
    code, out, _ = run_cli(capsys, "acd", "--graph", str(gpath))
    assert code == 0
    assert json.loads(out)["verify_ok"] is True
    assert len(calls) == 1
