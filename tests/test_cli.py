"""Command line behaviour: exit codes, report shapes, determinism."""

import json

import pytest

from braidtel.cli import _fmt, build_parser, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


def test_fmt_fifteen_significant_digits():
    assert _fmt(0.0) == "0"
    assert _fmt(1 / 3) == "0.333333333333333"
    assert _fmt(2.5e-16) == "2.5e-16"


def test_verify_bmw_passes(capsys):
    code, out = run_cli(capsys, "verify", "bmw", "--phi", "0.5")
    assert code == 0
    assert "overall: PASS" in out
    assert "Tangle" in out


def test_verify_fails_with_impossible_tolerance(capsys):
    code, out = run_cli(capsys, "verify", "bmw", "--tolerance", "1e-20")
    assert code == 1
    assert "overall: FAIL" in out


def test_unknown_kind_is_a_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["verify", "nonsense"])
    assert exc.value.code == 2


def test_sites_range_is_enforced():
    with pytest.raises(SystemExit) as exc:
        main(["verify", "bmw", "--sites", "11"])
    assert exc.value.code == 2


def test_json_schema_keys(capsys):
    code, out = run_cli(capsys, "verify", "brauer", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert list(doc) == ["command", "config", "results", "pass"]
    assert doc["command"] == "verify brauer"
    assert doc["pass"] is True
    assert doc["config"]["tool_version"]


def test_json_reports_are_byte_identical(capsys):
    args = ("teleport", "yang-baxter", "--phi", "0.3", "--seed", "7", "--count", "20", "--format", "json")
    _, first = run_cli(capsys, *args)
    _, second = run_cli(capsys, *args)
    assert first == second


def test_seed_changes_the_histogram(capsys):
    _, one = run_cli(capsys, "teleport", "standard", "--count", "25", "--format", "json")
    _, two = run_cli(capsys, "teleport", "standard", "--count", "25", "--seed", "8", "--format", "json")
    hist = lambda doc: [r for r in json.loads(doc)["results"] if r["label"] == "outcomes"]
    assert hist(one) != hist(two)


def test_output_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out = run_cli(capsys, "verify", "constraints", "--format", "json", "--output", str(target))
    assert code == 0
    assert out == ""
    doc = json.loads(target.read_text())
    assert doc["pass"] is True


def test_env_tolerance_override(monkeypatch, capsys):
    monkeypatch.setenv("BMW_TOL", "0.5")
    code, out = run_cli(capsys, "verify", "bmw")
    assert code == 0
    assert "tolerance=0.5" in out


def test_explicit_tolerance_beats_env(monkeypatch, capsys):
    monkeypatch.setenv("BMW_TOL", "1e-30")
    code, _ = run_cli(capsys, "verify", "bmw", "--tolerance", "1e-8")
    assert code == 0


def test_solve_lists_three_classes(capsys):
    code, out = run_cli(capsys, "solve", "--mn", "00", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    labels = [r["label"] for r in doc["results"]]
    assert labels == ["class-count", "class-1", "class-2", "class-3"]
    forms = [r["printed-form"] for r in doc["results"][1:]]
    assert forms == ["rotating:+", "rotating:-", "exchange"]


def test_teleport_gate_reports_clifford_corrections(capsys):
    code, out = run_cli(capsys, "teleport", "gate", "--gate", "T", "--count", "10", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    entry = [r for r in doc["results"] if r["label"] == "correction-clifford"][0]
    assert entry["value"] is True


def test_teleport_two_qubit_minimum_fidelity(capsys):
    code, out = run_cli(capsys, "teleport", "two-qubit", "--count", "12", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    entry = [r for r in doc["results"] if r["label"] == "min-fidelity"][0]
    assert float(entry["value"]) >= 1 - 1e-10


def test_analyze_braid_gate(capsys):
    code, out = run_cli(capsys, "analyze", "--gate", "B", "--phi", "0", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    params = [r for r in doc["results"] if r["label"] == "canonical-params"][0]
    assert params["in_pi_units"] == "(0.25, 0.25, 0)"
    power = [r for r in doc["results"] if r["label"] == "entangling-power"][0]
    assert power["value"] == "1"


def test_analyze_identity_has_no_entangling_power(capsys):
    code, out = run_cli(capsys, "analyze", "--gate", "I", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    power = [r for r in doc["results"] if r["label"] == "entangling-power"][0]
    assert power["value"] == "0"


def test_parser_knows_all_subcommands():
    parser = build_parser()
    for argv in (["verify", "bmw"], ["teleport", "standard"], ["solve"], ["analyze"]):
        args = parser.parse_args(argv)
        assert args.command == argv[0]


@pytest.mark.parametrize(
    "argv, bmw_tol",
    [
        (["teleport", "standard", "--seed", "-1"], None),
        (["verify", "bmw", "--phi", "nan"], None),
        (["verify", "bmw", "--phi", "inf"], None),
        (["verify", "bmw", "--tolerance", "nan"], None),
        (["verify", "bmw"], "nan"),
        (["verify", "bmw", "--tolerance", "inf"], None),
        (["verify", "constraints", "--output", "{missing}/report.json"], None),
    ],
    ids=["seed-negative", "phi-nan", "phi-inf", "tolerance-nan", "env-tolerance-nan",
         "tolerance-inf", "output-missing-dir"],
)
def test_bad_values_are_usage_errors(argv, bmw_tol, tmp_path, monkeypatch, capsys):
    if bmw_tol is None:
        monkeypatch.delenv("BMW_TOL", raising=False)
    else:
        monkeypatch.setenv("BMW_TOL", bmw_tol)
    argv = [arg.format(missing=tmp_path / "missing") for arg in argv]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert [line for line in err.splitlines() if "error:" in line] == [err.splitlines()[-1]]
