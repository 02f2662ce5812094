"""Command line behaviour: exit codes, report shapes, determinism."""

import argparse
import json
import math

import numpy as np
import pytest

from braidtel import cli
from braidtel.algebra import RelationReport
from braidtel.cli import _fmt, build_parser, main
from braidtel.gate_teleport import clifford_check
from braidtel.gates import H, phase_shift
from braidtel.linalg import max_abs_diff, transpose
from braidtel.tangles import skew_transpose


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


def test_sites_range_is_enforced(capsys):
    code, out = run_cli(capsys, "verify", "bmw", "--sites", "129")
    assert code == 0 and "overall: PASS" in out
    for sites in ("1", "0", "-3"):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "bmw", "--sites", sites])
        assert exc.value.code == 2


def test_sites_help_reads_the_bound_that_main_checks(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--help"])
    assert exc.value.code == 0
    assert "relation suites, at least 2 (default 3)" in " ".join(capsys.readouterr().out.split())
    with pytest.raises(SystemExit) as exc:
        main(["verify", "bmw", "--sites", "1"])
    assert exc.value.code == 2
    assert "sites must be at least 2, got 1" in capsys.readouterr().err


def test_a_million_sites_report_what_three_sites_do(monkeypatch, capsys):
    def expand(report):
        raise AssertionError(f"{report.family} expanded its per-site entries")

    monkeypatch.setattr(RelationReport, "entries", property(expand))
    families = {}
    for sites in ("3", "1000000"):
        code, out = run_cli(capsys, "verify", "bmw", "--sites", sites, "--phi", "0.3", "--format", "json")
        assert code == 0
        families[sites] = {r["label"]: r for r in json.loads(out)["results"] if "relations" in r}
    residuals = {sites: {k: r["residual"] for k, r in reports.items()} for sites, reports in families.items()}
    assert residuals["1000000"] == residuals["3"]
    n = 10**6
    assert families["1000000"]["Braid"]["relations"] == (n - 2) + (n - 2) * (n - 3) // 2


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


@pytest.mark.parametrize("kind", ["constraints", "brauer"])
def test_identity_reports_do_not_read_the_seed(kind, capsys):
    """Their identity rows are equalities of maps, so --seed 1 and --seed 42 give the same results."""
    results = []
    for seed in ("1", "42"):
        code, out = run_cli(capsys, "verify", kind, "--phi", "0.3", "--seed", seed, "--format", "json")
        assert code == 0
        results.append(json.loads(out)["results"])
    assert results[0] == results[1]


@pytest.mark.parametrize("phi", ["0", "0.3", "-2.1"])
def test_transfer_identity_1_prints_the_bell_like_every_branch(phi, capsys):
    """Both rows read one builder, _bell_like_protocol(phi), so they print one string."""

    def residual(label, *argv):
        code, out = run_cli(capsys, *argv, "--phi", phi, "--format", "json")
        assert code == 0
        (row,) = [r for r in json.loads(out)["results"] if r["label"] == label]
        return row["residual"]

    constraints = residual("transfer-identity-1", "verify", "constraints")
    assert constraints == residual("every-branch", "teleport", "bell-like", "--count", "1")


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


# with the multiples of pi/8 on [-pi, pi], 0 among them: R(phi)'s row reads Clifford at the even ones
# only, so the row's two checks meet both outcomes
@pytest.mark.parametrize("phi", [0.0, 0.3, -2.1] + [k * math.pi / 8 for k in range(-8, 9) if k])
@pytest.mark.parametrize("gate", cli.TELEPORT_GATES)
def test_correction_clifford_reads_as_all_sixteen_checks(gate, phi):
    protocol, _, extra = cli._protocol(argparse.Namespace(action="gate", gate=gate, phi=phi))
    sixteen = all(clifford_check(c)[0] for c in protocol.table.reshape(-1, 2, 2))
    assert extra == [{"label": "correction-clifford", "gate": gate, "value": sixteen}]


def test_correction_clifford_row_reads_the_z_image(monkeypatch):
    """R(pi/8) H maps X to Z but Z to a non-Clifford image: every listed gate has a Clifford Z image, this one not."""
    monkeypatch.setattr(cli, "phase_shift", lambda phi: phase_shift(math.pi / 8) @ H)
    protocol, _, extra = cli._protocol(argparse.Namespace(action="gate", gate="R", phi=0.0))
    assert extra[0]["value"] is False
    assert not all(clifford_check(c)[0] for c in protocol.table.reshape(-1, 2, 2))


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


@pytest.mark.parametrize("phi", ["-6.02704727539205e-05", "-1E-7", "-.5", "-3"])
def test_negative_phi_in_any_float_form_is_a_value(capsys, phi):
    code, out = run_cli(capsys, "verify", "bmw", "--phi", phi, "--format", "json")
    assert code == 0
    assert json.loads(out)["config"]["phi"] == _fmt(float(phi))


def test_back_to_back_runs_share_no_arguments(capsys):
    assert cli._parser() is cli._parser()
    class_one = cli.solve_pauli_eigenvalues(0, 0)[0].describe()
    runs = [
        (["verify", "spectral", "--class", "3"], "class", 3),
        (["verify", "spectral"], "class", 1),
        (["teleport", "gate", "--gate", "H", "--count", "2"], "gate", "H"),
        (["teleport", "gate", "--count", "2"], "gate", "T"),
    ]
    docs = []
    for argv, key, want in runs:
        code, out = run_cli(capsys, *argv, "--format", "json")
        assert code == 0
        docs.append(json.loads(out))
        assert docs[-1]["config"][key] == want
    assert docs[1]["results"][0]["value"] == class_one != docs[0]["results"][0]["value"]
    assert docs[3]["results"][-1]["gate"] == "T"


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
        (["verify", "bmw", "--phi", "-inf"], None),
        (["verify", "bmw", "--phi", "-nan"], None),
        (["verify", "bmw", "--tolerance", "-inf"], None),
    ],
    ids=["seed-negative", "phi-nan", "phi-inf", "tolerance-nan", "env-tolerance-nan",
         "tolerance-inf", "output-missing-dir", "phi-minus-inf", "phi-minus-nan", "tolerance-minus-inf"],
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


def test_unwritable_output_is_rejected_before_the_report(monkeypatch):
    def handler(cfg):
        raise AssertionError("the report was computed before --output was checked")

    monkeypatch.setitem(cli._REPORTS, "constraints", handler)
    with pytest.raises(SystemExit) as exc:
        main(["verify", "constraints", "--output", "/nonexistent/x.json"])
    assert exc.value.code == 2


def test_directory_output_is_rejected_before_the_report(tmp_path, monkeypatch, capsys):
    def handler(cfg):
        raise AssertionError("the report was computed before --output was checked")

    monkeypatch.setitem(cli._REPORTS, "analyze", handler)
    with pytest.raises(SystemExit) as exc:
        main(["analyze", "--gate", "I", "--output", str(tmp_path)])
    assert exc.value.code == 2
    assert capsys.readouterr().err.splitlines()[-1].endswith(f"cannot write --output {tmp_path}: Is a directory")


def test_the_parser_and_the_report_table_cover_each_other():
    choices = {name: {str(c) for a in sub._actions if not a.option_strings for c in a.choices}
               for name, (sub, _, _) in cli._grammar().items()}
    keys = choices.pop("verify") | set(choices)
    assert keys == set(cli._REPORTS)


@pytest.mark.parametrize("argv", [["verify", "bmw"], ["teleport", "standard", "--count", "1"], ["solve"], ["analyze"]])
def test_config_echoes_every_field_for_every_command(argv, capsys):
    code, out = run_cli(capsys, *argv, "--format", "json")
    assert code == 0
    assert list(json.loads(out)["config"]) == [
        "tool_version", "phi", "sites", "seed", "tolerance", "basis", "mn", "class", "gate", "count"
    ]


@pytest.mark.parametrize("variant", cli.TELEPORT_VARIANTS)
def test_input_and_measurement_streams_are_independent(variant, monkeypatch, capsys):
    real = np.random.default_rng
    starts = []

    def recording_rng(seed=None):
        rng = real(seed)
        starts.append(rng.bit_generator.state["state"])
        return rng

    monkeypatch.setattr(np.random, "default_rng", recording_rng)
    assert main(["teleport", variant, "--count", "1", "--format", "json"]) == 0
    ket_stream, measure_stream = starts
    assert ket_stream != measure_stream


def test_text_report_writes_a_missing_worst_relation_as_json_does(capsys):
    code, out = run_cli(capsys, "verify", "bmw", "--sites", "2")
    assert code == 0
    empty = [line for line in out.splitlines() if "relations=0" in line]
    assert [line.split("]")[1].split()[0] for line in empty] == ["Braid", "Tangle"]
    assert all(line.endswith("worst=null") for line in empty)
    assert "None" not in out


def _loop_random_pair_residual(seed: int) -> float:
    """The per-pair loop that verify skew-transpose ran before its one stacked draw, kept as its oracle."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(20):
        bmat = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        cmat = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        worst = max(worst, max_abs_diff(skew_transpose(bmat, cmat), transpose(cmat @ bmat)))
    return worst


def test_random_pairs_of_skew_transpose_are_the_per_pair_loop_bit_for_bit(monkeypatch, capsys):
    seen = []
    real = cli._check
    monkeypatch.setattr(cli, "_check", lambda label, residual, tol, **extra:
                        seen.append((label, residual)) or real(label, residual, tol, **extra))
    seeds = (*range(60), 12345, 999999)
    for seed in seeds:
        assert main(["verify", "skew-transpose", "--seed", str(seed), "--format", "json"]) == 0
    capsys.readouterr()
    drawn = [residual for label, residual in seen if label == "definition-on-random-pairs"]
    looped = [_loop_random_pair_residual(seed) for seed in seeds]
    assert drawn == looped
    assert min(looped) > 0.0
