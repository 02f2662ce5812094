"""The traced benchmark finds every function its per-layer metrics name.

perfbench/run.py reads single functions' stats by name, and its tracer
wraps only plain functions, so a public function hidden behind a
memoising decorator would end a traced run with a KeyError.  The
teleport-path functions it reads are called here through all five
teleport reports and the five one-instance calls, and the algebra
functions through the two chain reports, verify bmw and verify brauer.
"""

import importlib.util
import json
import os
from pathlib import Path

import numpy as np

from braidtel import cli, gate_teleport, teleport
from braidtel.cli import main
from test_protocol_constants import CACHES

PERFBENCH = Path(__file__).parents[1] / "perfbench"

PHI = 0.4321  # a phi no other test reads, so the M_ij basis, cached per phi, runs its E_00 self-check under the tracer
ALPHA = np.array([0.6, 0.8j])

# perfbench/run.py's teleport-path functions, and the calls each gets below
TRACED_CALLS = {
    "teleport.teleport_standard": 1,
    "teleport.teleport_bell_like": 1,
    "teleport.teleport_with_yb": 1,
    "gate_teleport.teleport_single_gate": 1,
    "gate_teleport.teleport_two_qubit": 1,
    "gate_teleport.clifford_check": 1,  # the correction-clifford row stops at the first non-Clifford R(phi) image
    "teleport.extract_phases": 0,  # the protocols read the closed-form phase_table
    "gates.tl_projector": 1,  # the E_00 self-check of the Bell-like basis at PHI
}


def _load_runner(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    # the runner pins BLAS threads in os.environ when it is imported
    monkeypatch.setattr(os, "environ", dict(os.environ))
    spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
    runner = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(runner)
    return runner


def test_per_layer_metrics_find_their_functions(monkeypatch, capsys):
    runner = _load_runner(monkeypatch)
    tracer = runner.Tracer()
    tracer.install()
    try:
        tracer.begin(0)
        for variant in cli.TELEPORT_VARIANTS:
            argv = ["teleport", variant, "--phi", str(PHI), "--count", "2", "--format", "json"]
            assert main(argv + (["--gate", "R"] if variant == "gate" else [])) == 0
        # the reports run their instances as one batch; teleport.instances counts calls of the one-instance functions
        teleport.teleport_standard(ALPHA)
        teleport.teleport_bell_like(ALPHA, PHI)
        teleport.teleport_with_yb(ALPHA, 0, 1, PHI)
        gate_teleport.teleport_single_gate(np.eye(2), ALPHA, 1, 0)
        gate_teleport.teleport_two_qubit(np.array([1, 0, 0, 0]), 0, 1, 1, 0)
        tracer.end()
        metrics = runner.per_layer(tracer, [1.0, 1.0], [True, False])
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert metrics["teleport.instances"]["value"] == 5
    assert {name: tracer.stats[name][0] for name in TRACED_CALLS} == TRACED_CALLS


def _relations(capsys) -> int:
    return sum(entry.get("relations", 0) for entry in json.loads(capsys.readouterr().out)["results"])


def test_traced_chain_reports_charge_check_brauer_to_cold_calls_only(monkeypatch, capsys):
    """The verify brauer relation rows are cached by --sites, so only the first report runs check_brauer."""
    for cache in CACHES:
        cache.cache_clear()
    runner = _load_runner(monkeypatch)
    tracer = runner.Tracer()
    tracer.install()
    try:
        tracer.begin(0)
        assert main(["verify", "bmw", "--sites", "8", "--phi", str(PHI), "--format", "json"]) == 0
        relations = _relations(capsys)
        assert main(["verify", "brauer", "--sites", "8", "--format", "json"]) == 0
        relations += _relations(capsys)
        tracer.end()
        metrics = runner.per_layer(tracer, [1.0, 1.0], [True, False])
        cold = tracer.stats["algebra.check_brauer"][0]
        tracer.begin(1)
        assert main(["verify", "brauer", "--sites", "8", "--seed", "3", "--format", "json"]) == 0
        tracer.end()
        warm = tracer.stats["algebra.check_brauer"][0] - cold
    finally:
        tracer.uninstall()
        for cache in CACHES:
            cache.cache_clear()
    capsys.readouterr()
    assert {name for name in metrics if name.startswith("algebra.")} == {
        "algebra.check_all.ms", "algebra.check_brauer.ms", "algebra.build_rep.ms", "algebra.relations"}
    assert metrics["algebra.relations"]["value"] == relations
    assert (cold, warm) == (1, 0)

