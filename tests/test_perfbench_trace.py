"""The traced benchmark finds every function its per-layer metrics name.

perfbench/run.py reads single functions' stats by name, and its tracer
wraps only plain functions, so a public function hidden behind a
memoising decorator would end a traced run with a KeyError.
"""

import importlib.util
import os
from pathlib import Path

from braidtel import teleport
from braidtel.cli import main

PERFBENCH = Path(__file__).parents[1] / "perfbench"


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
        assert main(["teleport", "yang-baxter", "--count", "2", "--format", "json"]) == 0
        # the report runs its instances as one batch; teleport.instances counts calls of the one-instance functions
        for seed in range(2):
            teleport.teleport_with_yb([1, 0], 0, 1, 0.3, rng_seed=seed)
        tracer.end()
        metrics = runner.per_layer(tracer, [1.0, 1.0], [True, False])
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert metrics["teleport.instances"]["value"] == 2
