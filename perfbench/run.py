"""braidtel benchmark: one closed-loop client issuing CLI reports in-process.

    python3 perfbench/run.py --workload chain|protocols|sweep --seed N \
        --seconds S --trace 0|1

Run from the root of a source checkout (the package is imported from
src/).  Each invocation is one fresh single-threaded process.  It runs
one discarded warm-up op, then issues ops back to back for S seconds;
before every op it runs a fixed reference kernel, so that op time can be
read relative to host speed.  Spread over the same window, it times
several fresh interpreters that only import braidtel.cli and build the
workload inputs (setup_s).  Every report is checked (see workloads.py).
The last stdout line is {"correct", "attempted", "failed", "metrics"}:
the end-to-end metrics with --trace 0, the per-layer metrics with
--trace 1.  The traced run traces every other op and reports the tracing
overhead from the two interleaved sets.  Exit status is 1 if any op
failed, 2 on a usage error or when the sources are missing.
"""

from __future__ import annotations

import os

# BLAS threads must be pinned before numpy is imported, here and in the
# setup probes, which inherit this environment.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import io
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from tracing import Tracer
from workloads import WORKLOADS, CheckFailed, build_ops

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_PROBES = 5
SETUP_PROBE_TIMEOUT_S = 60
KERNEL_REPS = 2  # reference-kernel runs before each op
MIN_OPS = 4  # so a traced run has two traced and two untraced ops


def _clock() -> float:
    # CLOCK_MONOTONIC is system-wide, so a child's reading compares with ours.
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not 0 < args.seconds <= 120:
        parser.error("--seconds must be in (0, 120]")
    return args


def _load_program(workload: str, seed: int):
    """Import the CLI from the checkout and build the run's ops."""
    sys.path.insert(0, str(SRC))
    import braidtel.cli as cli

    return cli, build_ops(workload, seed)


# ----------------------------------------------------------------- setup


def _setup_probe(args) -> None:
    _load_program(args.workload, args.seed)
    print(repr(_clock()))


class SetupProbes:
    """Fresh interpreters timed from spawn until their inputs are ready.

    The probes are spread over the measured window (one is due every
    seconds / SETUP_PROBES) rather than run back to back, so their median
    sees the same mix of host speeds as the ops.
    """

    def __init__(self, args):
        self.cmd = [
            sys.executable, str(Path(__file__).resolve()), "--setup-probe",
            "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
        ]
        self.gap = args.seconds / SETUP_PROBES
        self.due = time.perf_counter()
        self.samples: list[float] = []

    def _probe(self) -> float:
        start = _clock()
        done = subprocess.run(self.cmd, capture_output=True, text=True, timeout=SETUP_PROBE_TIMEOUT_S, check=True)
        return float(done.stdout.strip().splitlines()[-1]) - start

    def maybe_run(self) -> None:
        if len(self.samples) < SETUP_PROBES and time.perf_counter() >= self.due:
            self.samples.append(self._probe())
            self.due += self.gap

    def finish(self) -> list[float]:
        while len(self.samples) < SETUP_PROBES:
            self.samples.append(self._probe())
        return self.samples


# --------------------------------------------------------- reference kernel


class ReferenceKernel:
    """Fixed work shaped like the ops: small and medium complex matmuls plus a Python loop.

    Its median time in a run measures how fast the host was during that
    run; op time divided by it drifts less than op time alone.
    """

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)

        def cmat(d):
            return rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))

        self.small = [cmat(4) for _ in range(4)]
        self.medium = [cmat(64) for _ in range(2)]
        self.large = [cmat(128) for _ in range(2)]

    def __call__(self) -> float:
        start = time.perf_counter()
        s0, s1, s2, s3 = self.small
        acc = 0j
        for _ in range(300):
            acc += (s0 @ s1 @ s2 @ s3)[0, 0]
        m0, m1 = self.medium
        for _ in range(8):
            acc += (m0 @ m1)[0, 0]
        acc += (self.large[0] @ self.large[1])[0, 0]
        x = 0.0
        for k in range(20000):
            x += (k % 7) * 0.5
        elapsed = time.perf_counter() - start
        if acc != acc or x <= 0:  # keep the results live
            raise RuntimeError("reference kernel produced NaN")
        return elapsed


# -------------------------------------------------------------------- ops


def _capture(cli, argv: list[str]) -> tuple[int, str]:
    """One `braidtel ... --format json` run in this process; (exit code, stdout)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main([*argv, "--format", "json"])
    return rc, buf.getvalue()


def run_report(cli, argv: list[str]) -> tuple[int, dict]:
    rc, text = _capture(cli, argv)
    return rc, json.loads(text)


class Loop:
    """Closed loop: kernel, op, check; the next op starts when this one is checked."""

    def __init__(self, cli, ops, kernel):
        self.cli = cli
        self.ops = iter(ops)
        self.kernel = kernel
        self.tracer = None  # when set, every other op is traced
        self.between = None  # when set, called before each op, outside its timing
        self.op_times: list[float] = []
        self.traced: list[bool] = []  # parallel to op_times
        self.kernel_times: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.incorrect = 0

    def _execute(self, op) -> tuple[float, list]:
        """Run the op's reports back to back; only this part is timed (and traced)."""
        outputs = []
        tracing = self.tracer is not None and self.attempted % 2 == 0
        if tracing:
            self.tracer.begin(op.index)
        try:
            start = time.perf_counter()
            for argv in op.reports:
                outputs.append((argv, *_capture(self.cli, argv)))
            elapsed = time.perf_counter() - start
        finally:
            if tracing:
                self.tracer.end()
        return elapsed, tracing, outputs

    def step(self) -> bool:
        op = next(self.ops, None)
        if op is None:
            return False
        if self.between:
            self.between()
        for _ in range(KERNEL_REPS):
            self.kernel_times.append(self.kernel())
        self.attempted += 1
        try:
            elapsed, tracing, outputs = self._execute(op)
            for argv, rc, _ in outputs:
                if rc != 0:
                    raise CheckFailed(f"exit code {rc}: {' '.join(argv)}")
            op.check([json.loads(text) for _, _, text in outputs], lambda argv: run_report(self.cli, argv))
        except CheckFailed as exc:
            self.failed += 1
            self.incorrect += 1
            print(f"op {op.index}: check failed: {exc}", file=sys.stderr)
            return True
        except Exception:  # a crash in the program under test is a failed op, not a benchmark crash
            self.failed += 1
            print(f"op {op.index}: raised", file=sys.stderr)
            traceback.print_exc(file=sys.stderr)
            return True
        self.op_times.append(elapsed)
        self.traced.append(tracing)
        return True

    def run_for(self, seconds: float) -> None:
        """Issue ops until `seconds` of wall time have passed (at least MIN_OPS)."""
        start = self.attempted
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline or self.attempted - start < MIN_OPS:
            if not self.step():
                break


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(op_times, kernel_times, setup) -> dict:
    # Kernel runs are 10 ms snapshots of a host with two speeds, so their
    # median jumps between the two; their mean follows the share of slow
    # time, as ops spanning several speed changes do.
    kernel_mean = statistics.fmean(kernel_times)
    op_median = statistics.median(op_times)
    return {
        "setup_s": _metric(statistics.median(setup), "s"),
        "ops_per_s": _metric(len(op_times) / sum(op_times), "ops/s"),
        "op_p50_ms": _metric(op_median * 1e3, "ms"),
        "op_p50_ref": _metric(op_median / kernel_mean, "ref"),
        "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer(tracer, op_times, traced_flags) -> dict:
    traced = [t for t, flag in zip(op_times, traced_flags) if flag]
    untraced = [t for t, flag in zip(op_times, traced_flags) if not flag]
    n = len(traced)
    counts = tracer.counts
    calls = {name: stat[0] for name, stat in tracer.stats.items()}
    total = {name: stat[1] for name, stat in tracer.stats.items()}
    metrics: dict[str, dict] = {}

    def per_op_calls(name):
        metrics[f"{name}.calls"] = _metric(calls[name] / n, "count")

    def per_op_ms(name):
        metrics[f"{name}.ms"] = _metric(total[name] * 1e3 / n, "ms")

    metrics["cli.main.self_ms"] = _metric(tracer.stats["cli.main"][2] * 1e3 / n, "ms")
    for name in ("linalg.embed", "linalg.mul", "linalg.max_abs_diff", "linalg.is_unitary", "linalg.kron"):
        per_op_calls(name)
        per_op_ms(name)
    metrics["linalg.embed.mb"] = _metric(counts["linalg.embed.bytes"] / 2**20 / n, "MB")
    metrics["linalg.mul.gflop"] = _metric(counts["linalg.mul.flops"] / 1e9 / n, "GFLOP")
    for name in ("algebra.check_all", "algebra.check_brauer", "algebra.build_rep"):
        per_op_ms(name)
    metrics["algebra.relations"] = _metric(counts["algebra.relations"] / n, "count")
    for name in ("gates.tl_projector", "gates.yb_clifford"):
        per_op_calls(name)
        per_op_ms(name)
    per_op_calls("gates.bell_state")
    per_op_calls("teleport.extract_phases")
    per_op_ms("teleport.extract_phases")
    yb_instances = calls["teleport.teleport_with_yb"]
    metrics["teleport.extract_phases.per_instance"] = _metric(
        calls["teleport.extract_phases"] / yb_instances if yb_instances else 0.0, "ratio"
    )
    for name in ("teleport.teleport_standard", "teleport.teleport_bell_like", "teleport.teleport_with_yb"):
        per_op_ms(name)
    instances = sum(
        calls[f"teleport.{f}"] for f in ("teleport_standard", "teleport_bell_like", "teleport_with_yb")
    ) + calls["gate_teleport.teleport_single_gate"] + calls["gate_teleport.teleport_two_qubit"]
    metrics["teleport.instances"] = _metric(instances / n, "count")
    per_op_ms("gate_teleport.teleport_single_gate")
    per_op_ms("gate_teleport.teleport_two_qubit")
    per_op_calls("gate_teleport.clifford_check")
    per_op_ms("gate_teleport.clifford_check")
    for name in ("tangles.solve_pauli_eigenvalues", "tangles.spectral_constraint_residuals"):
        per_op_calls(name)
        per_op_ms(name)
    per_op_ms("tangles.general_constraint_residuals")
    per_op_ms("tangles.skew_agreement_deviation")
    evaluations = calls["tangles.spectral_constraint_residuals"]
    metrics["tangles.classes_per_evaluation"] = _metric(
        counts["tangles.classes"] / evaluations if evaluations else 0.0, "ratio"
    )
    per_op_calls("entanglement.canonical_params")
    per_op_ms("entanglement.canonical_params")
    analyzed = calls["entanglement.canonical_params"]
    metrics["entanglement.canonical_gate.calls"] = _metric(
        calls["entanglement.canonical_gate"] / analyzed if analyzed else 0.0, "count"
    )
    for layer, (self_s, entry_s) in tracer.by_layer().items():
        metrics[f"layer.{layer}.self_ms"] = _metric(self_s * 1e3 / n, "ms")
        metrics[f"layer.{layer}.entry_ms"] = _metric(entry_s * 1e3 / n, "ms")
    # traced and untraced ops alternate, so host-speed drift hits both alike
    metrics["trace.untraced_ops_per_s"] = _metric(len(untraced) / sum(untraced), "ops/s")
    metrics["trace.traced_ops_per_s"] = _metric(n / sum(traced), "ops/s")
    metrics["trace.overhead_pct"] = _metric(
        (statistics.median(traced) / statistics.median(untraced) - 1) * 100, "%"
    )
    return metrics


def main(argv=None) -> int:
    if not (SRC / "braidtel" / "cli.py").is_file():
        print(f"perfbench: no braidtel sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    args = _parse_args(argv)
    if args.setup_probe:
        _setup_probe(args)
        return 0

    cli, ops = _load_program(args.workload, args.seed)
    loop = Loop(cli, ops, ReferenceKernel())
    loop.step()  # warm-up op: fills lazy imports and caches, then discarded
    loop.op_times.clear()
    loop.traced.clear()
    loop.kernel_times.clear()
    warm_failed = loop.failed
    loop.attempted = loop.failed = 0

    setup = []
    if args.trace:
        loop.tracer = Tracer()
        loop.tracer.install()
        try:
            loop.run_for(args.seconds)
        finally:
            loop.tracer.uninstall()
        if not (any(loop.traced) and not all(loop.traced)):
            print("perfbench: too many ops failed to compare traced and untraced ops", file=sys.stderr)
            return 1
        metrics = per_layer(loop.tracer, loop.op_times, loop.traced)
        OUT.mkdir(exist_ok=True)
        loop.tracer.write_spans(OUT / f"spans-{args.workload}-{args.seed}.json")
    else:
        probes = SetupProbes(args)
        loop.between = probes.maybe_run
        loop.run_for(args.seconds)
        setup = probes.finish()
        if not loop.op_times:
            print(f"perfbench: all {loop.attempted} ops failed; no metrics", file=sys.stderr)
            return 1
        metrics = end_to_end(loop.op_times, loop.kernel_times, setup)

    failed = loop.failed + warm_failed
    attempted = loop.attempted + 1
    correct = loop.incorrect == 0
    print(
        f"# workload={args.workload} seed={args.seed} ops={len(loop.op_times)} "
        f"ref_kernel_ms={statistics.fmean(loop.kernel_times) * 1e3:.4f} "
        f"setup_samples_s={','.join(f'{s:.4f}' for s in setup)}"
    )
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
