"""Every package cache is hit by the benchmark's own traffic.

A cache earns its place by the reports a workload sends, not by traffic
that is assumed: a per-phi cache that every op misses because each op
draws a fresh phi only holds memory.  The first two ops of each
perfbench workload are run here once, from cold caches, as
perfbench/run.py runs them, and each module-level cache of the package
is its own case, which fails when that cache was never hit.  A cache
that fails this is removed, or a workload that hits it is added to
perfbench first.
"""

import contextlib
import importlib.util
import io
from pathlib import Path

import pytest

from braidtel import cli
from test_protocol_constants import CACHES

PERFBENCH = Path(__file__).parents[1] / "perfbench"

SEED = 2611
OPS = 2


def _name(cache):
    return f"{cache.__module__}.{cache.__qualname__}"


def _build_ops():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", PERFBENCH / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads.WORKLOADS, workloads.build_ops


@pytest.fixture(scope="module")
def hits():
    """Hits per cache name after the first OPS ops of every workload, run once from cold caches."""
    workloads, build_ops = _build_ops()
    for cache in CACHES:
        cache.cache_clear()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            for workload in workloads:
                for op in build_ops(workload, SEED)[:OPS]:
                    for argv in op.reports:
                        assert cli.main([*argv, "--format", "json"]) == 0, argv
        return {_name(cache): cache.cache_info().hits for cache in CACHES}
    finally:
        for cache in CACHES:
            cache.cache_clear()


@pytest.mark.parametrize("name", [_name(cache) for cache in CACHES])
def test_cache_is_hit_by_the_benchmark_workloads(hits, name):
    assert hits[name] > 0, f"no workload hits {name}"
