"""Every package cache is hit by the benchmark's own warm traffic.

A cache earns its place by the reports a workload sends, not by traffic
that is assumed: a per-phi cache that every op misses because each op
draws a fresh phi only holds memory, and a cache that is hit only while
another cache builds its value is paid for once per process.  As
perfbench/run.py does, op 1 of each perfbench workload is run from cold
caches to warm them; then op 2 runs, and each module-level cache of the
package is its own case, which fails when op 2 of no workload hit it.
A cache that fails this is removed, or a workload that hits it warm is
added to perfbench first.
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


def _name(cache):
    return f"{cache.__module__}.{cache.__qualname__}"


def _build_ops():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", PERFBENCH / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads.WORKLOADS, workloads.build_ops


def _run(op):
    for argv in op.reports:
        assert cli.main([*argv, "--format", "json"]) == 0, argv


def _hits():
    return {_name(cache): cache.cache_info().hits for cache in CACHES}


@pytest.fixture(scope="module")
def warm_hits():
    """Hits per workload and cache name in op 2, each workload warmed by its op 1 from cold caches."""
    workloads, build_ops = _build_ops()
    warm = {}
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            for workload in workloads:
                for cache in CACHES:
                    cache.cache_clear()
                warm_up, op = build_ops(workload, SEED)[:2]
                _run(warm_up)
                before = _hits()
                _run(op)
                warm[workload] = {name: hits - before[name] for name, hits in _hits().items()}
        return warm
    finally:
        for cache in CACHES:
            cache.cache_clear()


@pytest.mark.parametrize("name", [_name(cache) for cache in CACHES])
def test_cache_is_hit_by_the_benchmark_workloads(warm_hits, name):
    assert sum(hits[name] for hits in warm_hits.values()) > 0, f"no warm op of any workload hits {name}"


def test_op_2_of_chain_hits_the_brauer_identity_cache(warm_hits):
    """verify brauer's relation rows and state identities read neither --phi nor --seed, so a warm op reads both
    from one cache entry."""
    assert warm_hits["chain"]["braidtel.cli._brauer_rows"] == 1
