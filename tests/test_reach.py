"""Every package function and method is reached by some report form, or is named here with its reason.

Each of the 64 report forms of test_phi_range._report_forms() runs once in text and once in JSON,
and the README tour once, from cold caches, under sys.setprofile; a function counts as reached when
its code object is called.  Every package cache, cli._parser and cli._grammar among them, is cleared
after the forms are read off the parser, so build_parser, _grammar and every cached builder run
inside the profile.  A function that neither the forms nor the tour reach and that ALLOWED does not name
fails the test: code that only the tests call belongs in tests/ (registers.py, tables.py).  An
ALLOWED entry that a report does reach fails as well, so the list only shrinks with the package.
"""

import contextlib
import functools
import importlib
import inspect
import io
import pkgutil
import sys
from pathlib import Path

import pytest

import braidtel
from braidtel import cli, teleport
from test_phi_range import _report_forms
from test_protocol_constants import CACHES
from test_readme import run_readme_tour

PACKAGE_DIR = str(Path(braidtel.__file__).parent)

# qualified name -> why no report reaches it
ALLOWED = {
    **dict.fromkeys(["gate_teleport.teleport_single_gate", "gate_teleport.teleport_two_qubit",
                     "teleport.teleport_standard", "teleport.teleport_bell_like", "teleport.extract_phases",
                     "linalg.embed"], "perfbench/run.py reads it by name"),
    "algebra.RelationReport.entries": "perfbench/tracing.py counts relations by it",
    **dict.fromkeys(["gate_teleport.b0_reverse_residual", "gate_teleport.qp_factorization_residual",
                     "gate_teleport.single_gate_closed_form_residuals", "gate_teleport.r_gate_hadamard",
                     "gate_teleport.r_gate_t", "gates.yb_spectral", "teleport.completeness_residuals",
                     "teleport.transpose_asymmetry_margin", "teleport.u_gate", "teleport.v_gate",
                     "teleport.w_braid_closed_form"],
                    "waits for ROADMAP item 2's verify identities"),
}


def _function(obj):
    """The function written in the package behind a function, lru_cache, classmethod, property or cached_property."""
    for attr in ("fget", "func", "__func__", "__wrapped__"):
        obj = getattr(obj, attr, obj)
    code = getattr(obj, "__code__", None)
    return obj if code is not None and code.co_filename.startswith(PACKAGE_DIR) else None


def package_functions() -> dict:
    """module.qualname -> code object of every function and method defined in a package module.

    The methods that NamedTuple generates for a record (__new__, _make, _replace, __repr__) are not written in
    the package, so they are left out; a validating __new__ that a record writes itself is counted.
    """
    found = {}
    for info in pkgutil.iter_modules(braidtel.__path__):
        module = importlib.import_module(f"braidtel.{info.name}")
        for value in vars(module).values():
            if getattr(value, "__module__", None) != module.__name__:
                continue
            members = vars(value).values() if inspect.isclass(value) else [value]
            for fn in filter(None, map(_function, members)):
                found[f"{info.name}.{fn.__qualname__}"] = fn.__code__
    return found


def reached_codes(forms) -> set:
    """The code objects called while every form runs once per --format, and the README tour once, from cold caches."""
    reached = set()

    def profile(frame, event, arg):
        if event == "call":
            reached.add(frame.f_code)

    for cache in CACHES:
        cache.cache_clear()
    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            codes = [cli.main([*form, "--format", fmt]) for form in forms for fmt in ("text", "json")]
            run_readme_tour()
    finally:
        sys.setprofile(previous)
    assert codes == [0] * len(codes)
    return reached


@pytest.fixture(scope="module")
def unreached():
    reached = reached_codes(_report_forms())
    return {name for name, code in package_functions().items() if code not in reached}


def test_every_package_function_is_reached_by_a_report_or_allowed(unreached):
    assert sorted(unreached - ALLOWED.keys()) == []


def test_every_allowed_function_exists_and_is_unreached(unreached):
    assert sorted(ALLOWED.keys() - unreached) == []


def test_the_scan_sees_cached_functions_methods_and_properties():
    names = package_functions()
    for name in ("cli.build_parser", "teleport._pauli_basis", "teleport.Protocol.__new__",
                 "teleport.UnitaryBasis.pauli", "algebra.RelationReport.passed"):
        assert name in names


def test_the_scan_unwraps_a_cached_property():
    """The package defines no cached_property; one that it defined would be seen through its func."""

    class Cached:
        table = functools.cached_property(teleport.phase_table)

    assert _function(vars(Cached)["table"]) is teleport.phase_table
