"""Every package parameter with a default is set by a caller outside the tests, or exists for a named reason.

An option that only the tests set is an option no user has: the package always runs with its
default.  The scan reads each module's syntax tree, so it sees every function, method and lambda,
nested ones included, whether or not a report reaches it.  A parameter with a default that ALLOWED
does not name fails the test, and so does an ALLOWED entry whose parameter is gone or lost its
default, so the list only shrinks with the package.  The reach guard, tests/test_reach.py, does the
same for whole functions.
"""

import ast
from pathlib import Path

import braidtel

PACKAGE_DIR = Path(braidtel.__file__).parent

_ONE_INSTANCE_SEED = "a one-instance call that perfbench/run.py reads by name, seeded as the README tour seeds teleport_with_yb"

# module.qualname.parameter -> the caller outside the tests that sets it, or why it exists
ALLOWED = {
    "algebra._suite.params": "check_all passes its params; check_brauer leaves None for the Brauer family",
    "algebra.check_all.n": "cli._verify_bmw passes --sites; the README tour",
    "algebra.check_brauer.n": "cli._brauer_rows passes --sites",
    "cli._constraint_entries.worst": "cli._verify_constraints",
    "cli._basis_assignment.label": "cli._verify_general",
    "cli._basis_assignment.prefix": "cli._verify_general",
    "cli._json.pad": "recursion: _json passes each nested level its indent",
    "cli.main.argv": "main's argv: perfbench/run.py passes one, the console script none",
    "linalg.ket.normalize": "gates.EPR",
    "linalg.approx_eq.tol": "gates.yb_clifford's self-check (STRICT_TOL) and linalg.is_unitary",
    "linalg.is_unitary.tol": "algebra._inverse (1e-12)",
    "tangles._constraint_table.scale": "tangles.concrete_constraint_residuals (1.0)",
    "tangles._pattern_residuals.phis": "cli._solve_rows (_PHI_GRID)",
    "tangles._pattern_residuals.patterns": "cli._solve_rows (the solved classes' patterns)",
    "teleport.teleport_with_yb.rng_seed": "the README tour",
    "teleport.teleport_standard.rng_seed": _ONE_INSTANCE_SEED,
    "teleport.teleport_bell_like.rng_seed": _ONE_INSTANCE_SEED,
    "gate_teleport.teleport_single_gate.rng_seed": _ONE_INSTANCE_SEED,
    "gate_teleport.teleport_two_qubit.rng_seed": _ONE_INSTANCE_SEED,
}


class _Defaults(ast.NodeVisitor):
    """Collects module.qualname.parameter for every parameter that has a default."""

    def __init__(self, module: str):
        self.scope = [module]
        self.found = set()

    def _enter(self, node, name: str):
        self.scope.append(name)
        self.generic_visit(node)
        self.scope.pop()

    def visit_ClassDef(self, node):
        self._enter(node, node.name)

    def _function(self, node, name: str):
        args = node.args
        positional = args.posonlyargs + args.args
        defaulted = positional[len(positional) - len(args.defaults):]
        defaulted += [arg for arg, default in zip(args.kwonlyargs, args.kw_defaults) if default is not None]
        self.found.update(".".join([*self.scope, name, arg.arg]) for arg in defaulted)
        self._enter(node, name)

    def visit_FunctionDef(self, node):
        self._function(node, node.name)

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Lambda(self, node):
        self._function(node, "<lambda>")


def defaulted_parameters() -> set:
    found = set()
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        visitor = _Defaults(path.stem)
        visitor.visit(ast.parse(path.read_text(), filename=str(path)))
        found |= visitor.found
    return found


def test_every_defaulted_parameter_is_set_outside_the_tests_or_allowed():
    assert sorted(defaulted_parameters() - ALLOWED.keys()) == []


def test_every_allowed_parameter_exists_with_its_default():
    assert sorted(ALLOWED.keys() - defaulted_parameters()) == []


def test_the_scan_sees_methods_nested_functions_and_keyword_only_defaults():
    source = """
class C:
    def method(self, a, b=1, *, c=2, d):
        def inner(e=3):
            return lambda f=4: f
"""
    visitor = _Defaults("m")
    visitor.visit(ast.parse(source))
    assert visitor.found == {"m.C.method.b", "m.C.method.c", "m.C.method.inner.e", "m.C.method.inner.<lambda>.f"}
