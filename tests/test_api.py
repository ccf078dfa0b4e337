import ast
import json
import os
import re
import shutil
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import csviu
from csviu.cli import _SETTINGS

import support

PACKAGE = Path(csviu.__file__).parent

# The public surface, spelled out, so that adding or removing a name shows in
# the diff of this file.  Submodules are not part of ``csviu.__all__``, so
# ``from csviu import *`` binds functions and classes only.
PUBLIC_NAMES = [
    "ArgumentError",
    "AssumptionViolated",
    "ControlResult",
    "ControlSubproblem",
    "CriterionConfig",
    "CsviuError",
    "EnergyEstimate",
    "MaxIterations",
    "ModelError",
    "MonotonicityViolation",
    "MuEstimate",
    "NoPSDSolution",
    "NoiseForms",
    "NormEstimates",
    "OneStepCheck",
    "OperatorSet",
    "PathEnsemble",
    "Policy",
    "PowerEstimate",
    "RegionMap",
    "RiccatiSolution",
    "SeriesDivergent",
    "SingularLambda",
    "SorState",
    "StabilityReport",
    "SystemModel",
    "check_alpha_stability",
    "check_detectability",
    "closed_loop_check",
    "cost_Ju",
    "detectability_search",
    "estimate_energy",
    "estimate_power",
    "finite_horizon_riccati",
    "inaction_test",
    "load_model",
    "mu_asymptotic",
    "mu_bound",
    "mu_rollout",
    "one_step_variation_oracle",
    "optimal_control",
    "optimal_control_batch",
    "optimal_norms",
    "overtaking_compare",
    "scan_region",
    "simulate",
    "solve_riccati",
    "sor_solve",
    "spectral_radius",
    "step",
]


def test_public_names_are_pinned():
    assert sorted(csviu.__all__) == PUBLIC_NAMES
    assert all(hasattr(csviu, name) for name in csviu.__all__)


# -- source layout ------------------------------------------------------------
# Each rule reads the package tree at ``root`` and returns its violations as
# "module:line: text"; the docstring says why the rule holds.


def _sources(root):
    return [(path.relative_to(root).as_posix(), path.read_text()) for path in sorted(root.rglob("*.py"))]


def _lines(root, pattern):
    return [f"{name}:{number}: {line.strip()}" for name, text in _sources(root)
            for number, line in enumerate(text.splitlines(), 1) if re.search(pattern, line)]


def _nodes(root, modules=None):
    """(module, top-level def or class around the node or "", node) for every AST node."""
    for name, text in _sources(root):
        if modules is None or name in modules:
            for top in ast.parse(text).body:
                scope = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else ""
                for node in ast.walk(top):
                    yield name, scope, node


def _name(node):
    return node.id if isinstance(node, ast.Name) else node.attr if isinstance(node, ast.Attribute) else None


def _found(name, node):
    return f"{name}:{node.lineno}: {ast.unparse(node).splitlines()[0]}"


def dense_kron(root):
    """Dense kron operator matrices belong in tests/oracles.py, not in the package."""
    return _lines(root, "kron")


def three_operand_einsum(root):
    """numpy runs a three-operand einsum in its unblocked loop: write S'UT forms as
    U @ T, then a two-operand reduction."""
    return _lines(root, r"einsum\([\"'][^\"']*,[^\"']*,")


def _imports(node):
    """The dotted names an import statement binds, relative ones under csviu."""
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if isinstance(node, ast.ImportFrom):
        base = ("csviu." if node.level else "") + (node.module or "")
        return [f"{base.rstrip('.')}.{alias.name}" for alias in node.names]
    return []


def layering(root):
    """The stage-problem layer and the region scan sit below the slope estimators and
    the simulator: a Monte Carlo slope reaches them as an explicit mu or Mu."""
    return [_found(name, node) for name, _, node in _nodes(root, {"control.py", "region.py"})
            if any(re.match(r"csviu\.(mu|simulator)\b", path) for path in _imports(node))]


def blanket_catch(root):
    """A blanket catch of the package's own errors turns a typed failure into a
    silently wrong result: catch the specific error."""
    return [_found(name, node) for name, _, node in _nodes(root) if isinstance(node, ast.ExceptHandler)
            and "CsviuError" in {_name(t) for t in getattr(node.type, "elts", [node.type])}]


# callee -> the top-level functions that may call it
_STREAM_CALLERS = {
    "path_rng": {"_noise_chunks", "one_step_variation_oracle"},
    "_streams": {"path_rng", "_noise_chunks"},
    "Philox": {"_streams"},
    "_noise_chunks": {"_rollout", "draw_noise_block"},
}


def noise_streams(root):
    """Per-path noise streams open in one place, simulator._noise_chunks, which the
    stage loop and draw_noise_block read; the one-step oracle draws one stage from
    streams 0 and 1.  _streams is the one Philox constructor, behind path_rng and
    _noise_chunks."""
    return [_found(name, node) for name, scope, node in _nodes(root)
            if isinstance(node, ast.Call) and _name(node.func) in _STREAM_CALLERS
            and scope not in _STREAM_CALLERS[_name(node.func)]]


def dense_operator(root):
    """The n(n+1)/2-square matrix of OperatorSet.operator_matrix is the tests' oracle:
    radii and solves in the package act on n x n matrices."""
    return [_found(name, node) for name, _, node in _nodes(root)
            if isinstance(node, ast.Call) and _name(node.func) == "operator_matrix"]


def _noise_form(node):
    """Whether ``node`` forms a noise diagonal diag(S'US) or a control product B'U."""
    if isinstance(node, ast.Call) and _name(node.func) == "_diag_quad" and len(node.args) == 3:
        return ast.dump(node.args[0]) == ast.dump(node.args[2])
    if isinstance(node, ast.Call) and _name(node.func) == "einsum" and node.args:
        return isinstance(node.args[0], ast.Constant) and "pi,pi->" in str(node.args[0].value)
    return (isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult)
            and _name(node.left) == "T" and _name(getattr(node.left, "value", None)) == "B")


def noise_forms(root):
    """The noise diagonals diag(S'US) and the control products B'U are formed in one
    helper, operators._forms, from one product U @ [T W]: the value map, the
    second-moment map and the capacitance system all read them from there."""
    return [_found(name, node) for name, scope, node in _nodes(root)
            if scope not in ("_forms", "_diag_quad") and _noise_form(node)]


LAYOUT_RULES = [dense_kron, three_operand_einsum, layering, blanket_catch, noise_streams, dense_operator,
                noise_forms]


@pytest.mark.parametrize("rule", LAYOUT_RULES, ids=lambda rule: rule.__name__)
def test_the_package_keeps_its_layout(rule):
    assert rule(PACKAGE) == [], rule.__doc__


# a violation of each rule, as (rule, module, code appended to it)
PLANTS = {
    "kron": (dense_kron, "operators.py", "def _dense(a, b):\n    return np.kron(a, b)\n"),
    "einsum": (three_operand_einsum, "operators.py",
               'def _chain(a, b, c):\n    return np.einsum("ij,jk,kl->il", a, b, c)\n'),
    "import": (layering, "region.py", "from .simulator import Policy\n"),
    "except": (blanket_catch, "model.py",
               "def _swallow(f):\n    try:\n        return f()\n    except CsviuError:\n        return None\n"),
    "philox": (noise_streams, "mu.py", "def _stray(key):\n    return np.random.Philox(key)\n"),
    "chunks": (noise_streams, "control.py",
               "def _stray(model):\n    return _noise_chunks(model, 1, 1, 0, 'gaussian')\n"),
    "operator": (dense_operator, "stability.py",
                 "def _radius(ops):\n    return spectral_radius(ops.operator_matrix())\n"),
    "noise_diagonal": (noise_forms, "riccati.py",
                       "def _zu(md, P):\n    return _diag_quad(md.sigma_bar_u, P, md.sigma_bar_u)\n"),
    "control_product": (noise_forms, "stability.py", "def _bu(model, U):\n    return model.B.T @ U\n"),
}


@pytest.mark.parametrize("plant", list(PLANTS))
def test_each_layout_rule_flags_its_planted_violation(plant, tmp_path):
    rule, module, code = PLANTS[plant]
    root = tmp_path / "csviu"
    shutil.copytree(PACKAGE, root, ignore=shutil.ignore_patterns("__pycache__"))
    with (root / module).open("a") as fh:
        fh.write("\n\n" + code)
    found = rule(root)
    assert len(found) == 1 and found[0].startswith(f"{module}:"), found


# -- runtime dependencies -----------------------------------------------------

_EVERY_COMMAND = [
    ["riccati"], ["stability"], ["detect"], ["control", "--x", "0.5"],
    ["simulate", "--kappa", "5", "--paths", "4"], ["norms", "--paths", "4"],
    ["overtake", "--kappa-grid", "0,3", "--paths", "4"], ["region", "--axes", "0", "--res", "5"],
]


def test_every_command_runs_without_the_test_dependencies(tmp_path):
    # numpy is the one runtime dependency; none of the test tools may load
    assert sorted(argv[0] for argv in _EVERY_COMMAND) == sorted(_SETTINGS)
    model = tmp_path / "model.json"
    model.write_text(json.dumps(support.SCALAR_DATA))
    script = textwrap.dedent("""
        import json, sys
        from csviu.cli import main
        model, out = sys.argv[1], sys.argv[2]
        for argv in json.loads(sys.argv[3]):
            code = main([argv[0], "--model", model, "--alpha", "0.9", "--out", f"{out}/{argv[0]}", *argv[1:]])
            assert code == 0, (argv, code)
        print(sorted({"scipy", "hypothesis", "pytest"} & {name.split(".")[0] for name in sys.modules}))
    """)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    run = subprocess.run([sys.executable, "-c", script, str(model), str(tmp_path), json.dumps(_EVERY_COMMAND)],
                         capture_output=True, text=True, env=env)
    assert run.returncode == 0, run.stderr
    assert run.stdout == "[]\n"
    assert sorted(path.name for path in tmp_path.iterdir()) == sorted(["model.json", *_SETTINGS])
