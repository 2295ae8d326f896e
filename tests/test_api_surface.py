"""The package keeps no public API that only its own tests use.

Every public, undecorated, module-level function and class in src/qnl
must be referenced (as a name or an attribute, not just imported) in
src/qnl, demos/ or perfbench/ outside perfbench's tests.  Decorated
definitions, the click commands, are reached through the CLI group.
The package namespace itself binds only __version__, the
"[warning] <place>: message" format of a diagnostic is written only in
fileio.Diagnostic, no pipeline stage builder catches an exception itself,
the tuple of exceptions that count as a failed fit is written only in
fitutil, the fit modules keep a fit's caveats in its result rather than
in Python warnings, no module reads a file through csv.reader or
io.TextIOWrapper, so fileio keeps one input parser, and no module loads
scipy, which is a test-only oracle.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

from qnl.pipeline import STAGES

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "qnl"

# name -> why it stays without a non-test caller
ALLOWED = {
    "dressed_frequencies": "closed-form reference that "
                           "test_peaks_match_dressed_frequencies checks "
                           "transmission against",
}


def _public_definitions():
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not node.decorator_list
                    and not node.name.startswith("_")):
                yield f"{path.stem}.{node.name}", node.name


def _referenced_names():
    paths = [*PACKAGE.glob("*.py"), *(ROOT / "demos").glob("*.py"),
             *(p for p in (ROOT / "perfbench").rglob("*.py")
               if "tests" not in p.relative_to(ROOT).parts)]
    names = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


def test_every_public_definition_has_a_non_test_caller():
    referenced = _referenced_names()
    unused = [qualified for qualified, name in _public_definitions()
              if name not in referenced and name not in ALLOWED]
    assert unused == []


def test_package_namespace_holds_only_the_version():
    # each capability is reached through its submodule, never re-exported
    module = ast.parse((PACKAGE / "__init__.py").read_text())
    assert ast.get_docstring(module)
    assert [ast.unparse(node).split(" = ")[0]
            for node in module.body[1:]] == ["__version__"]


def test_diagnostic_format_is_written_only_in_fileio():
    # every warning and error reaches the user as a fileio.Diagnostic, so
    # no other module spells out its "[severity] " prefix
    modules = [p for p in sorted(PACKAGE.glob("*.py"))
               if p.name != "fileio.py"]
    assert "pipeline.py" in {p.name for p in modules}
    spelled = [f"{path.name}:{node.lineno}" for path in modules
               for node in ast.walk(ast.parse(path.read_text()))
               if isinstance(node, ast.Constant)
               and isinstance(node.value, str)
               and node.value.startswith(("[warning]", "[error]"))]
    assert spelled == []


def test_no_stage_builder_catches_exceptions():
    # which failures become warnings is decided in pipeline._fit_or_warn
    # and the stage driver, against one exception tuple; a try in a stage
    # would restate that policy with its own exception set
    builders = {build.__name__ for _, build in STAGES.values()}
    tree = ast.parse((PACKAGE / "pipeline.py").read_text())
    found = {node.name: node for node in tree.body
             if isinstance(node, ast.FunctionDef) and node.name in builders}
    assert set(found) == builders
    catching = sorted(name for name, node in found.items()
                      if any(isinstance(inner, ast.Try)
                             for inner in ast.walk(node)))
    assert catching == []


def test_fit_failure_tuple_is_written_only_in_fitutil():
    # the pipeline and the CLI both catch fitutil.FIT_FAILURES; a second
    # tuple naming FitError could drift from it and let a fault through
    modules = [p for p in sorted(PACKAGE.glob("*.py"))
               if p.name != "fitutil.py"]
    assert {"pipeline.py", "cli.py"} <= {p.name for p in modules}
    spelled = [f"{path.name}:{node.lineno}" for path in modules
               for node in ast.walk(ast.parse(path.read_text()))
               if isinstance(node, ast.Tuple)
               and any(isinstance(elt, ast.Name) and elt.id == "FitError"
                       or isinstance(elt, ast.Attribute)
                       and elt.attr == "FitError" for elt in node.elts)]
    assert spelled == []


def test_fit_modules_do_not_use_warnings():
    # a fit's caveat lives in its result (CoherenceFit.flags, a spectro
    # fit's "warnings" notes), where the pipeline and the CLI report it; a
    # Python warning would go around the report as a raw stderr line
    used = [f"{name}:{node.lineno}" for name in ("decayfit.py", "spectro.py")
            for node in ast.walk(ast.parse((PACKAGE / name).read_text()))
            if isinstance(node, ast.Import)
            and any(alias.name == "warnings" for alias in node.names)
            or isinstance(node, ast.ImportFrom) and node.module == "warnings"
            or isinstance(node, ast.Name) and node.id == "warnings"]
    assert used == []


def test_one_input_parser():
    # every input table goes through fileio._read_cells; csv.reader or a
    # text wrapper over the bytes would be a second parser with its own
    # rules for quotes and row ends
    banned = {("csv", "reader"), ("io", "TextIOWrapper")}
    used = [f"{path.name}:{node.lineno}"
            for path in sorted(PACKAGE.glob("*.py"))
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and (node.value.id, node.attr) in banned
            or isinstance(node, ast.ImportFrom)
            and any((node.module, alias.name) in banned
                    for alias in node.names)]
    assert used == []


def _loaded_by(modules):
    """Names in sys.modules after a fresh interpreter imports modules."""
    code = (f"import sys\nfor name in {modules!r}: __import__(name)\n"
            "print(' '.join(sys.modules))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")])))
    loaded = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True,
                            check=True).stdout.split()
    assert set(modules) <= set(loaded)
    return set(loaded)


def test_no_module_loads_the_slow_scipy_subpackages():
    # qnl needs numpy and click only, so no scipy loads, the subpackages
    # that once cost most of a cold start (signal, stats, ndimage,
    # interpolate) included: the fits run on fitutil's least-squares
    # solver, the roots on fitutil.find_root, the constants are the exact
    # SI values in qnl.units and the peak finder is written out in
    # qnl.spectro
    modules = sorted(f"qnl.{p.stem}" for p in PACKAGE.glob("[!_]*.py"))
    assert "qnl.cli" in modules
    loaded = _loaded_by(modules)
    assert sorted(name for name in loaded
                  if name.split(".")[0] == "scipy") == []


def test_constants_and_least_squares_load_no_scipy():
    # h and k_B live in qnl.units and the least-squares solver in
    # qnl.fitutil, which takes the analytic Jacobian as a required argument,
    # so no fit can reach scipy's finite differences
    loaded = _loaded_by(["qnl.thermal", "qnl.resonator", "qnl.fitutil",
                         "qnl.spectro"])
    assert sorted(name for name in loaded
                  if name.split(".")[0] == "scipy") == []
