"""Package surface: the exported names and the cost of importing the CLI."""

import ast
import importlib
import inspect
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import rumin_sphere


def test_every_exported_name_resolves():
    for name in rumin_sphere.__all__:
        assert hasattr(rumin_sphere, name), name
    namespace: dict = {}
    exec("from rumin_sphere import *", namespace)
    assert set(rumin_sphere.__all__) <= set(namespace)


def _public_members(cls):
    # The public methods and properties a class defines itself; no dunders.
    kinds = (property, classmethod, staticmethod)
    return [name for name, value in vars(cls).items()
            if not name.startswith("_")
            and (inspect.isfunction(value) or isinstance(value, kinds))]


def test_every_exported_name_has_a_caller():
    # An exported name, and a public method or property of an exported
    # class, earns its place by a use: in the package outside its own
    # definition (the export list in __init__ does not count), or in the
    # benchmark harness.  A mention in the README is not a use.  A member
    # is used where ``.member`` is.
    root = Path(rumin_sphere.__file__).parents[2]
    src = [p.read_text() for p in sorted((root / "src" / "rumin_sphere").glob("*.py"))
           if p.name != "__init__.py"]
    others = [p.read_text() for p in sorted((root / "clibench").glob("*.py"))]
    names = [(name, rf"\b{re.escape(name)}\b") for name in rumin_sphere.__all__]
    for owner in rumin_sphere.__all__:
        if inspect.isclass(cls := getattr(rumin_sphere, owner)):
            names += [(f"{owner}.{name}", rf"\.{re.escape(name)}\b")
                      for name in _public_members(cls)]
    unused = []
    for name, use in names:
        word = re.compile(use)
        definition = re.compile(rf"^(?:def|class) {re.escape(name)}\b|^{re.escape(name)}\s*[:=]")
        in_src = any(word.search(line) and not definition.match(line)
                     for text in src for line in text.splitlines())
        if not (in_src or any(word.search(text) for text in others)):
            unused.append(name)
    assert unused == []


# Runs the first request of each workload at seed 1, every cold request and
# every refusal through ``cli.main`` under ``sys.setprofile``, and prints the
# (file, first line) of each function of the package that is entered.
REACH = """
import contextlib, io, json, os, sys
sys.path[:0] = [os.path.join(ROOT, "clibench"), os.path.join(ROOT, "tools")]
import records, workloads
from rumin_sphere import cli
package = os.path.dirname(cli.__file__) + os.sep
requests = [workloads.build(name, 1)[0] for name in workloads.WORKLOADS]
requests += [argv for kinds in workloads.COLD.values() for argv in kinds]
requests += records.REFUSALS
entered = set()

def profile(frame, event, arg):
    code = frame.f_code
    if event == "call" and code.co_filename.startswith(package):
        entered.add((code.co_filename, code.co_firstlineno))

sink = io.StringIO()
with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
    sys.setprofile(profile)
    for argv in requests:
        cli.main(list(argv))
    sys.setprofile(None)
print(json.dumps(sorted((os.path.realpath(f), line) for f, line in entered)))
"""


def test_every_src_function_is_entered_by_a_request():
    # Every function of the package is reached by some request: the only
    # one no request enters is the package's ``dir()`` hook.  A fresh
    # process starts with every cache cold.  Class bodies run at import,
    # before the trace starts, and are not functions here.
    root = Path(rumin_sphere.__file__).parents[2]
    code = f"ROOT = {str(root)!r}\n" + REACH
    entered = {tuple(pair) for pair in json.loads(_run(code))}
    never = []
    for path in sorted(Path(rumin_sphere.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                # A code object starts at its first decorator.
                first = min([node.lineno] + [d.lineno for d in node.decorator_list])
                if (str(path.resolve()), first) not in entered:
                    never.append(f"{path.stem}.{node.name}")
    assert never == ["__init__.__dir__"]


def test_src_reaches_no_private_name_of_another_module():
    # A module's private names are its own: no module of the package reads
    # ``m._x`` of another module m, or imports ``from .m import _x``.  Two
    # reaches are allowed: ``limits._check_precision``, the one precision
    # refusal that every module shares, and the import of the
    # ``_kernels_py`` module itself.
    package = Path(rumin_sphere.__file__).parent
    modules = {path.stem for path in package.glob("*.py")}
    allowed = {("limits", "_check_precision"), ("", "_kernels_py")}
    found = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.level:
                reaches = [(node.module or "", alias.name) for alias in node.names]
            elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and node.value.id in modules - {path.stem}):
                reaches = [(node.value.id, node.attr)]
            else:
                continue
            found += [f"{path.name}:{node.lineno}: {module}.{name}"
                      for module, name in reaches
                      if name.startswith("_") and (module, name) not in allowed]
    assert found == []


def _run(code: str) -> str:
    result = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    )
    return result.stdout.strip()


def test_cli_import_leaves_numpy_unloaded():
    # numpy costs a CLI process more set-up time than a whole direct-route
    # solve; nothing on the CLI path may import it.
    code = "import sys, rumin_sphere.cli; print('numpy' in sys.modules)"
    assert _run(code) == "False"


# The standard-library modules and mpmath that the package imports.
DEPENDENCIES = (
    "argparse", "dataclasses", "enum", "fractions", "functools", "itertools",
    "json", "math", "operator", "sys", "threading", "typing",
    "mpmath",
)


def test_dependencies_are_the_imports_of_the_package():
    # The list above is what the modules import, no more and no less: the
    # first name of every absolute import, wherever it stands in a module;
    # relative imports and ``__future__`` are left out.
    imported = set()
    for path in Path(rumin_sphere.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                imported.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    imported.discard("__future__")
    assert sorted(imported) == sorted(DEPENDENCIES)


def test_cli_import_loads_nothing_beyond_its_dependencies():
    # Set-up time is paid by every CLI process: importing the CLI may load
    # its own modules and whatever its dependencies load themselves, and
    # nothing else (no numpy, no third-party json encoder).  fractions
    # already loads decimal, so decimal is in the baseline.
    code = (
        "import sys\n"
        f"import {', '.join(DEPENDENCIES)}\n"
        "before = set(sys.modules)\n"
        "import rumin_sphere.cli\n"
        "print(' '.join(sorted(set(sys.modules) - before)))"
    )
    added = _run(code).split()
    assert added and all(
        name == "rumin_sphere" or name.startswith("rumin_sphere.") for name in added
    ), added
    loaded = _run("import sys, rumin_sphere.cli; print(' '.join(sys.modules))").split()
    assert not {"numpy", "orjson", "ujson", "simplejson", "rapidjson"} & set(loaded)


def test_weights_imports_no_other_module_of_the_package():
    # ``weights`` holds U(m) data only; the label table and the label type
    # live in ``spectrum``.  The package's __init__ imports no module.
    code = (
        "import sys\n"
        "import rumin_sphere.weights\n"
        "print(' '.join(sorted(m for m in sys.modules if m.startswith('rumin_sphere'))))"
    )
    assert _run(code) == "rumin_sphere rumin_sphere.weights"


def test_kernels_import_only_weights():
    # The kernels rest on the standard library and the U(m) dimensions of
    # ``weights``, and on no other module of the package.
    code = (
        "import sys\n"
        "import rumin_sphere._kernels_py\n"
        "print(' '.join(sorted(m for m in sys.modules if m.startswith('rumin_sphere'))))"
    )
    assert _run(code) == "rumin_sphere rumin_sphere._kernels_py rumin_sphere.weights"


def test_cli_import_computes_no_bernoulli_numbers():
    # The Bernoulli table and the per-precision tables fill on the first
    # zeta call, not at import.
    code = ("import rumin_sphere.cli\n"
            "from rumin_sphere import zeta\n"
            "print(zeta._BERNOULLI_COEFFS, zeta._BERNOULLI_MPFS, zeta._PRIME_LOGS)")
    assert _run(code) == "[Fraction(1, 1)] {} {}"


def test_sources_hold_no_hand_set_slack():
    # Every check's bound is derived from the error terms of its routes;
    # none of the decimal slacks 1e-8 ... 1e-15 may come back.
    slack = re.compile(r"1e-(8|9|10|12|15)")
    src = Path(rumin_sphere.__file__).parent
    for path in sorted(src.glob("*.py")):
        for number, line in enumerate(path.read_text().splitlines(), 1):
            assert not slack.search(line), f"{path.name}:{number}: {line.strip()}"


# The numeric layer: mpmath and the modules that evaluate zeta or the kernels.
NUMERIC = ("mpmath", "rumin_sphere.zeta", "rumin_sphere.torsion",
           "rumin_sphere.verify", "rumin_sphere._kernels_py")


def test_a_spectrum_process_loads_no_numeric_layer():
    # The package exports lazily and the CLI imports the numeric modules in
    # the commands that use them, so neither the imports nor a spectrum
    # request in JSON and in CSV load them; the first read of a name that
    # lives there does.
    code = (
        "import contextlib, io, sys\n"
        "import rumin_sphere\n"
        f"numeric = {NUMERIC!r}\n"
        "print(' '.join(m for m in numeric if m in sys.modules) or '-')\n"
        "from rumin_sphere import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    for form in ('json', 'csv'):\n"
        "        assert cli.main(['spectrum', '--n', '2', '--degree', '1',\n"
        "                         '--max', '4', '--format', form]) == 0\n"
        "print(' '.join(m for m in numeric if m in sys.modules) or '-')\n"
        "rumin_sphere.kappa_closed\n"
        "print(' '.join(m for m in numeric if m in sys.modules) or '-')"
    )
    assert _run(code).splitlines() == [
        "-", "-", "mpmath rumin_sphere.zeta rumin_sphere.torsion rumin_sphere._kernels_py"]


def test_every_exported_name_is_the_object_of_its_home_module():
    assert rumin_sphere.__all__ == sorted(rumin_sphere._EXPORTS)
    assert set(rumin_sphere.__all__) <= set(dir(rumin_sphere))
    for name, home in rumin_sphere._EXPORTS.items():
        module = importlib.import_module(f"rumin_sphere.{home}")
        value = getattr(rumin_sphere, name)
        assert value is vars(module)[name], name
        assert getattr(value, "__module__", module.__name__) == module.__name__, name
    with pytest.raises(AttributeError):
        rumin_sphere.no_such_name


@pytest.mark.parametrize("argv, code, line", [
    ("verify --n 2 --prec 7000", 2,
     "verify: requested precision 7000 outside the working range 8..5227 bits"),
    ("kappa --n 1 --s 0.5", 4, "kappa: kappa(s) has a pole at s = 1/2 (zeta(2s) pole)"),
], ids=("precision", "pole"))
def test_a_refusal_as_the_first_request_of_a_process(argv, code, line):
    # The exit table names the refusal types without the numeric layer
    # loaded; a refusal raised from inside it still maps to its code.
    result = subprocess.run(
        [sys.executable, "-m", "rumin_sphere", *argv.split()],
        capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    )
    assert (result.returncode, result.stdout, result.stderr) == (code, "", line + "\n")
