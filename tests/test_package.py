"""Package surface: the exported names and the cost of importing the CLI."""

import os
import re
import subprocess
import sys
from pathlib import Path

import rumin_sphere


def test_every_exported_name_resolves():
    for name in rumin_sphere.__all__:
        assert hasattr(rumin_sphere, name), name
    namespace: dict = {}
    exec("from rumin_sphere import *", namespace)
    assert set(rumin_sphere.__all__) <= set(namespace)


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
    "json", "math", "operator", "os", "random", "sys", "threading", "typing",
    "mpmath",
)


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


def test_cli_import_computes_no_bernoulli_numbers():
    # The Bernoulli table fills on the first zeta call, not at import.
    code = ("import rumin_sphere.cli\n"
            "from rumin_sphere import zeta\n"
            "print(zeta._BERNOULLI_COEFFS)")
    assert _run(code) == "[Fraction(1, 1)]"


def test_sources_hold_no_hand_set_slack():
    # Every check's bound is derived from the error terms of its routes;
    # none of the decimal slacks 1e-8 ... 1e-15 may come back.
    slack = re.compile(r"1e-(8|9|10|12|15)")
    src = Path(rumin_sphere.__file__).parent
    for path in sorted(src.glob("*.py")):
        for number, line in enumerate(path.read_text().splitlines(), 1):
            assert not slack.search(line), f"{path.name}:{number}: {line.strip()}"
