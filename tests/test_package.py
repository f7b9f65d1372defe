"""Package surface: the exported names and the cost of importing the CLI."""

import os
import subprocess
import sys

import rumin_sphere


def test_every_exported_name_resolves():
    for name in rumin_sphere.__all__:
        assert hasattr(rumin_sphere, name), name
    namespace: dict = {}
    exec("from rumin_sphere import *", namespace)
    assert set(rumin_sphere.__all__) <= set(namespace)


def test_cli_import_leaves_numpy_unloaded():
    # numpy costs a CLI process more set-up time than a whole direct-route
    # solve; nothing on the CLI path may import it.
    code = "import sys, rumin_sphere.cli; print('numpy' in sys.modules)"
    result = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    )
    assert result.stdout.strip() == "False"


def test_cli_import_computes_no_bernoulli_numbers():
    # The Bernoulli table fills on the first zeta call, not at import.
    code = ("import rumin_sphere.cli\n"
            "from rumin_sphere import zeta\n"
            "print(zeta._BERNOULLI_COEFFS)")
    result = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    )
    assert result.stdout.strip() == "[Fraction(1, 1)]"
