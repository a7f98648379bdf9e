"""The package stays import-light: numeric modules load on first use.

Each check runs in a fresh interpreter, because the test session itself
has long since imported numpy.
"""

import subprocess
import sys


def run_python(code: str) -> subprocess.CompletedProcess:
    result = subprocess.run([sys.executable, "-c", code], capture_output=True,
                            text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    return result


def test_normal_form_loads_neither_numpy_nor_scipy():
    result = run_python(
        "import runpy, sys\n"
        "sys.argv = ['qheis', 'normal-form', '(p + x)^2 - u^-3']\n"
        "try:\n"
        "    runpy.run_module('qheis.cli', run_name='__main__')\n"
        "except SystemExit as stop:\n"
        "    assert stop.code == 0, stop.code\n"
        "heavy = sorted(m for m in sys.modules\n"
        "               if m.split('.')[0] in ('numpy', 'scipy'))\n"
        "print(heavy, file=sys.stderr)\n")
    assert '"normal_form"' in result.stdout
    assert result.stderr.strip() == "[]"


def test_schrodinger_loads_no_lattice_stack():
    result = run_python(
        "import sys\n"
        "import qheis.schrodinger\n"
        "print(sorted(m for m in ('qheis.adjoint', 'qheis.extensions')\n"
        "             if m in sys.modules))\n")
    assert result.stdout.strip() == "[]"


def test_every_public_name_resolves_without_scipy():
    result = run_python(
        "import sys\n"
        "import qheis\n"
        "assert 'numpy' not in sys.modules\n"
        "for name in qheis.__all__:\n"
        "    assert getattr(qheis, name) is not None, name\n"
        "assert set(qheis.__all__) <= set(dir(qheis))\n"
        "print(len(qheis.__all__), 'scipy' in sys.modules)\n")
    count, scipy_loaded = result.stdout.split()
    assert int(count) > 50
    assert scipy_loaded == "False"


def test_star_import_binds_every_public_name():
    result = run_python(
        "import qheis\n"
        "namespace = {}\n"
        "exec('from qheis import *', namespace)\n"
        "missing = [n for n in qheis.__all__ if n not in namespace]\n"
        "assert not missing, missing\n"
        "assert namespace['parse_to_element']('p*x') == "
        "namespace['multiply'](namespace['AlgebraElement'].generator('p'), "
        "namespace['AlgebraElement'].generator('x'))\n"
        "print('ok')\n")
    assert result.stdout.strip() == "ok"


def test_unknown_attribute_raises_attribute_error():
    result = run_python(
        "import qheis\n"
        "try:\n"
        "    qheis.no_such_name\n"
        "except AttributeError as err:\n"
        "    print(err)\n")
    assert "no_such_name" in result.stdout
