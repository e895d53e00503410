"""What a process imports: the package loads its submodules on first use,
and a CLI command loads only the modules its handler runs.

Each check that depends on what is already imported starts a fresh
interpreter, since this test process has imported every submodule.
"""

import os
import subprocess
import sys
from importlib import import_module
from pathlib import Path

import pytest

import boolrank
from boolrank.boolmat import write_matrix
from boolrank.cover import write_family
from boolrank.crown import c4_triple, crown_matrix

SRC = str(Path(boolrank.__file__).parents[1])

# Runs ``python -m boolrank <argv>`` in this interpreter, then prints the
# exit code and the boolrank modules it imported as the last stderr line.
RUN_CLI = """
import runpy, sys
sys.argv = ["boolrank", *sys.argv[1:]]
try:
    runpy.run_module("boolrank", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    code = exc.code
print(code, *sorted(m for m in sys.modules if m.split(".")[0] == "boolrank"), file=sys.stderr)
"""


def python(*argv, cwd=None):
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *argv], cwd=cwd, env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, timeout=60,
    )


@pytest.mark.parametrize(
    "module", ["boolmat", "cover", "crown", "bounds", "algebraic", "spanoid", "cli"]
)
def test_submodule_imports_alone(module):
    proc = python("-c", f"import boolrank.{module}")
    assert (proc.returncode, proc.stderr) == (0, "")


def test_package_import_loads_no_submodule():
    proc = python("-c", "import sys, boolrank; print(*sorted(m for m in sys.modules "
                  "if m.split('.')[0] == 'boolrank'))")
    assert (proc.returncode, proc.stdout) == (0, "boolrank\n")


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from boolrank import *", namespace)
    assert set(boolrank.__all__) <= set(namespace)
    for module, names in boolrank._EXPORTS.items():
        for name in names:
            value = getattr(import_module(f"boolrank.{module}"), name)
            assert namespace[name] is value is getattr(boolrank, name)
    assert set(boolrank.__all__) | set(boolrank._EXPORTS) <= set(dir(boolrank))


def test_unknown_name_is_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        boolrank.no_such_name
    assert not hasattr(boolrank, "no_such_name")


@pytest.mark.parametrize("module, name", [
    (module, name) for module, names in {
        "boolmat": "EntryIndex4 boolean_product dominated_by is_rank_one project_factors",
        "cover": "check_half_covering cover_rows extract_families",
        "crown": "FamilyBijection SubsetFamily build_g build_h canonical_family "
                 "family_cover family_matrix intersection_rectangle "
                 "format_subset_family parse_subset_family",
    }.items() for name in names.split()
])
def test_retired_name_is_attribute_error(module, name):
    # names no command reached, removed from the library
    with pytest.raises(AttributeError, match=name):
        getattr(boolrank, name)
    assert not hasattr(import_module(f"boolrank.{module}"), name)


class TestCommandModules:
    """The boolrank modules each command's process holds when it exits."""

    @pytest.fixture
    def inputs(self, tmp_path):
        write_matrix(str(tmp_path / "c4.mat"), crown_matrix(4))
        write_matrix(str(tmp_path / "c2.mat"), crown_matrix(2))
        write_family(str(tmp_path / "t4.fam"), c4_triple())
        (tmp_path / "sp.txt").write_text("MATSPANOID c2.mat\n")
        return tmp_path

    @pytest.mark.parametrize("argv, modules", [
        ("verify qcover c4.mat t4.fam 2", "boolmat cli cover errors"),
        ("spanoid rank sp.txt", "boolmat cli errors spanoid"),
        ("kron c4.mat c4.mat", "boolmat cli errors"),
        # crown builds covers in the functions that need them, so neither
        # of these loads cover
        ("sigma 5", "boolmat cli crown errors"),
        ("crown 5", "boolmat cli crown errors"),
    ])
    def test_command_loads_only_its_modules(self, inputs, argv, modules):
        proc = python("-c", RUN_CLI, *argv.split(), cwd=inputs)
        code, *loaded = proc.stderr.splitlines()[-1].split()
        assert code == "0"
        assert loaded == ["boolrank", *(f"boolrank.{m}" for m in modules.split())]
