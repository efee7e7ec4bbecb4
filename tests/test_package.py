import os
import re
import subprocess
import sys
from importlib import import_module
from pathlib import Path

import pytest

import traceinv

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"
SRC = Path(traceinv.__file__).resolve().parents[1]


def test_version_matches_pyproject():
    # a regex, not tomllib, so the check also runs on Python 3.10
    found = re.findall(r'(?m)^version = "([^"]+)"$', PYPROJECT.read_text())
    assert found == [traceinv.__version__]


def test_removed_names_stay_removed():
    # removed in 0.2.0, when imports were allowed to break, and StateFile in
    # 0.3.0, since a state file loads to the tuple or the vector it holds
    for name in ("from_net_tensor", "network_edges", "StateFile"):
        assert name not in traceinv.__all__
        assert not hasattr(traceinv, name)


def test_all_is_sorted():
    assert len(traceinv.__all__) == 50
    assert traceinv.__all__ == sorted(set(traceinv.__all__))


@pytest.mark.parametrize("owner,name", [
    (owner, name) for owner, names in traceinv._PUBLIC.items() for name in names
])
def test_name_is_read_from_its_owner(owner, name):
    module = import_module(f"traceinv.{owner}")
    obj = getattr(traceinv, name)
    assert obj is getattr(module, name)
    # a name filed under a module that only imports it has the wrong owner
    assert getattr(obj, "__module__", module.__name__) == module.__name__


def test_dir_lists_every_public_name():
    assert set(traceinv.__all__) <= set(dir(traceinv))


def test_star_import_binds_every_public_name():
    scope = {}
    exec("from traceinv import *", scope)
    assert set(traceinv.__all__) <= set(scope)


def _fresh(code):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    return done.stdout.split()


@pytest.mark.parametrize("module", ["traceinv", "traceinv.perms", "traceinv.diagram",
                                    "traceinv.errors"])
def test_import_leaves_numpy_out(module):
    assert _fresh(f"import sys, {module}; print('numpy' in sys.modules)") == ["False"]


def test_numpy_loads_with_the_first_name_that_needs_it():
    code = "import sys, traceinv; print('numpy' in sys.modules); traceinv.Dims; print('numpy' in sys.modules)"
    assert _fresh(code) == ["False", "True"]
