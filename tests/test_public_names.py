"""The package namespace: one table of public names, bound eagerly."""
import ast
import hashlib
import importlib
import inspect
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import radialma

# sha256 of "\n".join(__all__) as the two-block __init__ gave it
ALL_DIGEST = "ad5f59fc58900c1a3fc6ffdb04f59b2fec528bbd10efb438f0526eec555cad7f"


def test_all_is_the_same_77_names():
    assert len(radialma.__all__) == 77
    digest = hashlib.sha256("\n".join(radialma.__all__).encode()).hexdigest()
    assert digest == ALL_DIGEST


@pytest.mark.parametrize("module", sorted(radialma._PUBLIC))
def test_each_name_is_the_object_its_home_module_defines(module):
    home = importlib.import_module(module, "radialma")
    for name in radialma._PUBLIC[module]:
        obj = getattr(radialma, name)
        assert obj is getattr(home, name), name
        if inspect.isclass(obj) or inspect.isfunction(obj):
            assert obj.__module__ == home.__name__, name


def test_each_name_is_written_once_and_there_is_no_module_getattr():
    tree = ast.parse(Path(radialma.__file__).read_text())
    docstring = tree.body[0].value
    strings = Counter(
        node.value
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and isinstance(node.value, str) and node is not docstring
    )
    assert {name: strings[name] for name in radialma.__all__} == dict.fromkeys(radialma.__all__, 1)
    assert "__getattr__" not in vars(radialma)


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from radialma import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == radialma.__all__


@pytest.mark.parametrize(
    "imports",
    [
        "import radialma, radialma.cli",
        "import radialma.convergence\nfrom radialma import capacity",
    ],
    ids=["package then cli", "convergence then from-import"],
)
def test_capacity_stays_the_function_after_either_import_order(imports):
    # a fresh interpreter, since the order submodules load in cannot be
    # reset in-process: loading radialma.capacity sets the package
    # attribute `capacity` to the submodule unless the function is bound
    # over it afterwards
    code = f"{imports}\nimport radialma\nprint(type(radialma.capacity).__name__)"
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    assert r.stdout == "function\n"
