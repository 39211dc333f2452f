"""The benchmark's tracer wraps package functions by name (`tracer.LAYERS`).

A rename in the package would break `perfbench/run.py --trace 1` without
failing any package test, so this installs the tracer, checks that every
listed name was wrapped, and checks that uninstalling restores each
original object.
"""

import importlib
import importlib.util
import pathlib
import sys

TRACER = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _lookup(layer, name):
    """The object the tracer wraps for name: a method on its class, or a module function."""
    home = importlib.import_module(f"semidual.{layer}")
    if "." in name:
        cls_name, method = name.split(".")
        return vars(getattr(home, cls_name))[method]
    return getattr(home, name)


def _bindings():
    """Every attribute of every loaded semidual module, by (module, attribute)."""
    return {(name, attr): value for name, module in list(sys.modules.items())
            if module is not None and (name == "semidual" or name.startswith("semidual."))
            for attr, value in vars(module).items()}


def test_tracer_wraps_every_listed_name_and_restores_it():
    tracer = _load_tracer()
    names = [(layer, name) for layer, names in tracer.LAYERS.items() for name in names]
    originals = {key: _lookup(*key) for key in names}
    before = _bindings()
    traced = tracer.Tracer()
    try:
        traced.install()
        for key, original in originals.items():
            wrapper = _lookup(*key)
            assert wrapper is not original and wrapper.__wrapped__ is original, key
    finally:
        traced.uninstall()
    assert all(_lookup(*key) is original for key, original in originals.items())
    after = _bindings()
    assert after.keys() == before.keys()
    assert [key for key, value in before.items() if after[key] is not value] == []
