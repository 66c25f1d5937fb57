"""The perfbench tracer's targets exist where the tracer patches them.

``perfbench/tracing.py`` names library functions and methods as strings, so
a rename (or a method moved into a base class) would otherwise show only in
a traced benchmark run. The tracer module is loaded from its file, unchanged.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

import adaptfly.fleet.transport as transport

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _load_tracing()


@pytest.mark.parametrize("module_name, attr", [
    (module_name, attr)
    for module_name, attrs in tracing.MODULE_TARGETS.items() for attr in attrs
])
def test_module_targets_are_functions_of_their_module(module_name, attr):
    assert callable(vars(importlib.import_module(module_name)).get(attr))


@pytest.mark.parametrize("module_name, cls_name, attr", [
    (module_name, cls_name, attr)
    for (module_name, cls_name), attrs in tracing.CLASS_TARGETS.items() for attr in attrs
])
def test_class_targets_are_defined_in_the_class_body(module_name, cls_name, attr):
    cls = getattr(importlib.import_module(module_name), cls_name)
    assert attr in vars(cls)


@pytest.mark.parametrize("attr", sorted(tracing.TRANSPORT_METHODS))
def test_transport_methods_are_defined_by_a_client_class(attr):
    assert any(isinstance(cls, type) and cls.__module__ == transport.__name__
               and attr in vars(cls) for cls in vars(transport).values())


def test_byte_pipe_write_is_defined_in_its_class_body():
    assert "write" in vars(transport.BytePipe)
