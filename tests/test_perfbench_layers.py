"""perfbench's tracer wraps sforge functions by name, so every name it
lists must still resolve, or every traced benchmark run breaks.

The layer table is read from perfbench/tracer.py as it stands, without
installing the tracer, which would patch the package for every test
after this one.
"""

import importlib
import importlib.util
import os

TRACER = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench", "tracer.py")


def load_layers():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.LAYERS


def test_every_traced_binding_resolves():
    """Each LAYERS entry resolves the way Tracer.install looks it up: a
    "Class.method" through the class's own __dict__, anything else as a
    module attribute; either way to a function."""
    layers = load_layers()
    assert layers
    missing = []
    for name, modname, attr in layers:
        mod = importlib.import_module(modname)
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(mod, cls_name, None)
            raw = None if cls is None else cls.__dict__.get(meth)
            fn = getattr(raw, "__func__", raw)
        else:
            fn = getattr(mod, attr, None)
        if not callable(fn):
            missing.append(name)
    assert missing == []
