"""The benchmark's tracer still finds every callable it patches in hog.

`bench/tracer.py` wraps hog's functions where they are bound and its
methods in the body of the class that defines them (`vars(cls)[name]`).  A
refactor that moves one of them, say `__contains__` into a shared base
class, breaks the traced benchmark run; this test makes it break tier-1.
"""

import importlib.util
import inspect
from pathlib import Path

import hog
import hog.cli  # noqa: F401  (the tracer patches names bound in the CLI too)

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"
MODULES = (hog, hog.core, hog.engine, hog.dsl, hog.cli, hog.builtins)


def _load_tracer():
    spec = importlib.util.spec_from_file_location("hog_bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bindings() -> dict:
    """Every name bound in hog's modules and in the bodies of their classes."""
    bound = {}
    for module in MODULES:
        for attr, value in vars(module).items():
            bound[module.__name__, attr] = value
            if inspect.isclass(value) and value.__module__.startswith("hog."):
                for name, member in vars(value).items():
                    bound[value.__module__, value.__qualname__, name] = member
    return bound


def test_the_tracer_installs_on_hog_and_uninstalls_cleanly():
    tracer = _load_tracer()
    before = _bindings()
    t = tracer.Tracer()
    try:
        t.install(hog)
        during = _bindings()
        for mod, cls, meth, _, _ in tracer.METHODS:
            key = (f"hog.{mod}", cls, meth)
            assert during[key] is not before[key], key
        for mod, attr, _, _ in tracer.FUNCTIONS:
            key = (f"hog.{mod}", attr)
            assert during[key] is not before[key], key
    finally:
        t.uninstall()
    after = _bindings()
    assert after.keys() == before.keys()
    assert [k for k in before if after[k] is not before[k]] == []
