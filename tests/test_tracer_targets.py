"""The benchmark tracer finds every function and method it wraps.

`perfbench/tracer.py` reads each target from `owner.__dict__`, so a method
that a class only inherits (such as LaurentPoly.__add__ from SparseSum)
must still be bound in the class's own namespace, and a module target must
be defined or imported in that module itself. The tracer file is only
loaded here, never changed.
"""

import importlib.util
import pathlib

_TRACER = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", _TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_class_target_is_bound_in_its_own_class():
    targets = _load_tracer().TARGETS
    classes = [(owner, attr) for owner, attr, _name in targets if isinstance(owner, type)]
    assert classes
    missing = [f"{owner.__name__}.{attr}" for owner, attr in classes if attr not in vars(owner)]
    assert not missing, missing


def test_every_module_target_is_bound_in_its_own_module():
    targets = _load_tracer().TARGETS
    modules = [(owner, attr) for owner, attr, _name in targets if not isinstance(owner, type)]
    assert modules
    missing = [f"{owner.__name__}.{attr}" for owner, attr in modules if not callable(vars(owner).get(attr))]
    assert not missing, missing
