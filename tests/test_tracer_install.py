"""Installing and removing the benchmark tracer leaves every class as it was.

GaussRat binds CycNum's own __mul__, __rmul__ and inverse, so the tracer
wraps one function object under two owners; `uninstall` must put the very
same objects back in both classes. The tracer file is only loaded here,
never changed.
"""

import importlib.util
import pathlib

from skeinmod.cyclotomic import CycNum
from skeinmod.gaussian import GaussRat

_TRACER = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", _TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_install_and_uninstall_restore_the_original_functions():
    before = {cls: dict(vars(cls)) for cls in (GaussRat, CycNum)}
    tracer = _load_tracer().Tracer()
    tracer.install()
    try:
        # one wrapper serves both owners of CycNum.__mul__
        assert vars(GaussRat)["__mul__"] is vars(CycNum)["__mul__"]
        assert vars(GaussRat)["__mul__"] is not before[CycNum]["__mul__"]
        assert GaussRat(1, 2) * GaussRat(3, -1) == GaussRat(5, 5)
    finally:
        tracer.uninstall()
    for cls, saved in before.items():
        now = vars(cls)
        assert now.keys() == saved.keys()
        changed = [name for name, value in saved.items() if now[name] is not value]
        assert not changed, (cls.__name__, changed)
    assert vars(GaussRat)["__mul__"] is CycNum.__mul__
    assert vars(GaussRat)["inverse"] is CycNum.inverse
