"""Benchmark tasks give the same output traced and untraced.

`perfbench/tracer.py` wraps library functions and sizes the arguments of
`bareiss_rank` and `field_rank` with `len(rows)` and `len(rows[0])`, so a
library change that hands them an iterator, or that moves a target out of
its owner's own namespace, breaks only traced benchmark runs. This test
runs a few small tasks of every workload, once untraced and once under
`Tracer().install()`, through the benchmark's own task runner. The tracer
and workload files are only loaded here, never changed.
"""

import importlib.util
import pathlib
import sys

_PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location("perfbench_" + name, _PERFBENCH / (name + ".py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# (workload, task) in each workload's own task format
TASKS = (
    ("seifert-census", ("seifert", 0, 0, ((1, 2), (1, 2), (1, 2), (1, 2)), "separating_torus")),
    ("seifert-census", ("seifert", 1, 0, ((1, 3),), "nonseparating_torus")),
    ("seifert-census", ("seifert", -1, 0, ((1, 2), (1, 2), (1, 2)), "separating_torus")),
    ("boundary-rewrite", ("normalize", (1, -2, 1, 1), "(3,1,2,-1)*x1 - 2*A*(1,0,0,1)*e")),
    ("handle-slide-quotient", ("quotient", 4, 6, "oo")),
    ("handle-slide-quotient", ("quotient", 6, 8, "ee")),
    ("handle-slide-quotient", ("jprime", 2)),
    ("handle-slide-quotient", ("criterion1", 3)),
    ("cli-queries", ("cli", ("chebyshev", "--family", "S", "--n", "7"))),
    ("cli-queries", ("cli", ("lens-quotient", "--p", "4", "--degree", "6"))),
    ("cli-queries", ("cli", ("algebra-closure", "--gen", "[[1, 2], [0, 3]]", "--gen", "[[0, 1], [1, 0]]"))),
)


def _run_all(registry):
    digests = []
    for name, task in TASKS:
        wl = registry[name]
        out = wl.run(task)
        digests.append(wl.digest(task, out))
    return digests


def _bindings(tracer_module):
    owners = {id(owner): owner for owner, _attr, _name in tracer_module.TARGETS}
    for key, module in sys.modules.items():
        if key == "skeinmod" or key.startswith("skeinmod."):
            owners[id(module)] = module
    return {key: dict(vars(owner)) for key, owner in owners.items()}, owners


def test_traced_tasks_match_untraced_and_uninstall_restores():
    tracer_module = _load("tracer")
    registry = _load("workloads").REGISTRY
    plain = _run_all(registry)
    before, owners = _bindings(tracer_module)
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        traced = _run_all(registry)
    finally:
        tracer.uninstall()
    assert traced == plain
    metrics = tracer.metrics()
    for span in ("linalg.bareiss_rank", "seifert.certify", "rewrite.normalize", "cli.main"):
        assert metrics[span + ".calls"][0] >= 1, span
    for key, saved in before.items():
        now = vars(owners[key])
        changed = [attr for attr, value in saved.items() if now.get(attr) is not value]
        assert not changed, (owners[key], changed)
