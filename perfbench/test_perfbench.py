"""Tests of the benchmark itself: python3 -m pytest -q perfbench/test_perfbench.py"""

import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import run  # noqa: E402

with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)

PREFIX = 6


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_smoke_prints_every_metric(workload, capsys):
    result = run.measure(workload, run.GOLDEN_SEED, 0, trace=False, limit=PREFIX, setup_samples=1)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= PREFIX
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert "error_rate" in capsys.readouterr().out

    traced = run.measure(workload, run.GOLDEN_SEED, 0, trace=True, limit=PREFIX)
    assert traced["correct"]
    assert set(traced["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        if metric["name"] in traced["metrics"]:
            assert traced["metrics"][metric["name"]]["unit"] == metric["unit"]


def test_workload_names_match_the_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)


def test_task_lists_repeat_per_seed_and_differ_between_seeds():
    workloads = run._import_workloads()
    for name in run.WORKLOADS:
        wl = workloads.REGISTRY[name]
        assert wl.tasks(4) == wl.tasks(4)
        assert wl.tasks(4) != wl.tasks(5)
        assert len(wl.tasks(4)) >= 100


def test_fault_injection_fails_the_run(monkeypatch, capsys):
    from skeinmod import cli

    monkeypatch.setattr(cli, "format_int_poly", lambda poly: "x^2 - 2")
    assert run.main(["--workload", "cli-queries", "--seed", "7", "--seconds", "0"]) != 0
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert last["correct"] is False and last["failed"] > 0


def test_fault_in_a_kernel_is_caught_by_the_property_checks(monkeypatch):
    from skeinmod import rewrite

    real = rewrite.normalize
    monkeypatch.setattr(rewrite, "normalize", lambda e, slopes: e if len(e.terms) else real(e, slopes))
    result = run.measure("boundary-rewrite", 9, 0, trace=False, limit=40, setup_samples=1)
    assert result["failed"] > 0 and not result["correct"]


def test_uninstall_restores_every_binding():
    run._import_workloads()
    import tracer

    modules = {k: m for k, m in sys.modules.items() if k == "skeinmod" or k.startswith("skeinmod.")}
    classes = {owner for owner, _attr, _name in tracer.TARGETS if isinstance(owner, type)}
    before = {k: dict(vars(m)) for k, m in modules.items()}
    before_cls = {c: dict(vars(c)) for c in classes}

    tr = tracer.Tracer()
    tr.install()
    try:
        assert modules["skeinmod.handlebody"].bareiss_rank is not before["skeinmod.handlebody"]["bareiss_rank"]
        assert modules["skeinmod.cli"].certify is not before["skeinmod.cli"]["certify"]
        assert vars(modules["skeinmod.cyclotomic"].CycNum)["__rmul__"].__wrapped__ is (
            before_cls[modules["skeinmod.cyclotomic"].CycNum]["__rmul__"]
        )
    finally:
        tr.uninstall()

    for key, module in modules.items():
        after = vars(module)
        assert all(after[name] is value for name, value in before[key].items()), key
    for cls, saved in before_cls.items():
        assert all(vars(cls)[name] is value for name, value in saved.items()), cls


def test_self_time_excludes_children():
    run._import_workloads()
    import tracer
    from skeinmod import seifert

    tr = tracer.Tracer()
    tr.install()
    try:
        seifert.certify(seifert.SeifertData(0, 0, [(1, 2), (1, 2), (1, 3), (1, 3)]))
    finally:
        tr.uninstall()
    metrics = tr.metrics()
    spans = len(tr.span_start)
    assert spans == sum(tr.calls) > 0
    root = [i for i in range(spans) if tr.span_parent[i] == -1]
    total = sum(tr.span_end[i] - tr.span_start[i] for i in root) / 1e9
    self_total = sum(v for k, (v, _u) in metrics.items() if k.endswith(".self_s"))
    assert abs(self_total - total) < 1e-6 * spans + 1e-3
    assert metrics["seifert.candidates_per_cert"][0] >= 1
    assert metrics["cyclotomic.mul.calls.small"][0] > 0
