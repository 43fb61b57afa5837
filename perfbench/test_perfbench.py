"""Tests of the benchmark itself: ``python3 -m pytest perfbench -q``.

Short runs of every workload go through ``run.py`` in a subprocess, the
way the benchmark is driven; the corruption and rebinding tests run
in-process against the workload and layer modules.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def _bench(*argv: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *argv],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def _result(workload: str, trace: int) -> dict:
    p = _bench("--workload", workload, "--seed", "3", "--seconds", "0.2",
               "--trace", str(trace))
    assert p.returncode == 0, p.stderr
    result = json.loads(p.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_timed_run_reports_every_end_to_end_metric(workload):
    result = _result(workload, 0)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    metrics = result["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == run.END_TO_END
    assert metrics["ok_frac"]["value"] == 1.0  # failed_frac == 0
    assert all(v["value"] > 0 for v in metrics.values())


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_traced_run_reports_every_layer_metric(workload):
    result = _result(workload, 1)
    assert result["correct"] and result["failed"] == 0
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == run.PER_LAYER
    self_times = [v for k, v in metrics.items() if k.endswith(("_ms", "_s"))]
    assert all(v >= 0 for v in self_times)
    if workload == "lint-code6":
        assert metrics["analysis.findings"] == 16
        assert metrics["fortran.lexer.classify_per_line"] == pytest.approx(5.25, abs=0.01)
        return
    assert metrics["mas.model.self_ms"] > 0
    assert metrics["mas.pcg.iterations_per_solve"] == 5
    kernels = metrics["mas.kernel.stencil_self_ms"] + metrics["mas.kernel.reduction_self_ms"]
    framework = (metrics["runtime.dispatcher.self_ms"] + metrics["mpi.halo.self_ms"]
                 + metrics["obs.metrics.self_ms"] + metrics["obs.tracing.self_ms"])
    traced = sum(v for k, v in metrics.items() if k.endswith("_self_ms") or k == "mas.model.self_ms")
    if workload == "step-mid":
        assert kernels > traced / 2
        assert metrics["obs.metrics.calls"] == 0 and metrics["obs.tracing.spans"] == 0
    if workload == "step-small":
        assert framework > traced / 2


def test_corrupted_lint_output_counts_as_failure(monkeypatch):
    import repro.analysis.fortran_lint as fl

    real = fl.analyze_codebase
    monkeypatch.setattr(fl, "analyze_codebase", lambda cb, **kw: real(cb, **kw)[1:])
    wl = workloads.WORKLOADS["lint-code6"]
    expected = workloads.load_expected()["lint-code6"]
    s = workloads.run_lint(wl, 0, 0.0, expected, setups=1)
    assert s.attempted == 1 and s.failed == 1


def test_perturbed_recorded_mass_counts_as_failure():
    wl = dataclasses.replace(workloads.WORKLOADS["step-small"], steps=2)
    model = wl.build(wl.cli_args(None), 0)
    for _ in range(workloads.WARMUP_STEPS + wl.steps):
        model.step()
    rows = workloads.member_diagnostics(model)
    ref = [{"mass": r["mass"], "max_vr": r["max_vr"]} for r in rows]
    assert workloads.check_model(rows, ref) == []
    ref[0]["mass"] *= 1 + 1e-8
    assert any("mass" in p for p in workloads.check_model(rows, ref))
    rows[0]["max_divb"] = 1e-6
    assert any("divB" in p for p in workloads.check_model(rows, ref))


IMPORTERS_OF_CLASSIFY_LINE = (
    "repro.fortran", "repro.fortran.inline", "repro.fortran.parser",
    "repro.fortran.transforms.pure_dc", "repro.fortran.frontend.lower",
    "repro.fortran.frontend.resolve", "repro.analysis.fixes",
    "repro.analysis.interproc", "repro.analysis.cost", "repro.analysis.port",
    "repro.analysis.fortran_lint",
)


def test_rebinding_reaches_imported_names():
    import importlib

    import repro.analysis.interproc as interproc
    import repro.mas.model as model
    from repro.fortran import lexer
    from repro.mpi import collectives

    for name in IMPORTERS_OF_CLASSIFY_LINE:
        importlib.import_module(name)

    orig = collectives.allreduce_sum
    tracer = layers.Tracer()
    tracer.install()
    try:
        assert model.allreduce_sum is not orig
        assert model.pcg_solve_ca.__wrapped__ is not None
        assert hasattr(interproc.classify_line, "__wrapped__")
        sites = tracer.entries["classify_line"].sites
        for name in IMPORTERS_OF_CLASSIFY_LINE:
            assert f"{name}.classify_line" in sites
    finally:
        tracer.uninstall()
    assert model.allreduce_sum is orig
    assert not hasattr(lexer.classify_line, "__wrapped__")


def test_missing_calls_fail_loudly():
    s = workloads.Samples(layers={"entry_calls": {}, "layer_calls": {}})
    missing = workloads.missing_calls("lint-code6", s)
    assert "entry point classify_line" in missing
    assert "layer fortran.lexer" in missing


def test_self_time_excludes_nested_wrapped_calls():
    tracer = layers.Tracer()
    outer = layers.Entry("outer", "a")
    inner = layers.Entry("inner", "b")
    f_inner = tracer._wrap(inner, lambda: sum(range(20000)))
    f_outer = tracer._wrap(outer, lambda: [f_inner() for _ in range(3)])
    f_outer()
    assert inner.calls == 3 and outer.calls == 1
    assert tracer.layer_calls == {"a": 1, "b": 3}
    assert tracer.self_s["a"] >= 0 and tracer.self_s["b"] > 0


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    p = _bench("--workload", "step-small", "--seed", "1", "--seconds", "1",
               "--trace", "0", cwd=tmp_path)
    assert p.returncode != 0
    assert '"metrics"' not in p.stdout


def test_benchmark_json_matches_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
