"""Lint-stack overhead benches: shadow checker and interproc summaries.

``test_shadow_overhead`` measures the host wall-clock of a small run
three ways -- checker detached (the default ``self._shadow is None``
fast path), checker attached with footprint fingerprinting on, and
attached with fingerprinting off (residency/race checks only) -- plus
the raw cost of one detached dispatch check. The ISSUE acceptance bound
is the detached fraction < 1%.

``test_interproc_summary_cache`` measures the whole-program summary
pass of ``repro.analysis.interproc`` cold, warm (content-hash cache),
and incrementally after a one-routine edit, plus the re-lint speedup
the warm cache buys ``analyze_codebase``.

``test_host_lint_code6`` times five cold lints of the generated Code 6
tree (fresh copy, summary cache cleared, as a new ``repro lint`` process
would be) and records their median and IQR, the ``classify_line`` calls
per source line, and the host fingerprint the times were taken on.

All three merge their results into ``BENCH_lint.json`` at the repo root.
Run with ``pytest benchmarks/bench_lint_overhead.py -s``.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import time
from pathlib import Path

from conftest import print_block

from repro.analysis.shadow import ShadowChecker
from repro.codes import CodeVersion, runtime_config_for
from repro.mas.model import MasModel, ModelConfig

REPO_ROOT = Path(__file__).resolve().parents[1]
ARTIFACT = REPO_ROOT / "BENCH_lint.json"

STEPS = 3
SHAPE = (8, 6, 8)
RANKS = 2
COLD_LINTS = 5


def _merge_artifact(update: dict) -> None:
    doc = {"schema": "repro-bench-lint/1"}
    if ARTIFACT.exists():
        doc.update(json.loads(ARTIFACT.read_text()))
    doc.update(update)
    ARTIFACT.write_text(json.dumps(doc, indent=2) + "\n")


def _model() -> MasModel:
    return MasModel(
        ModelConfig(shape=SHAPE, num_ranks=RANKS, pcg_iters=2,
                    sts_stages=2, extra_model_arrays=0),
        runtime_config_for(CodeVersion.A),
    )


def _run(model: MasModel) -> int:
    launches = 0
    for t in model.run(STEPS):
        launches += t.launches
    return launches


def _timed(fn) -> tuple[float, int]:
    t0 = time.perf_counter()
    out = fn()
    return time.perf_counter() - t0, out


def _check_ns(model: MasModel, n: int = 200000) -> float:
    """Nanoseconds for one detached dispatch check (attribute test)."""
    rt = model.ranks[0]
    t0 = time.perf_counter()
    for _ in range(n):
        if rt._shadow is not None:
            raise AssertionError("checker must be detached")
    return (time.perf_counter() - t0) / n * 1e9


def test_shadow_overhead(benchmark):
    _run(_model())  # warm numpy/import caches before timing

    detached_s, launches = benchmark.pedantic(
        lambda: _timed(lambda: _run(_model())), rounds=1, iterations=1
    )

    def attached_run(check_footprint: bool) -> int:
        model = _model()
        for rt in model.ranks:
            rt.attach_shadow(ShadowChecker(check_footprint=check_footprint))
        return _run(model)

    full_s, _ = _timed(lambda: attached_run(True))
    light_s, _ = _timed(lambda: attached_run(False))

    check_ns = _check_ns(_model())
    # one launch-time check + one body wrap per dispatch
    detached_fraction = launches * 2 * check_ns * 1e-9 / detached_s
    result = {
        "config": {"steps": STEPS, "shape": list(SHAPE), "ranks": RANKS,
                   "version": "A"},
        "kernel_launches": launches,
        "detached_seconds": detached_s,
        "attached_light_seconds": light_s,
        "attached_full_seconds": full_s,
        "attached_full_overhead_fraction": full_s / detached_s - 1.0,
        "detached_check_ns": check_ns,
        "detached_check_calls_per_run": launches * 2,
        "detached_overhead_fraction": detached_fraction,
    }
    _merge_artifact(result)

    print_block(
        "SHADOW CHECKER OVERHEAD -- attached vs detached",
        "\n".join(
            [
                f"detached run          {detached_s * 1e3:8.1f} ms "
                f"({launches} launches)",
                f"attached (no prints)  {light_s * 1e3:8.1f} ms "
                f"(residency+races)",
                f"attached (full)       {full_s * 1e3:8.1f} ms "
                f"({result['attached_full_overhead_fraction'] * 100:+.1f}%, "
                f"fingerprinting on)",
                f"detached check        {check_ns:8.1f} ns/call -> "
                f"{detached_fraction * 100:.3f}% of a run",
                f"wrote {ARTIFACT}",
            ]
        ),
    )

    # ISSUE acceptance: the disabled path must stay under 1%
    assert detached_fraction < 0.01


def test_interproc_summary_cache(benchmark):
    from repro.analysis.fortran_lint import analyze_codebase
    from repro.analysis.interproc import clear_summary_cache, summarize
    from repro.fortran.codebase import generate_mas_codebase
    from repro.fortran.pipeline import build_version

    cb = build_version(CodeVersion.A, code1=generate_mas_codebase())

    clear_summary_cache()
    cold_s, cold = benchmark.pedantic(
        lambda: _timed(lambda: summarize(cb)), rounds=1, iterations=1
    )
    assert cold.stats.hits == 0

    warm_s, warm = _timed(lambda: summarize(cb))
    assert warm.stats.misses == 0

    # touch one routine body: only it and its callers should recompute
    target = cb.files[0]
    for i, ln in enumerate(target.lines):
        stripped = ln.strip()
        if "=" in stripped and not stripped.startswith("!"):
            target.lines[i] = f"{ln}  ! bench: touched"
            break
    incr_s, incr = _timed(lambda: summarize(cb))
    assert 0 < incr.stats.misses < len(incr.summaries)

    # re-lint speedup: the summary pass is the only cross-file stage of
    # analyze_codebase, so a warm cache shrinks the whole lint
    clear_summary_cache()
    relint_cold_s, _ = _timed(lambda: analyze_codebase(cb))
    relint_warm_s, _ = _timed(lambda: analyze_codebase(cb))

    result = {
        "interproc": {
            "routines": len(cold.summaries),
            "summarize_cold_seconds": cold_s,
            "summarize_warm_seconds": warm_s,
            "summarize_incremental_seconds": incr_s,
            "incremental_recomputed": incr.stats.misses,
            "relint_cold_seconds": relint_cold_s,
            "relint_warm_seconds": relint_warm_s,
            "relint_speedup": relint_cold_s / relint_warm_s,
        }
    }
    _merge_artifact(result)

    print_block(
        "INTERPROC SUMMARIES -- cold vs cached vs incremental",
        "\n".join(
            [
                f"summarize cold        {cold_s * 1e3:8.1f} ms "
                f"({len(cold.summaries)} routines)",
                f"summarize warm        {warm_s * 1e3:8.1f} ms "
                f"(all {warm.stats.hits} cached)",
                f"summarize after edit  {incr_s * 1e3:8.1f} ms "
                f"({incr.stats.misses} recomputed)",
                f"re-lint cold          {relint_cold_s * 1e3:8.1f} ms",
                f"re-lint warm          {relint_warm_s * 1e3:8.1f} ms "
                f"({relint_cold_s / relint_warm_s:.2f}x)",
                f"wrote {ARTIFACT}",
            ]
        ),
    )


def _host_fingerprint() -> dict:
    """CPU count, interpreter, numpy/BLAS build and BLAS thread variables."""
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "thread_env": {
            k: v for k, v in sorted(os.environ.items())
            if k.startswith(("OPENBLAS_", "OMP_"))
        },
    }


def test_host_lint_code6(benchmark):
    from repro.analysis.fortran_lint import analyze_codebase
    from repro.analysis.interproc import clear_summary_cache
    from repro.analysis.lexcount import LIMIT, cold_lint_calls_per_line
    from repro.fortran.codebase import generate_mas_codebase
    from repro.fortran.pipeline import build_version

    cb = build_version(CodeVersion.D2XAD, code1=generate_mas_codebase())

    def cold_lint() -> float:
        work = cb.copy()
        clear_summary_cache()
        t0 = time.perf_counter()
        analyze_codebase(work, jobs=1)
        return time.perf_counter() - t0

    cold_lint()  # warm imports and regex caches before timing
    times = benchmark.pedantic(
        lambda: [cold_lint() for _ in range(COLD_LINTS)], rounds=1, iterations=1
    )
    q1, median, q3 = statistics.quantiles(times, n=4, method="inclusive")
    per_line = cold_lint_calls_per_line(cb)
    result = {
        "host_lint_code6": {
            "lines": cb.total_lines,
            "cold_lints": COLD_LINTS,
            "host_cold_lint_median_seconds": median,
            "host_cold_lint_iqr_seconds": q3 - q1,
            "classify_line_calls_per_line": per_line,
            "env": _host_fingerprint(),
        }
    }
    _merge_artifact(result)

    print_block(
        "HOST COLD LINT -- generated Code 6",
        "\n".join(
            [
                f"cold lint         {median * 1e3:8.1f} ms median, "
                f"IQR {(q3 - q1) * 1e3:.1f} ms ({COLD_LINTS} runs, "
                f"{cb.total_lines} lines)",
                f"classify_line     {per_line:8.3f} calls/line",
                f"wrote {ARTIFACT}",
            ]
        ),
    )

    assert per_line <= LIMIT
