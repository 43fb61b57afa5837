"""Host wall-clock benchmark of the repro CLI paths (see README.md).

    python3 perfbench/run.py --workload step-small --seed 1 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation.
``--trace 1`` spends half of ``--seconds`` on an untraced pass (the base
of ``trace.overhead_frac``) and the other half with every layer's entry
points wrapped (``layers.py``), and reports per-layer self times and
counts.  The last stdout line is the JSON result; the line before it
records the environment fingerprint, sample counts and raw medians.
``--record`` rewrites ``expected.json`` (the reference values of the
correctness checks) from the current code.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
from statistics import median, quantiles
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

END_TO_END = {
    "setup_s": "s",
    "op_ms": "ms",
    "work_per_s": "1/s",
    "finalize_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "ratio",
}

MODEL_LAYERS = {
    "runtime.dispatcher.self_ms": "ms",
    "runtime.dispatcher.calls": "count",
    "runtime.launches": "count",
    "mas.kernel.stencil_self_ms": "ms",
    "mas.kernel.reduction_self_ms": "ms",
    "mas.kernel.calls": "count",
    "mas.pcg.self_ms": "ms",
    "mas.pcg.iterations_per_solve": "count",
    "mpi.halo.self_ms": "ms",
    "mpi.halo.calls": "count",
    "mpi.collectives.self_ms": "ms",
    "mpi.collectives.calls": "count",
    "obs.metrics.self_ms": "ms",
    "obs.metrics.calls": "count",
    "obs.tracing.self_ms": "ms",
    "obs.tracing.spans": "count",
    "mas.model.self_ms": "ms",
}
LINT_LAYERS = {
    "fortran.lexer.self_s": "s",
    "fortran.lexer.classify_calls": "count",
    "fortran.lexer.classify_per_line": "call/line",
    "fortran.frontend.index_s": "s",
    "analysis.interproc.summarize_s": "s",
    "analysis.rules_s": "s",
    "analysis.findings": "count",
}
PER_LAYER = {**MODEL_LAYERS, **LINT_LAYERS, "trace.overhead_frac": "ratio"}


def _import_repro() -> None:
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import repro  # noqa: F401
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import the repro package from {ROOT / 'src'}: {exc}")


def fingerprint() -> dict:
    """Machine, interpreter, numpy/BLAS build and BLAS thread variables.

    The thread variables are recorded, never set: BLAS threading is part
    of what a step costs here.
    """
    import platform

    import numpy as np

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(
                (ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "thread_env": {
            k: v for k, v in sorted(os.environ.items())
            if k.startswith(("OPENBLAS_", "OMP_", "MKL_"))
        },
    }


def p90(xs: list[float]) -> float:
    return quantiles(xs, n=10, method="inclusive")[-1] if len(xs) > 1 else xs[0]


def end_to_end_metrics(s) -> dict[str, float]:
    op = median(s.op_s)
    return {
        "setup_s": median(s.setup_s),
        "op_ms": op * 1e3,
        "work_per_s": s.work_per_op / op,
        "finalize_s": median(s.finalize_s),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_frac": (s.attempted - s.failed) / s.attempted,
    }


def layer_metrics(s, baseline_op_s: float, lint: bool) -> dict[str, float]:
    """Per-layer metrics from the traced run's accumulated deltas."""
    from layers import REDUCTION_LAYER, STENCIL_LAYER

    n = len(s.op_s)
    self_s = s.layers["self_s"]
    calls = s.layers["layer_calls"]
    entries = s.layers["entry_calls"]
    counts = s.layers["counts"]
    out = dict.fromkeys(PER_LAYER, 0.0)
    out["trace.overhead_frac"] = median(s.op_s) / baseline_op_s - 1.0
    if lint:  # per cold lint, seconds
        classify = entries.get("classify_line", 0) / n
        out.update({
            "fortran.lexer.self_s": self_s.get("fortran.lexer", 0.0) / n,
            "fortran.lexer.classify_calls": classify,
            "fortran.lexer.classify_per_line": classify / s.work_per_op,
            "fortran.frontend.index_s": self_s.get("fortran.frontend", 0.0) / n,
            "analysis.interproc.summarize_s": self_s.get("analysis.interproc", 0.0) / n,
            "analysis.rules_s": self_s.get("analysis.rules", 0.0) / n,
            "analysis.findings": s.facts.get("findings", 0) / n,
        })
        return out

    def ms(layer: str) -> float:
        return self_s.get(layer, 0.0) / n * 1e3

    out.update({
        "runtime.dispatcher.self_ms": ms("runtime.dispatcher"),
        "runtime.dispatcher.calls": calls.get("runtime.dispatcher", 0) / n,
        "runtime.launches": s.facts.get("launches", 0) / n,
        "mas.kernel.stencil_self_ms": ms(STENCIL_LAYER),
        "mas.kernel.reduction_self_ms": ms(REDUCTION_LAYER),
        "mas.kernel.calls": calls.get("mas.kernel", 0) / n,
        "mas.pcg.self_ms": ms("mas.pcg"),
        "mas.pcg.iterations_per_solve": (
            counts.get("pcg.iterations", 0.0) / max(1.0, counts.get("pcg.solves", 0.0))
        ),
        "mpi.halo.self_ms": ms("mpi.halo"),
        "mpi.halo.calls": calls.get("mpi.halo", 0) / n,
        "mpi.collectives.self_ms": ms("mpi.collectives"),
        "mpi.collectives.calls": calls.get("mpi.collectives", 0) / n,
        "obs.metrics.self_ms": ms("obs.metrics"),
        "obs.metrics.calls": calls.get("obs.metrics", 0) / n,
        "obs.tracing.self_ms": ms("obs.tracing"),
        "obs.tracing.spans": entries.get("Tracer.span", 0) / n,
        "mas.model.self_ms": ms("mas.model"),
    })
    return out


def run_workload(name: str, seed: int, seconds: float, trace: bool, scratch: Path):
    """Run one workload; returns (samples, metrics)."""
    from layers import Tracer
    from workloads import (
        N_VARIANTS, WORKLOADS, LintWorkload, load_expected, missing_calls,
        observers, run_lint, run_model,
    )

    wl = WORKLOADS[name]
    variant = seed % N_VARIANTS
    expected = load_expected()[name]
    if isinstance(wl, LintWorkload):
        def run(sec, tracer=None, setups=None):
            return run_lint(wl, seed, sec, expected, tracer, setups)
    else:
        def run(sec, tracer=None, setups=None):
            return run_model(wl, variant, sec, scratch, expected[str(variant)],
                             tracer, warm=tracer is None)
    if not trace:
        s = run(seconds)
        return s, end_to_end_metrics(s)
    baseline = run(seconds / 2, setups=1)
    tracer = Tracer()
    tracer.install(observers(tracer))
    try:
        s = run(seconds / 2, tracer, setups=1)
    finally:
        tracer.uninstall()
    s.attempted += baseline.attempted
    s.failed += baseline.failed
    s.errors += baseline.errors
    missing = missing_calls(name, s)
    if missing:
        raise RuntimeError(
            f"traced run of {name}: zero calls recorded for "
            + ", ".join(missing)
            + " -- the wrapper is not on the path the workload takes, so its"
            " layer would silently read 0"
        )
    return s, layer_metrics(s, median(baseline.op_s), isinstance(wl, LintWorkload))


def record() -> None:
    """Rewrite expected.json: reference diagnostics and findings."""
    from workloads import (
        EXPECTED_PATH, N_VARIANTS, WARMUP_STEPS, WORKLOADS, LintWorkload,
        finding_keys, member_diagnostics,
    )
    from repro.analysis.fortran_lint import analyze_codebase
    from repro.analysis.interproc import clear_summary_cache

    out: dict = {}
    for name, wl in WORKLOADS.items():
        if isinstance(wl, LintWorkload):
            clear_summary_cache()
            out[name] = finding_keys(analyze_codebase(wl.build(0), jobs=1))
            continue
        out[name] = {}
        for variant in range(N_VARIANTS):
            model = wl.build(wl.cli_args(None), variant)
            for _ in range(WARMUP_STEPS + wl.steps):
                model.step()
            out[name][str(variant)] = [
                {"mass": r["mass"], "max_vr": r["max_vr"]}
                for r in member_diagnostics(model)
            ]
    EXPECTED_PATH.write_text(json.dumps(out, indent=1) + "\n")
    print(f"wrote {EXPECTED_PATH}")


def main(argv: list[str] | None = None) -> int:
    from workloads import WORKLOADS

    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=list(WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record", action="store_true",
                   help="rewrite expected.json from the current code and exit")
    args = p.parse_args(argv)
    _import_repro()
    if args.record:
        record()
        return 0
    if not args.workload:
        p.error("--workload is required")
    scratch = ROOT / ".perfbench_tmp" / str(os.getpid())
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        samples, metrics = run_workload(
            args.workload, args.seed, args.seconds, bool(args.trace), scratch
        )
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            scratch.parent.rmdir()
        except OSError:
            pass
    for err in samples.errors:
        print(f"perfbench: FAILED {err}", file=sys.stderr)
    units = PER_LAYER if args.trace else END_TO_END
    print(json.dumps({
        "env": fingerprint(),
        "samples": {k: len(v) for k, v in samples.raw.items()},
        "raw_median_s": {k: median(v) for k, v in samples.raw.items()},
        "op_ms_p90": p90(samples.op_s) * 1e3,
    }))
    print(json.dumps({
        "correct": samples.failed == 0,
        "attempted": samples.attempted,
        "failed": samples.failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
