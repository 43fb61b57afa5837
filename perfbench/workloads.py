"""The four benchmark workloads: inputs from a seed, timed loops, checks.

Model workloads build :class:`repro.mas.model.MasModel` exactly as
``repro run`` / ``repro sweep`` do (options parsed by the CLI's own parser,
so CLI defaults carry over) and time warm host steps.  The lint workload
times cold ``analyze_codebase`` passes over the generated Code 6 tree.

Every workload returns a :class:`Samples` of speed-scaled timings
(:mod:`speed`); ``run.py`` turns those into the end-to-end metrics and, in
traced mode, the accumulated :mod:`layers` deltas into per-layer metrics.
"""

from __future__ import annotations

import gc
import json
import random
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median
from typing import Any, Callable

import numpy as np

import speed
from layers import Tracer, diff

HERE = Path(__file__).resolve().parent
EXPECTED_PATH = HERE / "expected.json"

#: Relative tolerance on mass and max|vr| against the recorded values: loose
#: enough for a reduction-order change, tight enough to catch a wrong result.
REL_TOL = 1e-9
#: Constrained transport keeps div B at round-off.
DIVB_TOL = 1e-10

#: Seeded input variants (seed % N picks one).  Every variant costs the
#: same work -- fixed PCG iterations and RKL2 stages -- so seeds change the
#: numbers a run must reproduce, not how long it takes.
PERTURBATIONS = (0.02, 0.025, 0.03, 0.035)
VISCOSITY_RANGES = ((2e-3, 8e-3), (1e-3, 1e-2), (3e-3, 6e-3), (4e-3, 1.6e-2))
N_VARIANTS = len(PERTURBATIONS)

#: Timings of the short end-of-command report per model run or cold lint.
FINALIZE_REPEATS = 25
#: Untimed steps of each fresh model before its timed steps.
WARMUP_STEPS = 1


@dataclass
class Samples:
    """Measurements of one run of one workload.

    ``setup_s``, ``op_s`` and ``finalize_s`` hold host seconds scaled to
    the baseline machine speed (:mod:`speed`); ``raw`` keeps them unscaled.
    """

    setup_s: list[float] = field(default_factory=list)
    op_s: list[float] = field(default_factory=list)
    finalize_s: list[float] = field(default_factory=list)
    raw: dict[str, list[float]] = field(
        default_factory=lambda: {"setup_s": [], "op_s": [], "finalize_s": []}
    )
    #: Work units per op: member-steps (model) or source lines (lint).
    work_per_op: float = 1.0
    attempted: int = 0
    failed: int = 0
    #: Accumulated :func:`layers.diff` over the timed ops (traced runs).
    layers: dict[str, dict] | None = None
    #: Extra per-op facts the per-layer metrics need.
    facts: dict[str, float] = field(default_factory=dict)
    errors: list[str] = field(default_factory=list)

    def add(self, key: str, seconds: float, speed_factor: float) -> None:
        """Record one timing, scaled by the adjacent machine-speed factor."""
        getattr(self, key).append(seconds * speed_factor)
        self.raw[key].append(seconds)

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.errors.append(what)


def _add(acc: dict[str, dict] | None, delta: dict[str, dict]) -> dict[str, dict]:
    if acc is None:
        return delta
    for group, values in delta.items():
        for k, v in values.items():
            acc[group][k] = acc[group].get(k, 0) + v
    return acc


def load_expected() -> dict:
    return json.loads(EXPECTED_PATH.read_text())


# -- model workloads ---------------------------------------------------------


_MODEL_LAYERS = (
    "mas.model", "runtime.dispatcher", "mas.kernel", "mas.pcg", "mpi.halo",
    "mpi.collectives",
)


@dataclass(frozen=True)
class ModelWorkload:
    """A ``repro run`` / ``repro sweep`` configuration."""

    name: str
    shape: tuple[int, int, int]
    members: int
    telemetry: bool
    #: Timed steps per model instance (after ``WARMUP_STEPS``).
    steps: int
    #: Entry points and layers the traced run must see called; one with
    #: zero calls would otherwise report a silent 0 ms.
    expect: tuple[str, ...] = ()
    expect_layers: tuple[str, ...] = _MODEL_LAYERS

    def cli_args(self, telemetry_dir: str | None):
        from repro.cli import build_parser

        argv = [
            "sweep" if self.members > 1 else "run",
            "--version", "A", "--ranks", "2", "--pcg", "ca",
            "--shape", *map(str, self.shape),
            "--steps", str(WARMUP_STEPS + self.steps),
        ]
        if self.members > 1:
            argv += ["--members", str(self.members)]
        if telemetry_dir:
            argv += ["--telemetry", telemetry_dir]
        return build_parser().parse_args(argv)

    def build(self, args, variant: int):
        """Construct the model the way ``cmd_run`` / ``cmd_sweep`` do."""
        from repro.codes.versions import CodeVersion, runtime_config_for
        from repro.mas.model import MasModel, ModelConfig

        extra: dict[str, Any] = {}
        if self.members > 1:
            lo, hi = VISCOSITY_RANGES[variant]
            values = tuple(float(v) for v in np.linspace(lo, hi, self.members))
            nr, nt, nphi = ModelConfig.__dataclass_fields__["nominal_shape"].default
            extra = dict(
                nominal_shape=(nr, nt, max(1, nphi // self.members)),
                ensemble_size=self.members,
                ensemble_vary=(("viscosity", values),),
            )
        else:
            extra = dict(perturbation=PERTURBATIONS[variant])
        config = ModelConfig(
            shape=tuple(args.shape),
            num_ranks=args.ranks,
            pcg_iters=args.pcg_iters,
            pcg_variant=args.pcg,
            pcg_precond=args.precond,
            pcg_tol=args.pcg_tol,
            cheby_degree=args.cheby_degree,
            sts_stages=args.sts_stages,
            halo_overlap=args.halo_overlap,
            **extra,
        )
        return MasModel(config, runtime_config_for(CodeVersion[args.version]))


    def report(self, model) -> str:
        """The end-of-command summary ``cmd_run`` / ``cmd_sweep`` print."""
        if self.members > 1:
            from repro.cli import _render_member_rows

            return _render_member_rows(model.ensemble_report())
        d = model.diagnostics()
        return (
            f"done: t={model.time:.4f}, mass={d['mass']:.4f}, "
            f"max|divB|={d['max_divb']:.2e}, max vr={d['max_vr']:.4f}"
        )


def member_diagnostics(model) -> list[dict[str, float]]:
    """Per-member mass, max|divB|, max|vr| and finiteness (B=1: one row)."""
    from repro.mas import operators as ops
    from repro.mas.state import ALL_FIELDS

    rows = []
    for b in range(model.config.ensemble_size):
        mass, divb, vr, finite = 0.0, 0.0, 0.0, True
        for grid, state in zip(model.local_grids, model.states):
            s = state.member_view(b) if state.members else state
            i = grid.interior()
            finite &= all(np.isfinite(s.get(n)).all() for n in ALL_FIELDS)
            mass += float((s.rho[i] * grid.volume[i]).sum())
            d = ops.div_face(s.br, s.bt, s.bp, grid)[i]
            divb = max(divb, float(np.abs(d).max()))
            vr = max(vr, float(np.abs(s.vr[i]).max()))
        rows.append({"mass": mass, "max_divb": divb, "max_vr": vr, "finite": finite})
    return rows


def check_model(rows: list[dict], expected: list[dict]) -> list[str]:
    """Problems with one run's per-member diagnostics (empty when correct)."""
    if len(rows) != len(expected):
        return [f"{len(rows)} members, expected {len(expected)}"]
    problems = []
    for b, (got, ref) in enumerate(zip(rows, expected)):
        if not got["finite"]:
            problems.append(f"member {b}: non-finite state")
        if not got["max_divb"] <= DIVB_TOL:
            problems.append(f"member {b}: max|divB| {got['max_divb']:.3e}")
        for key in ("mass", "max_vr"):
            rel = abs(got[key] - ref[key]) / abs(ref[key])
            if not rel <= REL_TOL:
                problems.append(
                    f"member {b}: {key} {got[key]!r} vs recorded {ref[key]!r}"
                )
    return problems


def run_model(
    wl: ModelWorkload,
    variant: int,
    seconds: float,
    scratch: Path,
    expected: list[dict],
    tracer: Tracer | None = None,
    warm: bool = True,
) -> Samples:
    """Repeat whole runs (build, warm-up, timed steps, finish) for
    ``seconds``; the first run of the process is an unrecorded warm-up."""
    from repro.obs import session

    out = Samples(work_per_op=float(wl.members))
    rep = 0
    t_start = None
    while t_start is None or time.perf_counter() - t_start < seconds or not out.op_s:
        record = rep > 0 or not warm
        if record and t_start is None:
            t_start = time.perf_counter()
        tel_dir = str(scratch / f"tel{rep}") if wl.telemetry else None
        args = wl.cli_args(tel_dir)
        cli = {
            k: v for k, v in vars(args).items()
            if k not in ("fn", "telemetry") and not callable(v)
        }
        gc.collect()
        before = speed.probe()
        ops: list[float] = []
        with session(tel_dir, command=args.command, cli=cli):
            t0 = time.perf_counter()
            model = wl.build(args, variant)
            setup = time.perf_counter() - t0
            for _ in range(WARMUP_STEPS):
                model.step()
            for _ in range(wl.steps):
                launches0 = sum(rt.stats.launches for rt in model.ranks)
                snap0 = tracer.snapshot() if tracer else None
                t0 = time.perf_counter()
                model.step()
                dt = time.perf_counter() - t0
                if tracer and record:
                    out.layers = _add(out.layers, diff(tracer.snapshot(), snap0))
                    launches = sum(rt.stats.launches for rt in model.ranks)
                    out.facts["launches"] = (
                        out.facts.get("launches", 0) + launches - launches0
                    )
                ops.append(dt)
            # What the CLI does after its step loop: a report inside the
            # session (short, so timed several times), then the close.
            reports = []
            for _ in range(FINALIZE_REPEATS):
                t0 = time.perf_counter()
                wl.report(model)
                reports.append(time.perf_counter() - t0)
            t0 = time.perf_counter()
        finalize = median(reports) + time.perf_counter() - t0
        if tel_dir:
            shutil.rmtree(tel_dir, ignore_errors=True)
        if record:
            # Each timing is scaled by the probe(s) next to it.
            after = speed.probe()
            out.add("setup_s", setup, speed.factor(before))
            out.add("finalize_s", finalize, speed.factor(after))
            f = speed.factor(before, after)
            for dt in ops:
                out.add("op_s", dt, f)
            problems = check_model(member_diagnostics(model), expected)
            out.check(not problems, f"{wl.name} run {rep}: " + "; ".join(problems))
        rep += 1
    return out


# -- lint workload -----------------------------------------------------------


@dataclass(frozen=True)
class LintWorkload:
    """Cold ``analyze_codebase`` over the generated Code 6 (``D2XAD``) tree."""

    name: str
    #: Set-ups per timed run (their median is ``setup_s``).
    setups: int = 3
    expect: tuple[str, ...] = ()
    expect_layers: tuple[str, ...] = (
        "analysis.rules", "fortran.lexer", "fortran.frontend", "analysis.interproc",
    )

    def build(self, seed: int):
        """Generate Code 1, port it to Code 6; shuffle the file order."""
        from repro.codes.versions import CodeVersion
        from repro.fortran.codebase import generate_mas_codebase
        from repro.fortran.pipeline import build_version

        cb = build_version(CodeVersion.D2XAD, code1=generate_mas_codebase())
        random.Random(seed).shuffle(cb.files)
        return cb


def finding_keys(findings) -> list[list]:
    """Findings as sorted ``[rule, file, line]`` triples."""
    return sorted([f.rule_id, f.file, f.line] for f in findings)


def run_lint(
    wl: LintWorkload,
    seed: int,
    seconds: float,
    expected: list[list],
    tracer: Tracer | None = None,
    setups: int | None = None,
) -> Samples:
    """Set up ``setups`` times, then lint cold until ``seconds`` pass."""
    from repro.analysis.findings import sort_findings
    from repro.analysis.fixes import attach_fixes
    from repro.analysis.fortran_lint import analyze_codebase
    from repro.analysis.interproc import clear_summary_cache
    from repro.analysis.report import render_findings

    out = Samples()
    for _ in range(setups or wl.setups):
        cb = None  # free the previous tree before building the next
        gc.collect()
        before = speed.probe()
        t0 = time.perf_counter()
        cb = wl.build(seed)
        setup = time.perf_counter() - t0
        out.add("setup_s", setup, speed.factor(before, speed.probe()))
    out.work_per_op = float(sum(len(f.lines) for f in cb.files))
    t_start = time.perf_counter()
    while time.perf_counter() - t_start < seconds or not out.op_s:
        work = cb.copy()
        # A fresh CLI process: no summaries cached, no garbage pending.
        clear_summary_cache()
        gc.collect()
        before = speed.probe()
        snap0 = tracer.snapshot() if tracer else None
        t0 = time.perf_counter()
        findings = analyze_codebase(work, jobs=1)
        dt = time.perf_counter() - t0
        if tracer:
            out.layers = _add(out.layers, diff(tracer.snapshot(), snap0))
            out.facts["findings"] = out.facts.get("findings", 0) + len(findings)
        mid = speed.probe()
        out.add("op_s", dt, speed.factor(before, mid))
        # What ``repro lint`` does with the findings before exiting; short,
        # so timed several times per lint.
        finals = []
        for _ in range(FINALIZE_REPEATS):
            t0 = time.perf_counter()
            render_findings(attach_fixes(work, sort_findings(findings)))
            finals.append(time.perf_counter() - t0)
        f = speed.factor(mid, speed.probe())
        for fin in finals:
            out.add("finalize_s", fin, f)
        got = finding_keys(findings)
        out.check(
            got == expected,
            f"{wl.name}: {len(got)} findings differ from the {len(expected)} recorded",
        )
    return out


# -- registry ------------------------------------------------------------------

_MODEL_EXPECT = (
    "MasModel.step", "RankRuntime.loop", "RankRuntime.scalar_reduction",
    "RankRuntime.kernels_region", "RankRuntime.region", "KernelSpec.run_body",
    "HaloExchanger.exchange_begin", "HaloExchanger.exchange_begin_many",
    "HaloExchanger.exchange_finish", "allreduce_min", "allreduce_many",
)
_OBS_EXPECT = (
    "MetricsRegistry.counter", "MetricFamily.labels", "Counter.inc",
    "Histogram.observe", "Tracer.span",
)

WORKLOADS: dict[str, ModelWorkload | LintWorkload] = {
    "step-small": ModelWorkload(
        "step-small", (12, 10, 20), 1, telemetry=True, steps=12,
        expect=_MODEL_EXPECT + ("pcg_solve_ca",) + _OBS_EXPECT,
        expect_layers=_MODEL_LAYERS + ("obs.metrics", "obs.tracing"),
    ),
    "step-mid": ModelWorkload(
        "step-mid", (32, 24, 48), 1, telemetry=False, steps=6,
        expect=_MODEL_EXPECT + ("pcg_solve_ca",),
    ),
    "sweep-b8": ModelWorkload(
        "sweep-b8", (12, 10, 20), 8, telemetry=False, steps=8,
        expect=_MODEL_EXPECT + ("pcg_solve_ca_batched",),
    ),
    "lint-code6": LintWorkload(
        "lint-code6",
        expect=("analyze_codebase", "classify_line", "build_index", "summarize"),
    ),
}

def missing_calls(name: str, samples: Samples) -> list[str]:
    """Expected entry points or layers that recorded zero calls."""
    wl = WORKLOADS[name]
    layers = samples.layers or {"entry_calls": {}, "layer_calls": {}}
    missing = [
        f"entry point {e}"
        for e in wl.expect
        if layers["entry_calls"].get(e, 0) <= 0
    ]
    missing += [
        f"layer {layer}"
        for layer in wl.expect_layers
        if layers["layer_calls"].get(layer, 0) <= 0
    ]
    return missing


PCG_SOLVERS = (
    "pcg_solve", "pcg_solve_ca", "pcg_solve_pipelined", "pcg_solve_batched",
    "pcg_solve_ca_batched", "pcg_solve_pipelined_batched",
)


def observers(tracer: Tracer) -> dict[str, Callable[[Any], None]]:
    """Return-value hooks: count PCG solves and mean per-member iterations."""

    def observe(result: Any) -> None:
        tracer.bump("pcg.solves")
        tracer.bump("pcg.iterations", float(np.mean(result.iterations)))

    return dict.fromkeys(PCG_SOLVERS, observe)
