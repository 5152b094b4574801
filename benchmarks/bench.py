"""End-to-end and per-layer benchmark of the ``osev`` command.

Usage, from the root of a checkout::

    python3 benchmarks/bench.py --workload train_ced --seed 3 --seconds 20 --trace 0
    python3 benchmarks/bench.py --workload all --seed 0 --seconds 20
    python3 benchmarks/bench.py --workload eval_open --seed 0 --profile eval.prof

Each workload drives one ``osev`` subcommand in-process through
``osev.cli.main``, exactly as the installed ``osev`` script does, and times it
from outside.  Inputs (dataset and config, plus the checkpoint ``eval_open``
scores) are generated from ``--seed`` during untimed preparation; the program
only ever sees those files.  BLAS is pinned to one thread before numpy loads.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json: the median
wall time of one operation (one training epoch, one ``osev eval`` or one
``osev gradcheck``) in units of a fixed calibration kernel timed around it
(``op_calib``; the raw wall time is printed too), the median set-up time over several fresh
processes (``setup_s``: importing osev, loading the dataset, building or
loading the model), and the process's peak RSS.  ``--trace 1`` alternates
untraced and traced operations and reports the per-layer metrics: calls,
self and total milliseconds per operation for every span in ``spans.TARGETS``,
exact call counts per optimizer step, computed TemporalConv FLOPs and bytes,
step-latency percentiles and the tracing overhead.

Every operation is checked: the command exits 0, and its stdout and output
files hash to the same bytes as the first operation's (``osev`` promises
byte-identical re-runs).  A golden run on fixed inputs must reproduce the
values in ``reference.json`` (recorded at commit 6ec1c6a), and traced
operations must fire exactly the spans their workload reaches.  The last stdout line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the exit code is 1 when any check
failed.
"""

from __future__ import annotations

import argparse
import contextlib
import cProfile
import hashlib
import io
import json
import os
import platform
import pstats
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".bench_work"
OUT_ROOT = ROOT / ".bench_out"

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

WORKLOADS = ("train_single", "train_ced", "eval_open", "gradcheck")

#: Name and unit under which each workload's operation time is printed for people.
OP_LABEL = {
    "train_single": ("epoch_ms", "ms", 1.0),
    "train_ced": ("epoch_ms", "ms", 1.0),
    "eval_open": ("eval_s", "s", 1e-3),
    "gradcheck": ("gradcheck_s", "s", 1e-3),
}

#: The acceptance model shape.
ACCEPTANCE_MODEL = {"feature_width": 12, "kernel_width": 9}

#: Spans each workload must reach, checked on every traced operation.
MUST_FIRE = {
    "train_single": {
        "cli.main", "config.RunConfig.from_file", "runner.run_training", "data.load_dataset",
        "data.load_split", "debias.vanilla_train_step", "nn.TemporalConv.forward",
        "nn.TemporalConv.backward", "nn.sgd_step", "losses.edl_loss_batch",
        "losses.euc_loss_grad_evidence", "evidential.evidence_from_logits",
        "evidential.batch_probs_and_uncertainty", "checkpoint.save_checkpoint",
    },
    "train_ced": {
        "cli.main", "config.RunConfig.from_file", "runner.run_training", "data.load_dataset",
        "data.load_split", "debias.train_step", "debias.accumulate_gradients", "debias.ced_forward",
        "nn.draw_time_permutations", "nn.apply_time_permutations", "nn.TemporalConv.forward",
        "nn.TemporalConv.backward", "nn.sgd_step", "hsic.hsic_value_and_grad", "hsic.median_bandwidth",
        "losses.edl_loss_batch", "losses.euc_loss_grad_evidence", "evidential.evidence_from_logits",
        "evidential.batch_probs_and_uncertainty", "checkpoint.save_checkpoint",
    },
    "eval_open": {
        "cli.main", "runner.run_evaluation", "runner.score_split", "checkpoint.load_checkpoint",
        "data.load_dataset", "data.load_split", "nn.TemporalConv.forward",
        "evidential.evidence_from_logits", "evidential.batch_probs_and_uncertainty",
        "metrics.open_maf1_curve", "metrics.open_predictions", "metrics.roc_auc", "metrics.ece",
        "metrics.write_score_dump",
    },
    "gradcheck": {
        "cli.main", "config.RunConfig.from_file", "runner.run_gradcheck", "data.load_dataset",
        "data.load_split", "nn.gradcheck", "nn.TemporalConv.forward", "nn.TemporalConv.backward",
        "nn.draw_time_permutations", "nn.apply_time_permutations", "hsic.hsic_value_and_grad",
        "hsic.median_bandwidth", "losses.edl_loss_batch", "losses.euc_loss_grad_evidence",
        "evidential.evidence_from_logits", "evidential.batch_probs_and_uncertainty",
        "debias.ced_forward", "debias.accumulate_gradients", "debias.debias_objective",
        "debias.bias_objective",
    },
}

#: Spans a workload must not reach: the dependence penalty outside CED and
#: gradient checking, and any backward pass during evaluation.
MUST_NOT_FIRE = {
    "train_single": {"hsic.hsic_value_and_grad", "hsic.median_bandwidth", "debias.ced_forward"},
    "train_ced": {"debias.vanilla_train_step"},
    "eval_open": {"hsic.hsic_value_and_grad", "hsic.median_bandwidth", "nn.TemporalConv.backward", "nn.sgd_step"},
    "gradcheck": {"nn.sgd_step", "runner.run_training"},
}

#: Spans whose exact calls per optimizer step are reported.
PER_STEP_SPANS = ("hsic.hsic_value_and_grad", "hsic.median_bandwidth", "nn.TemporalConv.forward")


@dataclass(frozen=True)
class Sizes:
    """Problem sizes; FULL is what BENCHMARK.json measures, TINY feeds the smoke test."""

    model: dict = field(default_factory=lambda: dict(ACCEPTANCE_MODEL))
    train_spec: dict = field(default_factory=dict)
    train_epochs: int = 30
    # larger open-set pool, still under the Nyquist limit: 2 + 5 + 15 < 48 / 2
    eval_spec: dict = field(default_factory=lambda: {"samples_per_class": 50, "unknown_classes": 15, "timesteps": 48})
    eval_checkpoint_epochs: int = 10
    gradcheck_instances: int = 1
    setup_repeats: int = 3
    min_ops: int = 3


FULL = Sizes()
TINY = Sizes(
    model={"feature_width": 3, "kernel_width": 3},
    train_spec={"samples_per_class": 4},
    train_epochs=2,
    eval_spec={"samples_per_class": 4, "unknown_classes": 15, "timesteps": 48},
    eval_checkpoint_epochs=1,
    setup_repeats=1,
    min_ops=2,
)

#: Golden runs: fixed inputs whose results reference.json records.
GOLDEN_EPOCHS = 5
GOLDEN_FLAGS = {
    "train_single": {"use_euc": "true"},
    "train_ced": {"use_euc": "true", "use_ced": "true"},
    "eval_open": {"use_euc": "true"},
}

SETUP_SNIPPET = """
import sys, time
t0 = time.perf_counter()
from osev import cli, data, runner
from osev.config import RunConfig
spec, _ = data.load_dataset(sys.argv[1])
if sys.argv[2] == "checkpoint":
    runner.load_model(sys.argv[3])
else:
    runner.build_model(RunConfig.from_file(sys.argv[3]), spec.channels, spec.known_classes)
print(repr(time.perf_counter() - t0))
"""


def calibration_kernel() -> float:
    """A fixed mix of interpreter work and small numpy and BLAS calls (about 30 ms on one core).

    ``op_calib`` is an operation's wall time in units of this kernel's, timed
    right before and after it on the same core.  The host's speed drifts by
    tens of percent within a minute; the ratio cancels that drift.  The kernel
    must stay unchanged, or ``op_calib`` stops comparing across commits.
    """
    import numpy as np
    from numpy.lib.stride_tricks import sliding_window_view

    rng = np.random.default_rng(0)
    x = rng.standard_normal((32, 6, 24))
    w = rng.standard_normal((12, 6, 9))
    acc = 0.0
    for _ in range(40):
        out = np.einsum("bitk,oik->bot", sliding_window_view(x, 9, axis=2), w)
        flat = out.reshape(32, -1)
        acc += float(np.exp(-out * out).sum()) + float(np.trace(flat @ flat.T)) * 1e-9
        table = {i: i * 0.5 + acc for i in range(300)}
        acc += sum(table.values()) * 1e-12
    return acc


def time_calibration() -> float:
    """Mean wall time of three back-to-back calibration kernels.

    The host alternates between fast and slow phases; one short kernel can
    land in either, so several are averaged at each operation boundary.
    """
    start = time.perf_counter()
    for _ in range(3):
        calibration_kernel()
    return (time.perf_counter() - start) / 3


def pin_blas_threads() -> None:
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"


def import_osev():
    """Import ``osev.cli`` from this checkout's sources, or exit without a result."""
    if not (SRC / "osev" / "__init__.py").is_file():
        raise SystemExit(f"error: no osev sources under {SRC}; run from the root of a full checkout")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import osev.cli

    if Path(osev.cli.__file__).resolve().parent != SRC / "osev":
        raise SystemExit(f"error: imported osev from {osev.cli.__file__}, not from {SRC}")
    return osev.cli


def environment() -> dict:
    import numpy as np

    cpu = platform.processor()
    with contextlib.suppress(OSError), open("/proc/cpuinfo", encoding="utf-8") as fh:
        cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration") if k in blas},
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
    }


def make_dataset(directory: Path, seed: int, overrides: dict) -> Path:
    from osev import data

    spec = data.SyntheticSpec(**{**overrides, "seed": seed})
    data.save_dataset(spec, data.generate(spec), directory)
    return directory


def train_config(path: Path, dataset: Path, seed: int, epochs: int, model: dict, flags: dict) -> Path:
    values = {"dataset": dataset, "seed": seed, "epochs": epochs, **model, **flags}
    path.write_text("".join(f"{k} = {v}\n" for k, v in values.items()), encoding="utf-8")
    return path


@dataclass
class Prepared:
    """One workload's generated inputs and the command line of one operation."""

    argv: list[str]
    epochs: int  # an operation's wall time is divided by this
    outputs: list[Path]  # files whose bytes must repeat across operations
    setup_args: list[str]  # dataset dir, "config" or "checkpoint", its path


def prepare(cli, workload: str, work: Path, seed: int, sizes: Sizes) -> Prepared:
    """Untimed preparation: generate every input the workload's command reads."""
    run_dir = work / "run"
    if workload in ("train_single", "train_ced", "gradcheck"):
        data_dir = make_dataset(work / "data", seed, sizes.train_spec)
        flags = {"use_euc": "true"}
        if workload == "train_ced":
            flags.update(use_ced="true", ced_mode="joint", hsic_sigma=0.0)
        cfg = train_config(work / f"{workload}.cfg", data_dir, seed, sizes.train_epochs, sizes.model, flags)
        setup_args = [str(data_dir), "config", str(cfg)]
        if workload == "gradcheck":
            argv = ["gradcheck", "--config", str(cfg), "--instances", str(sizes.gradcheck_instances)]
            return Prepared(argv, 1, [], setup_args)
        argv = ["train", "--config", str(cfg), "--out", str(run_dir)]
        return Prepared(argv, sizes.train_epochs, [run_dir / "losses.csv", run_dir / "model.ckpt"], setup_args)
    if workload == "eval_open":
        # One fixed model scores every seed's data: the share of records that
        # fall under the rejection threshold sets the cost of the per-record
        # metric loops, and a model trained per seed would make it vary.
        train_dir = make_dataset(work / "checkpoint_data", 0, sizes.eval_spec)
        cfg = train_config(
            work / "checkpoint.cfg", train_dir, 0, sizes.eval_checkpoint_epochs, sizes.model, {"use_euc": "true"}
        )
        code, out = call(cli, ["train", "--config", str(cfg), "--out", str(work / "trained")])
        if code != 0:
            raise RuntimeError(f"could not train the checkpoint to evaluate: {out}")
        ckpt = work / "trained" / "model.ckpt"
        data_dir = make_dataset(work / "data", seed, sizes.eval_spec)
        report = run_dir / "report.json"
        argv = ["eval", "--checkpoint", str(ckpt), "--data", str(data_dir), "--out", str(report)]
        return Prepared(argv, 1, [report, run_dir / "scores.jsonl"], [str(data_dir), "checkpoint", str(ckpt)])
    raise ValueError(f"unknown workload {workload!r}")


def call(cli, argv: list[str]) -> tuple[int, str]:
    """Run one ``osev`` command in-process; returns (exit code, captured output)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        try:
            code = cli.main(argv)
        except Exception:  # noqa: BLE001 - an escaped exception is a failed operation
            traceback.print_exc()
            code = -1
    return code, buf.getvalue()


@dataclass
class OpResult:
    wall_s: float
    ok: bool
    traced: dict | None = None


class Runner:
    """Runs and checks the operations of one workload, counting attempts and failures."""

    def __init__(self, cli, prepared: Prepared) -> None:
        self.cli = cli
        self.prepared = prepared
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self._digest: dict | None = None

    def fail(self, problem: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(problem)

    def run_op(self) -> OpResult:
        self.attempted += 1
        start = time.perf_counter()
        code, out = call(self.cli, self.prepared.argv)
        wall = time.perf_counter() - start
        digest = {"stdout": hashlib.sha256(out.encode()).hexdigest()}
        for path in self.prepared.outputs:
            digest[path.name] = hashlib.sha256(path.read_bytes()).hexdigest() if path.exists() else None
        if code != 0:
            self.fail(f"exit code {code}: {out.strip()[-400:]}")
            return OpResult(wall, False)
        if self._digest is None:
            self._digest = digest
        changed = sorted(k for k in digest if digest[k] != self._digest[k])
        if changed:
            self.fail(f"re-run changed bytes of {', '.join(changed)}")
            return OpResult(wall, False)
        return OpResult(wall, True)


def golden_values(cli, workload: str, work: Path) -> dict[str, float]:
    """Results of the workload's command on fixed inputs (seed 0, acceptance shape)."""
    flags = GOLDEN_FLAGS.get(workload)
    if flags is None:
        return {}
    data_dir = make_dataset(work / "golden_data", 0, {})
    cfg = train_config(work / "golden.cfg", data_dir, 0, GOLDEN_EPOCHS, ACCEPTANCE_MODEL, flags)
    run_dir = work / "golden_run"
    code, out = call(cli, ["train", "--config", str(cfg), "--out", str(run_dir)])
    if code != 0:
        raise RuntimeError(f"golden training failed with exit code {code}: {out.strip()[-400:]}")
    if workload != "eval_open":
        last = (run_dir / "losses.csv").read_text(encoding="utf-8").strip().splitlines()[-1]
        return {"final_total_loss": float(last.split(",")[-1])}
    report = run_dir / "report.json"
    code, out = call(cli, ["eval", "--checkpoint", str(run_dir / "model.ckpt"), "--data", str(data_dir), "--out", str(report)])
    if code != 0:
        raise RuntimeError(f"golden evaluation failed with exit code {code}: {out.strip()[-400:]}")
    return {"open_auc": json.loads(report.read_text(encoding="utf-8"))["open_auc"]}


def check_golden(cli, workload: str, work: Path, runner: Runner) -> None:
    reference = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))
    expected = reference["workloads"].get(workload, {})
    if not expected:
        return
    runner.attempted += 1
    try:
        got = golden_values(cli, workload, work)
    except (RuntimeError, OSError, ValueError, KeyError) as exc:
        runner.fail(f"golden run: {exc}")
        return
    tol = reference["rel_tolerance"]
    for key, want in expected.items():
        if abs(got[key] - want) > tol * max(1.0, abs(want)):
            runner.fail(f"golden {key} = {got[key]!r}, reference {want!r} (rel tolerance {tol})")
            return


def measure_setup(prepared: Prepared, repeats: int, runner: Runner) -> list[float]:
    """Set-up time of fresh processes: import osev, load the dataset, build or load the model."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    env.update({var: "1" for var in BLAS_THREAD_VARS})
    times = []
    for _ in range(repeats):
        runner.attempted += 1
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_SNIPPET, *prepared.setup_args],
            env=env,
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=120,
        )
        if proc.returncode != 0:
            runner.fail(f"set-up process exited {proc.returncode}: {proc.stderr.strip()[-400:]}")
            continue
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return times


def coverage_problems(workload: str, summary: dict) -> list[str]:
    missing = sorted(n for n in MUST_FIRE[workload] if summary[n]["calls"] == 0)
    unexpected = sorted(n for n in MUST_NOT_FIRE[workload] if summary[n]["calls"] != 0)
    problems = []
    if missing:
        problems.append(f"spans never fired: {', '.join(missing)}")
    if unexpected:
        problems.append(f"spans fired but must not: {', '.join(unexpected)}")
    return problems


def traced_op(runner: Runner, tracer: spans.Tracer, workload: str) -> OpResult:
    tracer.start()
    try:
        result = runner.run_op()
    finally:
        tracer.stop()
    summary = tracer.summary()
    result.traced = {
        "summary": summary,
        "costs": {k: tuple(v) for k, v in tracer.costs.items()},
        "steps": tracer.durations(spans.STEP_SPANS),
    }
    if result.ok:
        problems = coverage_problems(workload, summary)
        if problems:
            runner.fail("; ".join(problems))
            result.ok = False
    return result


def write_spans(tracer_spans: list, path: Path) -> None:
    """One JSON line per span of one traced operation, times in ms from its first span."""
    path.parent.mkdir(parents=True, exist_ok=True)
    origin = tracer_spans[0][1] if tracer_spans else 0.0
    with open(path, "w", encoding="utf-8") as fh:
        for name, start, end, parent in tracer_spans:
            row = {"name": name, "start_ms": (start - origin) * 1e3, "end_ms": (end - origin) * 1e3, "parent": parent}
            fh.write(json.dumps(row) + "\n")


def percentile(values: list[float], q: int) -> float:
    """The q-th percentile (1..99) by statistics.quantiles; a lone value is its own percentile."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def per_layer_metrics(runner: Runner, traced: list[OpResult], untraced: list[OpResult]) -> dict:
    first = traced[0].traced
    counts = [{n: s["calls"] for n, s in op.traced["summary"].items()} for op in traced]
    if any(c != counts[0] for c in counts):
        runner.fail("span call counts differ between identical operations")
    metrics = {}
    steps = len(first["steps"])
    for name in spans.SPAN_NAMES:
        calls = first["summary"][name]["calls"]
        metrics[f"{name}.calls"] = (calls, "count")
        for key in ("self", "total"):
            value = statistics.median(op.traced["summary"][name][f"{key}_s"] for op in traced) * 1e3
            metrics[f"{name}.{key}_ms"] = (value, "ms")
    for name in PER_STEP_SPANS:
        calls = first["summary"][name]["calls"]
        metrics[f"{name}.calls_per_step"] = (calls / steps if steps else 0.0, "1/step")
    for name in spans.COSTS:
        flops, nbytes = first["costs"].get(name, (0, 0))
        calls = first["summary"][name]["calls"]
        metrics[f"{name}.computed_flops_per_call"] = (flops / calls if calls else 0.0, "flop")
        metrics[f"{name}.computed_bytes_per_call"] = (nbytes / calls if calls else 0.0, "B")
    step_ms = [d * 1e3 for op in traced for d in op.traced["steps"]]
    metrics["step.p50_ms"] = (percentile(step_ms, 50), "ms")
    metrics["step.p90_ms"] = (percentile(step_ms, 90), "ms")
    plain = statistics.median(op.wall_s for op in untraced)
    with_trace = statistics.median(op.wall_s for op in traced)
    metrics["trace.overhead_pct"] = ((with_trace - plain) / plain * 100.0, "%")
    return metrics


def run_workload(workload: str, seed: int, seconds: float, trace: bool, sizes: Sizes = FULL) -> tuple[dict, list[str]]:
    """Prepare, check and measure one workload; returns (result object, lines for people)."""
    cli = import_osev()
    WORK_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload}-seed{seed}-", dir=WORK_ROOT))
    lines = [f"# osev benchmark: workload={workload} seed={seed} seconds={seconds} trace={int(trace)}"]
    try:
        prepared = prepare(cli, workload, work, seed, sizes)
        runner = Runner(cli, prepared)
        setup = [] if trace else measure_setup(prepared, sizes.setup_repeats, runner)
        check_golden(cli, workload, work, runner)

        untraced: list[OpResult] = []
        traced: list[OpResult] = []
        tracer = spans.Tracer()
        calib = [] if trace else [time_calibration()]
        deadline = time.perf_counter() + seconds
        while len(untraced) < sizes.min_ops or time.perf_counter() < deadline:
            untraced.append(runner.run_op())
            if trace:
                traced.append(traced_op(runner, tracer, workload))
                if len(traced) == 1:
                    write_spans(tracer.spans, OUT_ROOT / f"spans-{workload}.jsonl")
            else:
                calib.append(time_calibration())
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if trace:
        metrics = per_layer_metrics(runner, traced, untraced)
        top = sorted(spans.SPAN_NAMES, key=lambda n: -metrics[f"{n}.self_ms"][0])[:6]
        lines.append(
            f"{workload} self time per operation (median of {len(traced)} traced): "
            + ", ".join(f"{n} {metrics[f'{n}.self_ms'][0]:.4g} ms" for n in top)
        )
        lines.append(
            f"{workload} calls per step: "
            + ", ".join(f"{n} {metrics[f'{n}.calls_per_step'][0]:g}" for n in PER_STEP_SPANS)
        )
        lines.append(f"{workload} trace.overhead_pct = {metrics['trace.overhead_pct'][0]:.3g} %")
    else:
        op_ms = [op.wall_s * 1e3 / prepared.epochs for op in untraced]
        # each operation against the mean of the calibration runs on either side of it
        op_calib = [ms / (1e3 * (calib[i] + calib[i + 1]) / 2) for i, ms in enumerate(op_ms)]
        metrics = {
            "op_calib": (statistics.median(op_calib), "calib"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            "setup_s": (statistics.median(setup) if setup else 0.0, "s"),
        }
        label, unit, scale = OP_LABEL[workload]
        quart = statistics.quantiles(op_ms, n=4) if len(op_ms) > 1 else op_ms * 3
        lines.append(
            f"{workload} {label} = {statistics.median(op_ms) * scale:.6g} {unit} "
            f"(median of {len(op_ms)} operations; quartiles {quart[0] * scale:.6g}, {quart[2] * scale:.6g})"
        )
        lines.append(
            f"{workload} op_calib = {metrics['op_calib'][0]:.6g} calib "
            f"(one calibration run took a median {statistics.median(calib) * 1e3:.4g} ms)"
        )
        lines.append(f"{workload} setup_s = {metrics['setup_s'][0]:.6g} s (median of {len(setup)} fresh processes)")
        lines.append(f"{workload} peak_rss_mb = {metrics['peak_rss_mb'][0]:.6g} MB")
    lines.append(
        f"{workload} failed_fraction = {runner.failed / runner.attempted:.6g} "
        f"({runner.failed} of {runner.attempted} operations)"
    )
    lines.extend(f"# problem: {p}" for p in runner.problems)
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    return result, lines


def profile_workload(workload: str, seed: int, out: Path) -> int:
    """Dump cProfile stats of one operation of ``workload`` to ``out``."""
    cli = import_osev()
    WORK_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"profile-{workload}-", dir=WORK_ROOT))
    try:
        runner = Runner(cli, prepare(cli, workload, work, seed, FULL))
        profiler = cProfile.Profile()
        profiler.enable()
        op = runner.run_op()
        profiler.disable()
    finally:
        shutil.rmtree(work, ignore_errors=True)
    profiler.dump_stats(out)
    pstats.Stats(profiler).sort_stats("cumulative").print_stats(25)
    print(f"# wrote cProfile stats of one {workload} operation ({op.wall_s:.3f} s) to {out}")
    return 0 if op.ok else 1


def run_all(args) -> int:
    """Every workload in its own process; prints their lines and one combined JSON line."""
    combined, code = {}, 0
    for workload in WORKLOADS:
        argv = [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=900)
        out = proc.stdout.strip().splitlines()
        print("\n".join(out[:-1]), flush=True)
        code = code or proc.returncode
        try:
            combined[workload] = json.loads(out[-1])
        except (IndexError, json.JSONDecodeError):
            print(proc.stderr, file=sys.stderr)
            combined[workload] = None
            code = code or 1
    print(json.dumps(combined, sort_keys=True))
    return code


def main(argv=None) -> int:
    pin_blas_threads()  # before anything imports numpy
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--profile", type=Path, help="dump cProfile stats of one operation here instead of measuring")
    args = parser.parse_args(argv)
    import_osev()
    if args.workload == "all":
        return run_all(args)
    if args.profile is not None:
        return profile_workload(args.workload, args.seed, args.profile)
    print("# environment " + json.dumps(environment(), sort_keys=True), flush=True)
    result, lines = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print("\n".join(lines))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
