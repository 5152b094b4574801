"""Command-line entry point.

Subcommands wire data generation, training, evaluation, gradient checking
and multi-seed sweeps into reproducible runs.  Exit codes are fixed for
scripting:

    0  success
    2  invalid configuration, dataset spec, or missing input
    3  non-finite loss during training (offending step is in run.log)
    4  checkpoint and dataset disagree (class count or channel mismatch)
    5  gradient check failure

Every command is deterministic given its inputs; timestamps appear only in
per-run ``run.log`` files.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from functools import partial
from pathlib import Path

import numpy as np

from .config import ConfigError, RunConfig, _from_kv_file
from .data import SyntheticSpec, generate, save_dataset
from .losses import NonFiniteLossError
from .nn import NonFiniteGradientError
from .runner import CheckpointDataMismatch, _run_jobs, run_evaluation, run_gradcheck, run_training

__all__ = ["main"]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NONFINITE = 3
EXIT_MISMATCH = 4
EXIT_GRADCHECK = 5


def _cmd_generate_data(args) -> int:
    spec = _from_kv_file(SyntheticSpec, args.spec)
    out = save_dataset(spec, generate(spec), args.out)
    print(f"wrote dataset manifest {out}")
    return EXIT_OK


def _cmd_train(args) -> int:
    config = RunConfig.from_file(args.config)
    paths = run_training(config, args.out)
    print(f"wrote checkpoint {paths['checkpoint']} after {paths['epochs']} epochs")
    return EXIT_OK


def _cmd_eval(args) -> int:
    out_path = Path(args.out)
    if out_path.is_dir():
        raise ConfigError(f"--out {out_path} is a directory; it must name the report JSON file")
    overrides = {
        "coverage": args.coverage,
        "ece_bins": args.ece_bins,
        "num_selections": args.selections,
        "seed": args.seed,
        "avu_threshold": args.avu_threshold,
    }
    report = run_evaluation(args.checkpoint, args.data, out_path, **overrides)
    print(f"open-set AUC {report['open_auc']:.4f}, Open maF1 {report['open_maf1']['scalar']:.4f}")
    return EXIT_OK


def _cmd_gradcheck(args) -> int:
    config = RunConfig.from_file(args.config)
    entries, ok = run_gradcheck(config, tol=args.tol, instances=args.instances)
    for entry in entries:
        status = "ok" if entry["max_rel_err"] < args.tol else "FAIL"
        print(f"{status:4s} {entry['check']:22s} max_rel_err={entry['max_rel_err']:.3e}")
    if not ok:
        failing = ", ".join(e["check"] for e in entries if e["max_rel_err"] >= args.tol)
        print(f"gradient check failed: {failing}", file=sys.stderr)
        return EXIT_GRADCHECK
    return EXIT_OK


#: Report fields aggregated by the sweep, as (column name, path into the report).
SWEEP_METRICS = (
    ("open_auc", ("open_auc",)),
    ("open_maf1", ("open_maf1", "scalar")),
    ("closed_biased", ("closed_accuracy", "biased")),
    ("closed_unbiased", ("closed_accuracy", "unbiased")),
    ("ece_open", ("ece", "open_k_plus_one")),
    ("avu", ("avu", "value")),
)


def _dig(report: dict, path: tuple[str, ...]) -> float:
    node = report
    for key in path:
        node = node[key]
    return float(node)


def _sweep_one(config: RunConfig, out_dir: Path) -> dict:
    paths = run_training(config, out_dir)
    return run_evaluation(paths["checkpoint"], config.dataset, out_dir / "report.json")


def _cmd_sweep(args) -> int:
    config_paths = sorted(Path(args.configs).glob("*.cfg"))
    if not config_paths:
        raise ConfigError(f"no *.cfg files found in {args.configs}")
    if args.seeds < 1:
        raise ConfigError(f"--seeds must be >= 1, got {args.seeds}")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    tasks = []
    failures = []
    for path in config_paths:
        try:
            base = RunConfig.from_file(path)
        except ConfigError as exc:
            failures.append({"config": path.stem, "seed": None, "error": str(exc)})
            continue
        for offset in range(args.seeds):
            run_config = replace(base, seed=base.seed + offset)
            tasks.append((path.stem, run_config, out / path.stem / f"seed{run_config.seed}"))

    per_config: dict[str, dict] = {}
    # a failed run must not kill the sweep: its exception comes back as its outcome
    outcomes = _run_jobs(partial(_sweep_one, run_config, run_dir) for _, run_config, run_dir in tasks)
    for (stem, run_config, _), report in zip(tasks, outcomes):
        if isinstance(report, Exception):
            failures.append({"config": stem, "seed": run_config.seed, "error": f"{type(report).__name__}: {report}"})
            continue
        bucket = per_config.setdefault(stem, {name: [] for name, _ in SWEEP_METRICS})
        for name, path in SWEEP_METRICS:
            bucket[name].append(_dig(report, path))

    summary = {"format": "osev-sweep-v1", "seeds": args.seeds, "configs": {}, "failures": failures}
    csv_lines = ["config,n" + "".join(f",{name}_mean,{name}_std" for name, _ in SWEEP_METRICS)]
    for stem in sorted(per_config):
        bucket = per_config[stem]
        stats = {}
        row = [stem, str(len(next(iter(bucket.values()))))]
        for name, _ in SWEEP_METRICS:
            values = bucket[name]
            mean = float(np.mean(values))
            std = float(np.std(values, ddof=1)) if len(values) > 1 else 0.0
            stats[name] = {"mean": mean, "std": std, "values": values}
            row.extend([repr(mean), repr(std)])
        summary["configs"][stem] = stats
        csv_lines.append(",".join(row))

    with open(out / "summary.json", "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    (out / "summary.csv").write_text("\n".join(csv_lines) + "\n", encoding="utf-8")
    print(f"swept {len(tasks)} runs ({len(failures)} failed), summary in {out / 'summary.json'}")
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="osev", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate-data", help="synthesize the four dataset splits")
    p.add_argument("--spec", required=True, help="key = value file of generation parameters")
    p.add_argument("--out", required=True, help="output directory (created if missing)")
    p.set_defaults(func=_cmd_generate_data)

    p = sub.add_parser("train", help="train one model from a config file")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True, help="run directory for checkpoints, losses.csv and run.log")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("eval", help="score the test splits against a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True, help="dataset directory with manifest.json")
    p.add_argument("--out", required=True, help="path of the report JSON; siblings are written next to it")
    p.add_argument("--coverage", type=float, default=None)
    p.add_argument("--ece-bins", type=int, default=None)
    p.add_argument("--selections", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--avu-threshold", type=float, default=None)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("gradcheck", help="finite-difference audit of all analytic gradients")
    p.add_argument("--config", required=True)
    p.add_argument("--tol", type=float, default=1e-4)
    p.add_argument("--instances", type=int, default=20, help="random instances per check")
    p.set_defaults(func=_cmd_gradcheck)

    p = sub.add_parser("sweep", help="run a config grid over consecutive seeds and aggregate")
    p.add_argument("--configs", required=True, help="directory of *.cfg files")
    p.add_argument("--seeds", type=int, required=True, help="seeds per config (base, base+1, ...)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_sweep)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (NonFiniteLossError, NonFiniteGradientError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NONFINITE
    except CheckpointDataMismatch as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MISMATCH
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    raise SystemExit(main())
