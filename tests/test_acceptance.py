"""Release gate: eleven go/no-go checks, one printed verdict line each.

Each test records a ``criterion NN PASS|FAIL ...`` line; the conftest hook
echoes all of them after the run so a plain ``pytest -v`` leaves a readable
sign-off sheet at the bottom of the log.  The directional checks (7-9) train
real models.  Their train+eval runs are independent jobs for the runner's
job helper, which spreads them over the usable CPUs; criteria 08 and 09 share
one fixture's fifteen runs, and the fixture's whole wall time is charged to
each of them, so no budget is understated.  Each of 07-09 prints its wall
seconds and, beside them, its CPU seconds (this process's and its reaped
children's).
"""

import math
import os
import time
from dataclasses import replace
from functools import partial

import numpy as np
import pytest

from osev.checkpoint import load_checkpoint
from osev.config import RunConfig
from osev.debias import build_branches, ced_forward, strip_for_inference
from osev.evidential import batch_probs_and_uncertainty
from osev.hsic import KernelParams, hsic_biased, hsic_value_and_grad, rbf_gram
from osev.losses import AnnealingSchedule, annealing_lambda, edl_loss_batch
from osev.metrics import ece, open_maf1_curve, open_predictions, openness, roc_auc
from osev.nn import draw_time_permutations
from osev.runner import _run_jobs, run_evaluation, run_gradcheck, run_training

SEEDS = (0, 1, 2, 3, 4)

#: Verdict lines, echoed by the conftest terminal-summary hook.
VERDICTS: list[str] = []

#: Backbone shape shared by the directional criteria; chosen once at desk
#: scale so the temporal pathway is strong enough to learn the dynamics
#: (kernel 9 resolves the class frequencies) without making the closed
#: problem trivial.
BASE = {"feature_width": 12, "kernel_width": 9}


def _report(num: int, title: str, ok: bool, detail: str) -> None:
    line = f"criterion {num:02d} {'PASS' if ok else 'FAIL'}  {title}: {detail}"
    VERDICTS.append(line)
    print(line)
    assert ok, line


def train_eval(dataset: str, out_dir, seed: int, **overrides) -> dict:
    cfg = replace(RunConfig(dataset=dataset, seed=seed), **overrides)
    paths = run_training(cfg, out_dir)
    return run_evaluation(paths["checkpoint"], dataset, out_dir / "report.json")


def run_jobs_timed(jobs) -> tuple[list, float, float]:
    """Outcomes of ``jobs`` through the job helper, raising the first failure, with wall and CPU seconds.

    The CPU seconds are this process's and its reaped children's (``os.times()``).
    """
    t0, c0 = time.monotonic(), sum(os.times()[:4])
    outcomes = _run_jobs(jobs)
    wall, cpu = time.monotonic() - t0, sum(os.times()[:4]) - c0
    for outcome in outcomes:
        if isinstance(outcome, Exception):
            raise outcome
    return outcomes, wall, cpu


#: Variant of each shared run, in job order; each variant takes SEEDS in turn.  Job i
#: runs on worker i mod W.  A CED run costs about 3x an EUC run and 5x a plain one,
#: so on two workers one takes 2 CED, 5 EUC and 1 plain run, the other 3 CED and 4
#: plain runs, where plain, EUC, CED repeated gave one worker 3 of the 5 CED runs.
SHARED_ORDER = ("ced",) * 4 + ("euc", "ced") + ("euc", "plain") * 4 + ("plain",)


@pytest.fixture(scope="module")
def shared_runs(tmp_path_factory, default_dataset):
    """Five-seed runs reused across criteria 8 and 9: ({name: reports}, wall seconds, CPU seconds)."""
    root = tmp_path_factory.mktemp("shared")
    variants = {"plain": {}, "euc": {"use_euc": True}, "ced": {"use_ced": True}}
    seeds = {name: iter(SEEDS) for name in variants}
    keys = [(name, next(seeds[name])) for name in SHARED_ORDER]
    jobs = [partial(train_eval, default_dataset, root / name / f"s{s}", s, epochs=400, **BASE, **variants[name])
            for name, s in keys]
    reports, wall, cpu = run_jobs_timed(jobs)
    per_variant = {name: [r for (n, _), r in zip(keys, reports) if n == name] for name in variants}
    return per_variant, wall, cpu


def test_criterion_01_subjective_logic_identities():
    t0 = time.monotonic()
    rng = np.random.default_rng(11)
    worst = 0.0
    count = 0
    for k in range(2, 11):
        evidence = np.empty((1112, k))
        for row in evidence:
            scale = 10.0 ** rng.uniform(-3, 3)
            row[:] = rng.uniform(0.0, scale, size=k)
        probs, u = batch_probs_and_uncertainty(evidence)
        belief = evidence / (k / u)[:, None]
        worst = max(
            worst,
            float(np.max(np.abs(u + belief.sum(axis=1) - 1.0))),
            float(np.max(np.abs(probs.sum(axis=1) - 1.0))),
            float(np.max(np.abs(probs - (belief + u[:, None] / k)))),
        )
        count += len(evidence)
    dt = time.monotonic() - t0
    _report(
        1,
        "subjective-logic identities",
        worst <= 1e-12 and count >= 10_000 and dt < 10.0,
        f"worst deviation {worst:.2e} over {count} vectors, K=2..10 [{dt:.1f}s]",
    )


def test_criterion_02_edl_loss_monte_carlo():
    t0 = time.monotonic()
    rng = np.random.default_rng(29)
    draws_n = 10**6
    worst_sigmas = 0.0
    for _ in range(20):
        k = int(rng.integers(2, 6))
        evidence = rng.uniform(0.0, 7.0, size=k)
        label = int(rng.integers(0, k))
        closed = float(edl_loss_batch(np.array([label]), evidence[None, :])[0][0])
        draws = rng.dirichlet(evidence + 1.0, size=draws_n)[:, label]
        mean = float(draws.mean())
        se_mean = float(draws.std(ddof=1)) / math.sqrt(draws_n)
        mc = -math.log(mean)
        se_mc = se_mean / mean  # delta method for the log
        worst_sigmas = max(worst_sigmas, abs(closed - mc) / se_mc)
    dt = time.monotonic() - t0
    _report(
        2,
        "closed-form loss vs Monte-Carlo Dirichlet",
        worst_sigmas <= 3.0 and dt < 120.0,
        f"worst deviation {worst_sigmas:.2f} standard errors over 20 alphas, 10^6 draws [{dt:.1f}s]",
    )


def test_criterion_03_gradient_suite(default_dataset):
    t0 = time.monotonic()
    cfg = replace(RunConfig(dataset=default_dataset, seed=0), **BASE)
    entries, ok = run_gradcheck(cfg, tol=1e-4, instances=20)
    dt = time.monotonic() - t0
    names = {e["check"] for e in entries}
    required = {
        "loss.edl",
        "loss.euc",
        "loss.hsic",
        "objective.debias",
        "objective.bias",
        "composed.main_side",
        "composed.biased_side",
    }
    worst = max(e["max_rel_err"] for e in entries)
    _report(
        3,
        "finite-difference gradient suite",
        ok and required <= names and worst < 1e-4 and dt < 180.0,
        f"{len(entries)} checks x 20 instances, worst rel err {worst:.2e} [{dt:.1f}s]",
    )


def test_criterion_04_annealing_schedule():
    sched = AnnealingSchedule(lambda0=0.01, total_epochs=50)
    errs = [
        abs(annealing_lambda(0, sched) - 0.01),
        abs(annealing_lambda(50, sched) - 1.0),
        abs(annealing_lambda(25, sched) - 0.1),
    ]
    for total in (1, 7, 300):
        s = AnnealingSchedule(lambda0=0.01, total_epochs=total)
        errs.append(abs(annealing_lambda(0, s) - 0.01))
        errs.append(abs(annealing_lambda(total, s) - 1.0))
    _report(
        4,
        "annealing endpoints and midpoint",
        max(errs) <= 1e-12,
        f"worst endpoint/midpoint error {max(errs):.2e}",
    )


def _direct_hsic(kx: np.ndarray, ky: np.ndarray) -> float:
    """Direct-summation expansion of tr(Kx H Ky H) / (n-1)^2."""
    n = kx.shape[0]
    cross = 0.0
    for i in range(n):
        for j in range(n):
            cross += kx[i, j] * ky[i, j]
    rows = 0.0
    for i in range(n):
        rows += kx[i, :].sum() * ky[i, :].sum()
    total = kx.sum() * ky.sum()
    return (cross - (2.0 / n) * rows + total / n**2) / (n - 1) ** 2


def test_criterion_05_hsic_oracle():
    rng = np.random.default_rng(37)
    worst = 0.0
    for n in (2, 3, 5, 8, 16, 32, 64):
        for d in (1, 3):
            x = rng.standard_normal((n, d))
            y = rng.standard_normal((n, d))
            for params in (KernelParams(sigma=1.3), KernelParams(sigma=None)):
                kx, ky = rbf_gram(x, params), rbf_gram(y, params)
                worst = max(worst, abs(hsic_biased(kx, ky) - _direct_hsic(kx, ky)))
    # hand case: both grams with off-diagonal 0.5 -> (1-0.5)^2 = 0.25
    half = np.array([[1.0, 0.5], [0.5, 1.0]])
    hand_err = abs(hsic_biased(half, half) - 0.25)
    const_val, const_grad = hsic_value_and_grad(np.ones((6, 2)), rng.standard_normal((6, 2)))
    x = rng.standard_normal((12, 2))
    y = rng.standard_normal((12, 2))
    kx, ky = rbf_gram(x), rbf_gram(y)
    sym_err = abs(hsic_biased(kx, ky) - hsic_biased(ky, kx))
    perm = rng.permutation(12)
    perm_err = abs(
        hsic_biased(kx[np.ix_(perm, perm)], ky[np.ix_(perm, perm)]) - hsic_biased(kx, ky)
    )
    ok = (
        worst <= 1e-12
        and hand_err <= 1e-12
        and abs(const_val) <= 1e-12
        and float(np.max(np.abs(const_grad))) <= 1e-12
        and sym_err <= 1e-12
        and perm_err <= 1e-12
    )
    _report(
        5,
        "kernel independence estimator oracle",
        ok,
        f"direct-sum dev {worst:.2e}, hand case dev {hand_err:.2e}, "
        f"constant {abs(const_val):.2e}, symmetry {sym_err:.2e}, permutation {perm_err:.2e}",
    )


def _brute_force_auc(known, unknown) -> float:
    wins = 0.0
    for u in unknown:
        for k in known:
            if u > k:
                wins += 1.0
            elif u == k:
                wins += 0.5
    return wins / (len(known) * len(unknown))


def test_criterion_06_metrics_oracles():
    rng = np.random.default_rng(41)
    auc_exact = True
    for _ in range(5):
        nk, nu = int(rng.integers(5, 101)), int(rng.integers(5, 101))
        known = rng.integers(0, 12, size=nk) / 2.0  # quantized so ties occur
        unknown = rng.integers(0, 12, size=nu) / 2.0
        if roc_auc(known, unknown) != _brute_force_auc(known, unknown):
            auc_exact = False
    open_err = max(
        abs(openness(101, 51) - (1.0 - math.sqrt(202.0 / 253.0))),
        abs(openness(1, 2) - (1.0 - math.sqrt(0.5))),
    )
    open_named = abs(openness(101, 51) - 0.10646) < 5e-6 and abs(openness(1, 2) - 0.29289) < 5e-6
    single_bin = ece(np.ones(5), np.array([1.0, 1.0, 1.0, 1.0, 0.0]), num_bins=1)
    single_bin_err = abs(single_bin - 0.2)
    n = 10**5
    conf = rng.uniform(0.0, 1.0, size=n)
    correct = (rng.uniform(0.0, 1.0, size=n) < conf).astype(float)
    calibrated = ece(conf, correct, num_bins=15)
    # 30 known samples predicted right and accepted, 10 rejected unknowns from each of classes 3, 4, 5
    known_labels = np.arange(30) % 3
    probs = np.concatenate([np.eye(3)[known_labels], np.full((30, 3), 1.0 / 3.0)])
    scores = np.concatenate([np.full(30, 0.1), np.full(30, 0.9)])
    labels = np.concatenate([known_labels, np.full(30, 3)])
    unknown_ids = np.concatenate([np.full(30, -1), np.repeat([3, 4, 5], 10)])
    preds = open_predictions(probs, scores, 0.5)
    points, scalar, _ = open_maf1_curve(preds, labels, unknown_ids, 3)
    curve_vals = {p.f1_mean for p in points}
    curve_constant = curve_vals == {1.0} and scalar == 1.0
    ok = (
        auc_exact
        and open_err <= 1e-9
        and open_named
        and single_bin_err <= 1e-15
        and calibrated < 0.02
        and curve_constant
    )
    _report(
        6,
        "metric oracles",
        ok,
        f"auc exact={auc_exact}, openness dev {open_err:.1e}, single-bin dev {single_bin_err:.1e}, "
        f"calibrated {calibrated:.4f}, constant-curve scalar {scalar}",
    )


def test_criterion_07_open_set_auc_direction(tmp_path_factory, default_dataset):
    root = tmp_path_factory.mktemp("auc")
    jobs = []
    for s in SEEDS:
        jobs.append(partial(train_eval, default_dataset, root / f"edl{s}", s, epochs=1000, **BASE))
        jobs.append(
            partial(train_eval, default_dataset, root / f"soft{s}", s, epochs=1000, loss_type="softmax", **BASE)
        )
    reports, dt, cpu = run_jobs_timed(jobs)
    edl = [r["open_auc"] for r in reports[0::2]]
    soft = [r["open_auc"] for r in reports[1::2]]
    mean_edl, mean_soft = float(np.mean(edl)), float(np.mean(soft))
    _report(
        7,
        "evidential uncertainty beats max-softmax on unknowns",
        mean_edl >= 0.80 and mean_edl >= mean_soft and dt < 300.0,
        f"evidential AUC {mean_edl:.3f} (min {min(edl):.3f}) vs softmax {mean_soft:.3f}, "
        f"5 seeds [{dt:.0f}s wall, {cpu:.0f}s CPU]",
    )


def test_criterion_08_calibration_direction(shared_runs):
    runs, dt, cpu = shared_runs
    plain, euc = runs["plain"], runs["euc"]
    mean_without = float(np.mean([r["ece"]["open_k_plus_one"] for r in plain]))
    mean_with = float(np.mean([r["ece"]["open_k_plus_one"] for r in euc]))
    _report(
        8,
        "uncertainty calibration lowers open-set miscalibration",
        mean_with <= mean_without and dt < 300.0,
        f"open-set ECE {mean_without:.4f} -> {mean_with:.4f}, 5 seeds [{dt:.0f}s wall, {cpu:.0f}s CPU, shared]",
    )


def test_criterion_09_debiasing_direction(shared_runs):
    runs, dt, cpu = shared_runs
    plain, ced = runs["plain"], runs["ced"]
    unb_without = float(np.mean([r["closed_accuracy"]["unbiased"] for r in plain]))
    unb_with = float(np.mean([r["closed_accuracy"]["unbiased"] for r in ced]))
    b_without = float(np.mean([r["closed_accuracy"]["biased"] for r in plain]))
    b_with = float(np.mean([r["closed_accuracy"]["biased"] for r in ced]))
    gain = unb_with - unb_without
    drop = b_without - b_with
    _report(
        9,
        "debiasing recovers unbiased accuracy",
        gain >= 0.05 and drop <= 0.02 and dt < 600.0,
        f"unbiased {unb_without:.3f} -> {unb_with:.3f} ({gain * 100:+.1f}pts), "
        f"biased {b_without:.3f} -> {b_with:.3f} ({-drop * 100:+.1f}pts), 5 seeds [{dt:.0f}s wall, {cpu:.0f}s CPU, shared]",
    )


def test_criterion_10_ablation_decoupling(tmp_path, default_dataset):
    zero = train_eval(
        default_dataset, tmp_path / "zero", 5, epochs=40, use_ced=True, lambda_hsic=0.0, **BASE
    )
    vanilla = train_eval(default_dataset, tmp_path / "vanilla", 5, epochs=40, **BASE)
    params_zero, _ = load_checkpoint(tmp_path / "zero" / "model.ckpt")
    params_vanilla, _ = load_checkpoint(tmp_path / "vanilla" / "model.ckpt")
    bit_identical = set(params_zero) == set(params_vanilla) and all(
        params_zero[n].shape == params_vanilla[n].shape
        and params_zero[n].tobytes() == params_vanilla[n].tobytes()
        for n in params_zero
    )
    # identical f-branch weights must yield identical evaluations; only the
    # echoed configs differ between the two runs
    reports_equal = {k: v for k, v in zero.items() if k != "config"} == {
        k: v for k, v in vanilla.items() if k != "config"
    }

    # stripping: predictions must not depend on the biased-branch weights
    rng = np.random.default_rng(97)
    branches = build_branches(
        6,
        12,
        9,
        5,
        np.random.default_rng([55, 1]),
        np.random.default_rng([55, 2]),
        np.random.default_rng([55, 3]),
    )
    x = rng.standard_normal((10, 6, 24))
    perms = draw_time_permutations(np.random.default_rng([55, 4]), 10, 24)
    before = strip_for_inference(branches).forward(x)[1]
    for p in branches.parameters("h"):
        p.value += rng.standard_normal(p.value.shape)
    fwd = ced_forward(branches, x, perms=perms)
    after = strip_for_inference(branches).forward(x)[1]
    strip_invariant = np.array_equal(before, after) and np.array_equal(before, fwd.e_f)

    _report(
        10,
        "zero-penalty bit-identity and stripping invariance",
        bit_identical and reports_equal and strip_invariant,
        f"f-branch params bit-identical={bit_identical}, reports equal={reports_equal}, "
        f"stripped predictions invariant={strip_invariant}",
    )


def test_criterion_11_determinism(tmp_path, default_dataset):
    cfg = dict(epochs=60, **BASE)
    outs = []
    for tag in ("a", "b"):
        out = tmp_path / tag
        train_eval(default_dataset, out, 3, **cfg)
        outs.append(out)
    same = {
        name: (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
        for name in ("losses.csv", "model.ckpt", "model_full.ckpt", "report.json", "scores.jsonl")
    }
    _report(
        11,
        "byte-identical re-runs",
        all(same.values()),
        ", ".join(f"{k}={'same' if v else 'DIFFERS'}" for k, v in same.items()),
    )
