"""osev gradcheck differences stacks of perturbed copies, each CED branch alone, and
checks what a serial loop over coordinates of full-forward calls would."""

import itertools
import math
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from osev import debias, losses, nn, runner
from osev.cli import main
from osev.config import ConfigError, RunConfig
from osev.hsic import _hsic_values
from osev.losses import edl_loss_batch, euc_loss_grad_evidence
from osev.nn import (
    GRADCHECK_CHUNK,
    GRADCHECK_EPS,
    GRADCHECK_MAX_COORDS,
    EvidenceHead,
    EvidentialNet,
    GradcheckEntry,
    GradcheckReport,
)

SIDE_CHECKS = ("objective.debias", "objective.bias", "composed.main_side", "composed.biased_side")


def acceptance_config(default_dataset, seed, evidence="exp"):
    return replace(RunConfig(dataset=default_dataset, seed=seed), feature_width=12, kernel_width=9, evidence=evidence)


def serial_gradcheck(loss, params, rng=None):
    """The reference differencer: per sampled coordinate, set the parameter to
    value + eps, then value - eps, in place, and evaluate ``loss(p)`` at each, one
    coordinate after another."""
    if rng is None:
        rng = np.random.default_rng(0)
    entries = []
    for p in params:
        analytic = p.grad.reshape(-1).copy()
        flat = p.value.reshape(-1)
        n = flat.size
        if n <= GRADCHECK_MAX_COORDS:
            coords = np.arange(n)
        else:
            coords = np.sort(rng.choice(n, size=GRADCHECK_MAX_COORDS, replace=False))
        worst = GradcheckEntry(p.name, 0.0, -1, 0.0, 0.0)
        for i in coords:
            orig = flat[i]
            flat[i] = orig + GRADCHECK_EPS
            up = loss(p)
            flat[i] = orig - GRADCHECK_EPS
            down = loss(p)
            flat[i] = orig
            fd = (up - down) / (2.0 * GRADCHECK_EPS)
            an = analytic[i]
            rel = abs(fd - an) / max(abs(fd), abs(an), 1.0)
            if math.isnan(rel):
                rel = math.inf
            if rel > worst.max_rel_err:
                worst = GradcheckEntry(p.name, float(rel), int(i), float(an), float(fd))
        entries.append(worst)
    return GradcheckReport(tuple(entries))


def oracle_branch_losses(side, branches, fwd, labels, weights, kernel, **options):
    """The reference side loss: per copy, the parameter set to it in place, all three
    branches re-run, and the side's objective's loss."""
    objective = runner.debias_objective if side == "f" else runner.bias_objective

    def loss(p, values):
        original = p.value.copy()
        out = []
        for copy in values:
            p.assign(copy)
            full = runner.ced_forward(branches, fwd.x, perms=fwd.perms)
            out.append(objective(branches, full, labels, weights, kernel, apply_grads=False, **options).loss)
        p.assign(original)
        return np.array(out)

    return loss


def oracle_layer_check(layer, x):
    """The layer checks' (loss, params), the loss through the plain forward: the serial
    differencer has put the one copy it evaluates in place."""
    out = layer.forward(x)
    layer.backward(out.copy())
    return lambda _, values: [float(0.5 * np.sum(layer.forward(x) ** 2)) for _ in values], layer.parameters()


def oracle_loss_check(loss_fn, params, rng=None):
    """gradcheck, differenced serially: each quotient evaluates one copy, the parameter's value."""
    return serial_gradcheck(lambda p: loss_fn(p, p.value[None].copy())[0], params, rng=rng)


def serial(monkeypatch):
    """Run the audit's jobs in this process: a forked child's calls reach no recorder here."""
    monkeypatch.setattr(runner, "_usable_cpus", lambda: 1)


def recorded(inner, reports):
    """A gradcheck that appends each report it returns to ``reports``."""

    def wrapped(*args, **kwargs):
        reports.append(inner(*args, **kwargs))
        return reports[-1]

    return wrapped


def copies_recording(inner, perturbed):
    """gradcheck that logs the (parameter, coordinate) at which each copy it evaluates differs from the parameter."""

    def wrapped(loss_fn, params, **kwargs):
        def loss(p, values):
            for copy in values:
                perturbed.extend((p.name, int(i)) for i in np.flatnonzero(copy != p.value))
            return loss_fn(p, values)

        return inner(loss, params, **kwargs)

    return wrapped


def in_place_recording(inner, perturbed):
    """serial_gradcheck that logs the (parameter, coordinate) each loss evaluation perturbs."""

    def wrapped(loss_fn, params, **kwargs):
        originals = [p.value.copy() for p in params]

        def loss(p):
            for q, orig in zip(params, originals):
                perturbed.extend((q.name, int(i)) for i in np.flatnonzero(q.value != orig))
            return loss_fn(p)

        return inner(loss, params, **kwargs)

    return wrapped


@pytest.mark.parametrize("seed", [0, 1])
def test_branch_reports_equal_one_full_forward_gradcheck(default_dataset, monkeypatch, seed):
    """Every side check's entries equal, with ==, those of the oracle's serial gradcheck
    over the side's parameters, and its copies perturb the coordinates the oracle
    perturbs, in its order."""
    serial(monkeypatch)
    inner_branch_losses = runner.branch_losses
    perturbed = []
    stacked_gradcheck = copies_recording(runner.gradcheck, perturbed)
    sides = {}  # each side's loss, as built by its job, mapped to its arguments
    compared = []

    def branch_losses(*args, **options):
        loss = inner_branch_losses(*args, **options)
        sides[loss] = args, options
        return loss

    def both(loss_fn, params, **kwargs):
        if loss_fn not in sides:
            return stacked_gradcheck(loss_fn, params, **kwargs)
        (side, branches, *rest), options = sides[loss_fn]
        del perturbed[:]
        report = stacked_gradcheck(loss_fn, params, **kwargs)
        stacked_coords = perturbed[:]
        del perturbed[:]
        oracle = oracle_loss_check(oracle_branch_losses(side, branches, *rest, **options), branches.parameters(side))
        compared.append((side, report.entries, oracle.entries))
        assert stacked_coords == perturbed, f"side {side} sampled other coordinates than the oracle"
        return report

    monkeypatch.setattr(runner, "branch_losses", branch_losses)
    monkeypatch.setattr(runner, "gradcheck", both)
    monkeypatch.setitem(globals(), "serial_gradcheck", in_place_recording(serial_gradcheck, perturbed))
    entries, ok = runner.run_gradcheck(acceptance_config(default_dataset, seed), instances=1)
    assert ok
    assert [side for side, _, _ in compared] == ["f", "h", "f", "h"]
    for side, side_entries, oracle_entries in compared:
        assert side_entries == oracle_entries, side
        assert len(oracle_entries) == (8 if side == "h" else 4)
    # the worst of a side's entries is the check's entry
    worst = {e["check"]: e for e in entries}
    for name, (_, side_entries, _) in zip(SIDE_CHECKS, compared):
        top = max(side_entries, key=lambda e: e.max_rel_err)
        assert (worst[name]["max_rel_err"], worst[name]["name"], worst[name]["worst_coord"]) == (
            top.max_rel_err, top.name, top.worst_coord
        )


@pytest.mark.parametrize("evidence, seed", [("exp", 3), ("softplus", 4), ("relu", 5)])
def test_every_report_equals_the_serial_differencer(default_dataset, monkeypatch, evidence, seed):
    """Each layer, loss and side report of the stacked checker equals, with ==, that of
    the serial differencer over the plain forwards, the public losses and, for the
    sides, the full CED forward and objective."""
    serial(monkeypatch)
    config = acceptance_config(default_dataset, seed, evidence)
    stacked, reference = [], []
    monkeypatch.setattr(runner, "gradcheck", recorded(nn.gradcheck, stacked))
    runner.run_gradcheck(config, instances=1)
    monkeypatch.setitem(globals(), "serial_gradcheck", recorded(serial_gradcheck, reference))
    monkeypatch.setattr(runner, "_quadratic_layer_check", oracle_layer_check)
    monkeypatch.setattr(runner, "branch_losses", oracle_branch_losses)
    monkeypatch.setattr(runner, "gradcheck", oracle_loss_check)
    # each stacked loss of the loss checks evaluates its copies one by one through the public entry
    monkeypatch.setattr(runner, "_edl_loss", lambda y, ev, _: (np.array([edl_loss_batch(y, e)[0] for e in ev]), None))
    monkeypatch.setattr(runner, "_euc_losses", lambda y, ev, lam: [euc_loss_grad_evidence(y, e, lam)[0] for e in ev])
    monkeypatch.setattr(runner, "_hsic_values", lambda x, *rest: np.array([_hsic_values(c, *rest) for c in x]).T)
    runner.run_gradcheck(config, instances=1)
    assert len(stacked) == 5 + 3 + 4  # layers, losses, then one report per side check
    assert len(reference) == len(stacked)
    for stacked_report, reference_report in zip(stacked, reference):
        assert stacked_report == reference_report


def test_run_gradcheck_entries_equal_the_oracle_run(default_dataset, monkeypatch):
    """run_gradcheck's entries are the same floats with the serial differencer, and the
    oracle's full-forward side losses, in place of the stacked ones."""
    config = acceptance_config(default_dataset, 2)
    entries, _ = runner.run_gradcheck(config, instances=1)
    monkeypatch.setattr(runner, "branch_losses", oracle_branch_losses)
    monkeypatch.setattr(runner, "gradcheck", oracle_loss_check)
    oracle_entries, _ = runner.run_gradcheck(config, instances=1)
    assert entries == oracle_entries


def _coords(params):
    return sum(min(p.value.size, GRADCHECK_MAX_COORDS) for p in params)


def _chunks(params):
    """Stacked evaluations per gradcheck: each parameter's 2 copies per coordinate, a chunk at a time."""
    return sum(math.ceil(2 * min(p.value.size, GRADCHECK_MAX_COORDS) / GRADCHECK_CHUNK) for p in params)


def test_quotients_forward_only_the_perturbed_branch(default_dataset, monkeypatch):
    """Per chunk of a backbone parameter's perturbed copies: one stacked forward of the
    perturbed branch; per chunk of a head parameter's: one stacked forward of its head
    alone, on the branch's held features, and no HSIC value.  Each chunk evaluates the
    perturbed branch's terms, values only, on what that forward returned, and the
    calibration term once per copy: no CED forward, time permutation, objective, centred
    Gram, validation, gradient-carrying loss or held branch's term while differencing;
    the held pieces, each branch's own HSIC terms among them, are built, and the labels
    checked, once per side instance.  Each drawn instance is forwarded once, and its kink
    test reads that forward; no permutation is made outside a CED forward."""
    serial(monkeypatch)
    counts = dict.fromkeys(
        ("ced_forward", "apply_time_permutations", "_branch_kink_distance", "objective", "centered_gram",
         "_hsic_values", "_edl_loss", "_euc_losses", "_euc_loss", "_validate_labels",
         "edl_loss_batch", "euc_loss_grad_evidence", "validate_evidence", "batch_probs_and_uncertainty",
         "plain_forward"),
        0,
    )
    counts["forward"] = {}
    counts["head"] = {}
    latest = {}  # each branch's last head (input features, output evidence)
    phase = []  # the branch being differenced, while a side loss call runs

    def counting(module, name, key=None, perturbed=None):
        """Count calls; while differencing, fail unless ``perturbed`` = (argument getter,
        output index) says which argument must be the perturbed branch's latest output,
        or is True for a call the stacked terms make, and unless a ``with_grad`` flag
        passed is off."""
        fn = getattr(module, name)

        def wrapped(*args, **kwargs):
            counts[key or name] += 1
            if phase:
                if perturbed is None:
                    raise AssertionError(f"{name} called during differencing")
                if perturbed is not True:
                    argument, output = perturbed
                    assert argument(args) is latest[phase[-1]][output], f"{name} evaluated a held branch"
                assert kwargs.get("with_grad", False) is False, f"{name} computed a gradient"
            return fn(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapped)

    for name in ("ced_forward", "_branch_kink_distance"):
        counting(runner, name)
    counting(debias, "apply_time_permutations")  # the only binding that permutes: ced_forward's
    for name in ("debias_objective", "bias_objective"):
        counting(runner, name, key="objective")
    for name in ("centered_gram", "_validate_labels", "edl_loss_batch", "euc_loss_grad_evidence"):
        counting(debias, name)
    for name in ("validate_evidence", "batch_probs_and_uncertainty"):
        counting(losses, name)
    counting(debias, "_hsic_values", perturbed=(lambda args: args[0], 0))  # the perturbed branch's features
    counting(debias, "_edl_loss", perturbed=(lambda args: args[1], 1))  # ... and its evidence
    counting(debias, "_euc_losses", perturbed=(lambda args: args[1], 1))
    counting(losses, "_euc_loss", perturbed=True)  # once per copy, inside _euc_losses

    builds = []  # per side instance: (centred Grams, own HSIC terms, held EDL terms, label checks) by branch_losses
    inner_branch_losses = runner.branch_losses
    built = ("centered_gram", "_hsic_values", "_edl_loss", "_validate_labels")

    def branch_losses(*args, **kwargs):
        before = [counts[key] for key in built]
        losses = inner_branch_losses(*args, **kwargs)
        builds.append(tuple(counts[key] - n for key, n in zip(built, before)))
        return losses

    monkeypatch.setattr(runner, "branch_losses", branch_losses)
    branch_forward = EvidentialNet.forward_copies
    head_forward = EvidenceHead.forward_copies

    def owner(net) -> str:
        return net.parameters()[0].name.split(".")[0]

    def forward(self, x, copies):
        branch = owner(self.head)
        counts["forward"][branch] = counts["forward"].get(branch, 0) + 1
        return branch_forward(self, x, copies)

    def head(self, features, copies):
        branch = owner(self)
        counts["head"][branch] = counts["head"].get(branch, 0) + 1
        latest[branch] = (features, head_forward(self, features, copies))
        return latest[branch][1]

    monkeypatch.setattr(EvidentialNet, "forward_copies", forward)
    monkeypatch.setattr(EvidenceHead, "forward_copies", head)
    for cls in (EvidentialNet, EvidenceHead):
        counting(cls, "forward", key="plain_forward")  # none while differencing
    inner_gradcheck = runner.gradcheck
    quotients = []  # per side loss call: (branch, part, parameter, evaluated terms, forwards, heads)
    terms = ("_hsic_values", "_edl_loss", "_euc_losses", "_euc_loss")

    def tracked_gradcheck(loss_fn, params, **kwargs):
        if not {p.name.split(".")[0] for p in params} <= {"f", "h_shuffled", "h_static"}:
            return inner_gradcheck(loss_fn, params, **kwargs)

        def loss(p, values):
            branch, part = p.name.split(".")[:2]
            before = ([counts[key] for key in terms], Counter(counts["forward"]), Counter(counts["head"]))
            phase.append(branch)
            out = loss_fn(p, values)
            phase.pop()
            evaluated = tuple(counts[key] - n for key, n in zip(terms, before[0]))
            quotients.append((branch, part, p, evaluated, Counter(counts["forward"]) - before[1],
                              Counter(counts["head"]) - before[2]))
            return out

        return inner_gradcheck(loss, params, **kwargs)

    monkeypatch.setattr(runner, "gradcheck", tracked_gradcheck)
    runner.run_gradcheck(acceptance_config(default_dataset, 0), instances=1)

    calls = []  # per run of one branch part's loss calls: its parameters' coordinates and chunks, and the sums
    for (branch, part), run in itertools.groupby(quotients, key=lambda q: q[:2]):
        run = list(run)
        params = list({id(q[2]): q[2] for q in run}.values())
        evaluated = tuple(map(sum, zip(*(q[3] for q in run))))
        forwards, heads = (sum((q[i] for q in run), Counter()) for i in (4, 5))
        calls.append((branch, part, _coords(params), _chunks(params), evaluated, forwards, heads))
    f_side, h_side = [("f", "conv"), ("f", "head")], [(b, part) for b in ("h_shuffled", "h_static")
                                                       for part in ("conv", "head")]
    assert [call[:2] for call in calls] == f_side + h_side + f_side + h_side
    # at the acceptance shape (6 channels, width 12, kernel 9, 5 classes) a conv samples 64
    # of its weights (648, or 72 at width 1) and all 12 biases, and a head all 60 weights
    # and 5 biases; two copies per coordinate, 16 a chunk: 8 + 2 conv and 8 + 1 head chunks
    assert GRADCHECK_CHUNK == 16
    assert [call[2:4] for call in calls] == [(76, 10), (65, 9)] * 6
    for index, (branch, part, coords, chunks, evaluated, forwards, heads) in enumerate(calls):
        with_euc = branch == "f" and index >= len(f_side + h_side)  # composed.main_side runs EUC
        hsic = chunks if part == "conv" else 0  # a head quotient reads its branch's HSIC term
        euc = (chunks, 2 * coords) if with_euc else (0, 0)
        assert evaluated == (hsic, chunks, *euc), (branch, part)
        assert forwards == ({branch: chunks} if part == "conv" else {}), (branch, part)
        assert heads == {branch: chunks}, (branch, part)
    # one build per side instance: the f side holds M(h_shuffled) and M(h_static)
    # and f's own HSIC pair against them; the h side holds M(f) and each biased
    # branch's (EDL, HSIC) term, for its head quotients and the other's quotients;
    # each checks the labels once
    assert builds == [(2, 1, 0, 1), (1, 2, 2, 1), (2, 1, 0, 1), (1, 2, 2, 1)]
    # no others: each composed check's step takes every HSIC term with its gradient;
    # the 6 builds evaluate 6 HSIC values, and the 6 conv quotients one per chunk of 10
    assert counts["centered_gram"] == 6
    assert counts["_hsic_values"] == 6 + 6 * 10
    assert counts["objective"] == 2  # the objective checks' analytic gradients
    # one CED forward per drawn instance, which its kink test reads (4 side
    # instances, 4 redrawn at seed 0); each permutes once, as does each
    # composed check's training step
    assert counts["ced_forward"] == counts["_branch_kink_distance"] == 8
    assert counts["apply_time_permutations"] == counts["ced_forward"] + 2


@pytest.mark.parametrize(
    "options, message",
    [({"instances": 0}, "--instances must be >= 1, got 0"), ({"tol": float("nan")}, "--tol must be positive"),
     ({"tol": 0.0}, "--tol must be positive"), ({"tol": float("inf")}, "--tol must be positive")],
)
def test_an_audit_that_checks_nothing_is_a_config_error(default_dataset, options, message):
    with pytest.raises(ConfigError, match=message):
        runner.run_gradcheck(acceptance_config(default_dataset, 0), **options)


def test_an_exp_logit_beyond_the_clamp_is_no_kink():
    """Exp evidence is constant beyond its clamp, so only a logit near +-bound is a kink."""
    bound, margin = 10.0, runner.KINK_MARGIN
    assert runner._logit_kink_distance(np.array([[2 * bound, 1.0], [-2 * bound, 3.0]]), "exp", bound) == bound - 3.0
    for near in (bound - margin / 2, -bound + margin / 2, bound + margin / 2, -bound - margin / 2):
        assert runner._logit_kink_distance(np.array([[near, 1.0]]), "exp", bound) < margin


def test_clear_of_kinks_returns_the_first_draw_beyond_the_margin():
    margin = runner.KINK_MARGIN
    draws = iter([(0.0, "a"), (margin, "b"), (2 * margin, "c"), (1.0, "d")])
    assert runner._clear_of_kinks(lambda: next(draws), lambda distance, _: distance) == (2 * margin, "c")
    assert next(draws) == (1.0, "d")  # nothing drawn past it


def nan_gradient(edl_loss_batch):
    def wrapped(labels, e):
        losses, grads = edl_loss_batch(labels, e)
        grads = grads.copy()
        grads[0, 1] = np.nan
        return losses, grads

    return wrapped


@pytest.mark.parametrize(
    "name, fake, check",
    [("edl_loss_batch", nan_gradient(runner.edl_loss_batch), "loss.edl"),  # NaN analytic gradient
     ("_hsic_values", lambda x, *args: [np.full(len(x), math.nan)], "loss.hsic")],  # NaN loss, so NaN quotients
)
def test_a_nan_error_fails_its_check(default_dataset, tmp_path, monkeypatch, capsys, name, fake, check):
    """A NaN relative error counts as infinite: the check fails and osev gradcheck exits 5."""
    monkeypatch.setattr(runner, name, fake)
    entries, ok = runner.run_gradcheck(acceptance_config(default_dataset, 0), instances=2)
    assert not ok
    assert [e["check"] for e in entries if e["max_rel_err"] == math.inf] == [check]
    assert all(e["max_rel_err"] < 1e-4 for e in entries if e["check"] != check)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"dataset = {default_dataset}\nseed = 0\nfeature_width = 12\nkernel_width = 9\n")
    assert main(["gradcheck", "--config", str(cfg), "--instances", "1"]) == 5
    out, err = capsys.readouterr()
    assert f"FAIL {check}" in out and f"gradient check failed: {check}" in err


def test_a_wrong_gradient_is_named_where_it_fails(default_dataset, tmp_path, monkeypatch, capsys):
    """The FAIL line and the stderr summary name the worst instance's parameter, its flat
    coordinate and both derivatives there."""

    def wrong_gradient(labels, e):
        losses, grads = edl_loss_batch(labels, e)
        grads = grads.copy()
        grads[2, 3] += 0.5  # flat coordinate 2 * 5 + 3 of the (8, 5) evidence
        return losses, grads

    monkeypatch.setattr(runner, "edl_loss_batch", wrong_gradient)
    entries, ok = runner.run_gradcheck(acceptance_config(default_dataset, 0), instances=2)
    (entry,) = [e for e in entries if e["max_rel_err"] >= 1e-4]
    assert (entry["check"], entry["name"], entry["worst_coord"]) == ("loss.edl", "edl.evidence", 13)
    assert entry["analytic"] - entry["numeric"] == pytest.approx(0.5 / 8)  # the loss is a batch mean
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"dataset = {default_dataset}\nseed = 0\nfeature_width = 12\nkernel_width = 9\n")
    assert main(["gradcheck", "--config", str(cfg), "--instances", "2"]) == 5
    out, err = capsys.readouterr()
    where = f"edl.evidence.flat[13]: analytic={entry['analytic']:.9e} numeric={entry['numeric']:.9e}"
    assert f"FAIL loss.edl               max_rel_err={entry['max_rel_err']:.3e} at {where}\n" in out
    assert [line[:4] for line in out.splitlines()].count("ok  ") == len(entries) - 1
    assert err == f"gradient check failed: loss.edl ({where})\n"
