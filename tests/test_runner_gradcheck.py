"""osev gradcheck differences each CED branch alone and checks what one full-forward call would."""

import math
from dataclasses import replace

import numpy as np
import pytest

from osev import debias, losses, runner
from osev.cli import main
from osev.config import ConfigError, RunConfig
from osev.data import SyntheticSpec, generate, save_dataset
from osev.nn import GRADCHECK_MAX_COORDS, EvidenceHead, EvidentialNet

SIDE_CHECKS = ("objective.debias", "objective.bias", "composed.main_side", "composed.biased_side")


@pytest.fixture(scope="module")
def dataset_dir(tmp_path_factory):
    spec = SyntheticSpec()
    out = tmp_path_factory.mktemp("gradcheck_data")
    save_dataset(spec, generate(spec), out)
    return str(out)


def acceptance_config(dataset_dir, seed):
    return replace(RunConfig(dataset=dataset_dir, seed=seed), feature_width=12, kernel_width=9)


def oracle_gradchecks(branches, fwd, labels, weights, kernel, side, **options):
    """Reference differencing: all three branches re-run per quotient, and one
    gradcheck covers all of the side's parameters."""
    params = branches.parameters(side)
    objective = runner.debias_objective if side == "f" else runner.bias_objective

    def loss():
        full = runner.ced_forward(branches, fwd.x, perms=fwd.perms)
        return objective(branches, full, labels, weights, kernel, apply_grads=False, **options).loss

    return [runner.gradcheck(loss, params)]


def serial(monkeypatch):
    """Run the audit's jobs in this process: a forked child's calls reach no recorder here."""
    monkeypatch.setattr(runner, "_usable_cpus", lambda: 1)


def recording(inner, perturbed):
    """gradcheck that logs the (parameter, coordinate) each loss evaluation perturbs."""

    def wrapped(loss_fn, params, **kwargs):
        originals = [p.value.copy() for p in params]

        def loss():
            for p, orig in zip(params, originals):
                perturbed.extend((p.name, int(i)) for i in np.flatnonzero(p.value != orig))
            return loss_fn()

        return inner(loss, params, **kwargs)

    return wrapped


@pytest.mark.parametrize("seed", [0, 1])
def test_branch_reports_equal_one_full_forward_gradcheck(dataset_dir, monkeypatch, seed):
    """Every side check's per-branch entries equal, with ==, those of the oracle's single call."""
    serial(monkeypatch)
    branch_gradchecks = runner._branch_gradchecks
    perturbed = []
    compared = []

    def both(*args, **options):
        del perturbed[:]
        reports = branch_gradchecks(*args, **options)
        branch_coords = perturbed[:]
        del perturbed[:]
        (oracle,) = oracle_gradchecks(*args, **options)
        compared.append((args[5], tuple(e for r in reports for e in r.entries), oracle.entries))
        assert branch_coords == perturbed, f"side {args[5]} sampled other coordinates than the oracle"
        return reports

    monkeypatch.setattr(runner, "_branch_gradchecks", both)
    monkeypatch.setattr(runner, "gradcheck", recording(runner.gradcheck, perturbed))
    entries, ok = runner.run_gradcheck(acceptance_config(dataset_dir, seed), instances=1)
    assert ok
    assert [side for side, _, _ in compared] == ["f", "h", "f", "h"]
    for side, branch_entries, oracle_entries in compared:
        assert branch_entries == oracle_entries, side
        assert len(oracle_entries) == (8 if side == "h" else 4)
    # the max over per-branch reports is the check's value
    worst = {e["check"]: e["max_rel_err"] for e in entries}
    for name, (_, branch_entries, _) in zip(SIDE_CHECKS, compared):
        assert worst[name] == max(e.max_rel_err for e in branch_entries)


def test_run_gradcheck_entries_equal_the_oracle_run(dataset_dir, monkeypatch):
    """run_gradcheck's entries are the same floats with the oracle differencing in its place."""
    config = acceptance_config(dataset_dir, 2)
    entries, _ = runner.run_gradcheck(config, instances=1)
    monkeypatch.setattr(runner, "_branch_gradchecks", oracle_gradchecks)
    oracle_entries, _ = runner.run_gradcheck(config, instances=1)
    assert entries == oracle_entries


def _coords(params):
    return sum(min(p.value.size, GRADCHECK_MAX_COORDS) for p in params)


def test_quotients_forward_only_the_perturbed_branch(dataset_dir, monkeypatch):
    """Per sampled backbone coordinate: two forwards of the perturbed branch; per head
    coordinate: two forwards of its head alone, on the branch's held features, and no
    HSIC value.  Each quotient evaluates the perturbed branch's terms, values only, on
    what that forward returned: no CED forward, time permutation, objective, centred
    Gram, validation, gradient-carrying loss or held branch's term inside a difference
    quotient; the held pieces, each branch's own HSIC terms among them, are built, and
    the labels checked, once per side instance.  Each drawn instance is forwarded once,
    and its kink test reads that forward; no permutation is made outside a CED forward."""
    serial(monkeypatch)
    counts = dict.fromkeys(
        ("ced_forward", "apply_time_permutations", "_branch_kink_distance", "objective", "centered_gram",
         "hsic_values", "_hsic_values", "_edl_loss", "_euc_loss", "_probs_and_uncertainty", "_validate_labels",
         "edl_loss_batch", "euc_loss_grad_evidence", "validate_evidence", "batch_probs_and_uncertainty"),
        0,
    )
    counts["forward"] = {}
    counts["head"] = {}
    latest = {}  # each branch's last head (input features, output evidence)
    phase = []  # the branch being differenced, while its gradcheck runs

    def counting(module, name, key=None, perturbed=None):
        """Count calls; inside a quotient, fail unless ``perturbed`` = (argument getter,
        output index) says which argument must be the perturbed branch's latest output,
        and unless a ``with_grad`` flag passed is off."""
        fn = getattr(module, name)

        def wrapped(*args, **kwargs):
            counts[key or name] += 1
            if phase:
                if perturbed is None:
                    raise AssertionError(f"{name} called during differencing")
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
    for name in ("centered_gram", "hsic_values", "_validate_labels", "edl_loss_batch", "euc_loss_grad_evidence"):
        counting(debias, name)
    for name in ("validate_evidence", "batch_probs_and_uncertainty"):
        counting(losses, name)
    counting(debias, "_hsic_values", perturbed=(lambda args: args[0], 0))  # the perturbed branch's features
    counting(debias, "_edl_loss", perturbed=(lambda args: args[1], 1))  # ... and its evidence
    counting(debias, "_probs_and_uncertainty", perturbed=(lambda args: args[0], 1))
    counting(debias, "_euc_loss", perturbed=(lambda args: args[1], 1))

    builds = []  # per side instance: (centred Grams, own HSIC terms, held EDL terms, label checks) by branch_losses
    inner_branch_losses = runner.branch_losses
    built = ("centered_gram", "_hsic_values", "_edl_loss", "_validate_labels")

    def branch_losses(*args, **kwargs):
        before = [counts[key] for key in built]
        losses = inner_branch_losses(*args, **kwargs)
        builds.append(tuple(counts[key] - n for key, n in zip(built, before)))
        return losses

    monkeypatch.setattr(runner, "branch_losses", branch_losses)
    branch_forward = EvidentialNet.forward
    head_forward = EvidenceHead.forward

    def owner(net) -> str:
        return net.parameters()[0].name.split(".")[0]

    def forward(self, x):
        branch = owner(self.head)
        counts["forward"][branch] = counts["forward"].get(branch, 0) + 1
        return branch_forward(self, x)

    def head(self, features):
        branch = owner(self)
        counts["head"][branch] = counts["head"].get(branch, 0) + 1
        latest[branch] = (features, head_forward(self, features))
        return latest[branch][1]

    monkeypatch.setattr(EvidentialNet, "forward", forward)
    monkeypatch.setattr(EvidenceHead, "forward", head)
    inner_gradcheck = runner.gradcheck
    calls = []
    terms = ("_hsic_values", "_edl_loss", "_euc_loss")

    def tracked_gradcheck(loss_fn, params, **kwargs):
        branches = {p.name.split(".")[0] for p in params}
        if not branches <= {"f", "h_shuffled", "h_static"}:
            return inner_gradcheck(loss_fn, params, **kwargs)
        (branch,) = branches
        (part,) = {p.name.split(".")[1] for p in params}
        before = ([counts[key] for key in terms], dict(counts["forward"]), dict(counts["head"]))
        phase.append(branch)
        try:
            report = inner_gradcheck(loss_fn, params, **kwargs)
        finally:
            phase.pop()
        evaluated = tuple(counts[key] - n for key, n in zip(terms, before[0]))
        forwards, heads = ({b: n - was.get(b, 0) for b, n in counts[k].items() if n != was.get(b, 0)}
                           for k, was in (("forward", before[1]), ("head", before[2])))
        calls.append((branch, part, _coords(params), evaluated, forwards, heads))
        return report

    monkeypatch.setattr(runner, "gradcheck", tracked_gradcheck)
    runner.run_gradcheck(acceptance_config(dataset_dir, 0), instances=1)

    f_side, h_side = [("f", "conv"), ("f", "head")], [(b, part) for b in ("h_shuffled", "h_static")
                                                       for part in ("conv", "head")]
    assert [call[:2] for call in calls] == f_side + h_side + f_side + h_side
    for index, (branch, part, coords, evaluated, forwards, heads) in enumerate(calls):
        assert coords > 0
        with_euc = branch == "f" and index >= len(f_side + h_side)  # composed.main_side runs EUC
        hsic = 2 * coords if part == "conv" else 0  # a head quotient reads its branch's HSIC term
        assert evaluated == (hsic, 2 * coords, 2 * coords if with_euc else 0), (branch, part)
        assert forwards == ({branch: 2 * coords} if part == "conv" else {}), (branch, part)
        assert heads == {branch: 2 * coords}, (branch, part)
    # one build per side instance: the f side holds M(h_shuffled) and M(h_static)
    # and f's own HSIC pair against them; the h side holds M(f) and each biased
    # branch's (EDL, HSIC) term, for its head quotients and the other's quotients;
    # each checks the labels once
    assert builds == [(2, 1, 0, 1), (1, 2, 2, 1), (2, 1, 0, 1), (1, 2, 2, 1)]
    # besides those 6, each composed check's step records the other side's two
    # HSIC values, each through one centred Gram and the checked hsic_values
    assert counts["centered_gram"] == 6 + 4
    assert counts["hsic_values"] == 4
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
def test_an_audit_that_checks_nothing_is_a_config_error(dataset_dir, options, message):
    with pytest.raises(ConfigError, match=message):
        runner.run_gradcheck(acceptance_config(dataset_dir, 0), **options)


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
     ("hsic_values", lambda *args: [math.nan], "loss.hsic")],  # NaN loss, so NaN quotients
)
def test_a_nan_error_fails_its_check(dataset_dir, tmp_path, monkeypatch, capsys, name, fake, check):
    """A NaN relative error counts as infinite: the check fails and osev gradcheck exits 5."""
    monkeypatch.setattr(runner, name, fake)
    entries, ok = runner.run_gradcheck(acceptance_config(dataset_dir, 0), instances=2)
    assert not ok
    assert [e["check"] for e in entries if e["max_rel_err"] == math.inf] == [check]
    assert all(e["max_rel_err"] < 1e-4 for e in entries if e["check"] != check)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"dataset = {dataset_dir}\nseed = 0\nfeature_width = 12\nkernel_width = 9\n")
    assert main(["gradcheck", "--config", str(cfg), "--instances", "1"]) == 5
    out, err = capsys.readouterr()
    assert f"FAIL {check}" in out and f"gradient check failed: {check}" in err
