"""osev gradcheck differences each CED branch alone and checks what one full-forward call would."""

from dataclasses import replace

import numpy as np
import pytest

from osev import debias, runner
from osev.config import ConfigError, RunConfig
from osev.data import SyntheticSpec, generate, save_dataset
from osev.nn import EvidentialNet

SIDE_CHECKS = ("objective.debias", "objective.bias", "composed.main_side", "composed.biased_side")


@pytest.fixture(scope="module")
def dataset_dir(tmp_path_factory):
    spec = SyntheticSpec()
    out = tmp_path_factory.mktemp("gradcheck_data")
    save_dataset(spec, generate(spec), out)
    return str(out)


def acceptance_config(dataset_dir, seed):
    return replace(RunConfig(dataset=dataset_dir, seed=seed), feature_width=12, kernel_width=9)


def oracle_gradchecks(objective, branches, fwd, labels, weights, kernel, side, eps, **options):
    """Reference differencing: all three branches re-run per quotient, and one
    gradcheck covers all of the side's parameters."""
    params = branches.parameters(side)

    def loss():
        full = runner.ced_forward(branches, fwd.x, perms=fwd.perms)
        return objective(branches, full, labels, weights, kernel, apply_grads=False, **options).loss

    return [runner.gradcheck(loss, params, eps=eps)]


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
    branch_gradchecks = runner._branch_gradchecks
    perturbed = []
    compared = []

    def both(*args, **options):
        del perturbed[:]
        reports = branch_gradchecks(*args, **options)
        branch_coords = perturbed[:]
        del perturbed[:]
        (oracle,) = oracle_gradchecks(*args, **options)
        compared.append((args[6], tuple(e for r in reports for e in r.entries), oracle.entries))
        assert branch_coords == perturbed, f"side {args[6]} sampled other coordinates than the oracle"
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


def _coords(params, max_coords=64):
    return sum(min(p.value.size, max_coords) for p in params)


def test_quotients_forward_only_the_perturbed_branch(dataset_dir, monkeypatch):
    """Per sampled coordinate: two forwards of the perturbed branch and two evaluations
    of its term, on what that forward returned.  No CED forward, time permutation,
    objective, centred Gram or held branch's EDL loss inside a difference quotient;
    the held pieces are built once per side instance."""
    counts = dict.fromkeys(
        ("ced_forward", "apply_time_permutations", "_branch_kink_distance", "objective", "centered_gram",
         "hsic_values", "edl_loss_batch"),
        0,
    )
    counts["forward"] = {}
    latest = {}  # each branch's last (features, evidence)
    phase = []  # the branch being differenced, while its gradcheck runs

    def counting(module, name, key=None, perturbed_arg=None):
        """Count calls; inside a quotient, fail unless ``perturbed_arg`` = (position,
        output index) says which argument must be the perturbed branch's latest output."""
        fn = getattr(module, name)

        def wrapped(*args, **kwargs):
            counts[key or name] += 1
            if phase:
                if perturbed_arg is None:
                    raise AssertionError(f"{name} called during differencing")
                position, output = perturbed_arg
                assert args[position] is latest[phase[-1]][output], f"{name} evaluated a held branch"
            return fn(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapped)

    for name in ("ced_forward", "apply_time_permutations", "_branch_kink_distance"):
        counting(runner, name)
    for name in ("debias_objective", "bias_objective"):
        counting(runner, name, key="objective")
    counting(debias, "centered_gram")
    counting(debias, "hsic_values", perturbed_arg=(0, 0))  # the perturbed branch's features
    counting(debias, "edl_loss_batch", perturbed_arg=(1, 1))  # ... and its evidence

    builds = []  # per side instance: (centred Grams, held terms) built by branch_losses
    inner_branch_losses = runner.branch_losses

    def branch_losses(*args, **kwargs):
        before = counts["centered_gram"], counts["hsic_values"]
        losses = inner_branch_losses(*args, **kwargs)
        builds.append((counts["centered_gram"] - before[0], counts["hsic_values"] - before[1]))
        return losses

    monkeypatch.setattr(runner, "branch_losses", branch_losses)
    branch_forward = EvidentialNet.forward

    def forward(self, x):
        branch = self.head.parameters()[0].name.split(".")[0]
        counts["forward"][branch] = counts["forward"].get(branch, 0) + 1
        latest[branch] = branch_forward(self, x)
        return latest[branch]

    monkeypatch.setattr(EvidentialNet, "forward", forward)
    inner_gradcheck = runner.gradcheck
    calls = []

    def tracked_gradcheck(loss_fn, params, **kwargs):
        branches = {p.name.split(".")[0] for p in params}
        if not branches <= {"f", "h_shuffled", "h_static"}:
            return inner_gradcheck(loss_fn, params, **kwargs)
        (branch,) = branches
        before = (counts["hsic_values"], counts["edl_loss_batch"], dict(counts["forward"]))
        phase.append(branch)
        try:
            report = inner_gradcheck(loss_fn, params, **kwargs)
        finally:
            phase.pop()
        terms = (counts["hsic_values"] - before[0], counts["edl_loss_batch"] - before[1])
        forwards = {b: counts["forward"].get(b, 0) - before[2].get(b, 0) for b in counts["forward"]}
        calls.append((branch, _coords(params), terms, forwards))
        return report

    monkeypatch.setattr(runner, "gradcheck", tracked_gradcheck)
    runner.run_gradcheck(acceptance_config(dataset_dir, 0), instances=1)

    assert [branch for branch, *_ in calls] == ["f", "h_shuffled", "h_static", "f", "h_shuffled", "h_static"]
    for branch, coords, terms, forwards in calls:
        assert coords > 0
        assert terms == (2 * coords, 2 * coords), branch
        assert {b: n for b, n in forwards.items() if n} == {branch: 2 * coords}
    # one build per side instance: the f side holds M(h_shuffled) and M(h_static);
    # the h side holds M(f) and each biased branch's term for the other's quotients
    assert builds == [(2, 0), (1, 2), (2, 0), (1, 2)]
    assert counts["centered_gram"] == 6
    assert counts["objective"] == 2  # the objective checks' analytic gradients
    # one CED forward per side instance; besides each kink test's shuffle,
    # one permuted input per h-side instance
    assert counts["ced_forward"] == len(SIDE_CHECKS)
    assert counts["apply_time_permutations"] == counts["_branch_kink_distance"] + 2


@pytest.mark.parametrize(
    "options, message",
    [({"instances": 0}, "--instances must be >= 1, got 0"), ({"tol": float("nan")}, "--tol must be positive"),
     ({"tol": 0.0}, "--tol must be positive"), ({"tol": float("inf")}, "--tol must be positive")],
)
def test_an_audit_that_checks_nothing_is_a_config_error(dataset_dir, options, message):
    with pytest.raises(ConfigError, match=message):
        runner.run_gradcheck(acceptance_config(dataset_dir, 0), **options)
