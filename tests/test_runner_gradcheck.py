"""osev gradcheck differences each CED branch alone and checks what one full-forward call would."""

from dataclasses import replace

import numpy as np
import pytest

from osev import runner
from osev.config import RunConfig
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
    """No CED forward or time permutation inside a difference quotient; two objective
    evaluations and two forwards of the perturbed branch per sampled coordinate."""
    counts = {"ced_forward": 0, "apply_time_permutations": 0, "_branch_kink_distance": 0, "objective": 0}
    counts["forward"] = {}
    phase = []  # the branch being differenced, while its gradcheck runs

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            counts[name] += 1
            if phase and name != "objective":
                raise AssertionError(f"{name} called during differencing")
            return fn(*args, **kwargs)

        return wrapped

    for name in ("ced_forward", "apply_time_permutations", "_branch_kink_distance"):
        monkeypatch.setattr(runner, name, counting(name, getattr(runner, name)))
    for name in ("debias_objective", "bias_objective"):
        monkeypatch.setattr(runner, name, counting("objective", getattr(runner, name)))

    branch_forward = EvidentialNet.forward

    def forward(self, x):
        branch = self.head.parameters()[0].name.split(".")[0]
        counts["forward"][branch] = counts["forward"].get(branch, 0) + 1
        return branch_forward(self, x)

    monkeypatch.setattr(EvidentialNet, "forward", forward)
    inner_gradcheck = runner.gradcheck
    calls = []

    def tracked_gradcheck(loss_fn, params, **kwargs):
        branches = {p.name.split(".")[0] for p in params}
        if not branches <= {"f", "h_shuffled", "h_static"}:
            return inner_gradcheck(loss_fn, params, **kwargs)
        (branch,) = branches
        before = (counts["objective"], dict(counts["forward"]))
        phase.append(branch)
        try:
            report = inner_gradcheck(loss_fn, params, **kwargs)
        finally:
            phase.pop()
        coords = _coords(params)
        forwards = {b: counts["forward"].get(b, 0) - before[1].get(b, 0) for b in counts["forward"]}
        calls.append((branch, coords, counts["objective"] - before[0], forwards))
        return report

    monkeypatch.setattr(runner, "gradcheck", tracked_gradcheck)
    runner.run_gradcheck(acceptance_config(dataset_dir, 0), instances=1)

    assert [branch for branch, *_ in calls] == ["f", "h_shuffled", "h_static", "f", "h_shuffled", "h_static"]
    for branch, coords, objectives, forwards in calls:
        assert coords > 0
        assert objectives == 2 * coords, branch
        assert {b: n for b, n in forwards.items() if n} == {branch: 2 * coords}
    # one CED forward per side instance; besides each kink test's shuffle,
    # one permuted input per h-side instance
    assert counts["ced_forward"] == len(SIDE_CHECKS)
    assert counts["apply_time_permutations"] == counts["_branch_kink_distance"] + 2
