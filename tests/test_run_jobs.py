"""The runner's job helper: forked workers give the outcomes, in job order, of running the jobs here."""

import os
import time
from dataclasses import replace

import pytest

from osev import runner
from osev.cli import main
from osev.config import RunConfig


@pytest.fixture
def cpus(monkeypatch):
    """Set the number of usable CPUs the helper sees."""
    return lambda n: monkeypatch.setattr(runner, "_usable_cpus", lambda: n)


@pytest.fixture(autouse=True)
def no_child_left():
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def fail(exc):
    def job():
        raise exc

    return job


def child_only(job):
    """``job`` in a forked worker; in this process it raises instead."""
    parent = os.getpid()

    def guarded():
        if os.getpid() == parent:
            raise AssertionError("a job meant for a child ran in the calling process")
        return job()

    return guarded


def summary(outcomes):
    return [(type(o).__name__, str(o)) if isinstance(o, Exception) else o for o in outcomes]


def test_outcomes_come_back_in_job_order_with_their_exceptions(cpus):
    jobs = [
        lambda: 1.5,
        fail(ValueError("bad input")),
        lambda: {"open_auc": 0.75},
        fail(FileNotFoundError(2, "No such file or directory", "missing.csv")),
        fail(RuntimeError("late")),
    ]
    cpus(1)
    serial = runner._run_jobs(jobs)
    cpus(2)
    forked = runner._run_jobs(jobs)
    assert summary(forked) == summary(serial) == [
        1.5,
        ("ValueError", "bad input"),
        {"open_auc": 0.75},
        ("FileNotFoundError", "[Errno 2] No such file or directory: 'missing.csv'"),
        ("RuntimeError", "late"),
    ]


def test_job_i_runs_on_worker_i_mod_w(cpus):
    cpus(3)
    pids = runner._run_jobs([os.getpid] * 7)
    assert pids[0::3] == [os.getpid()] * 3
    assert len(set(pids[1::3])) == len(set(pids[2::3])) == 1
    assert len(set(pids)) == 3


def test_a_child_that_dies_without_reporting_is_an_error_naming_its_job(cpus):
    cpus(2)
    outcomes = runner._run_jobs([lambda: "a", child_only(lambda: os._exit(3)), lambda: "c"])
    assert outcomes[0::2] == ["a", "c"]
    assert isinstance(outcomes[1], ChildProcessError)
    assert str(outcomes[1]) == "job 1: its worker process exited with code 3 without reporting"


def test_a_child_whose_outcomes_cannot_be_pickled_reports_each_of_its_jobs_lost(cpus):
    cpus(2)
    outcomes = runner._run_jobs([lambda: 0, lambda: 1, lambda: 2, lambda: (lambda: None)])
    assert outcomes[0::2] == [0, 2]
    assert [str(o) for o in outcomes[1::2]] == [
        f"job {i}: its worker process exited with code 1 without reporting" for i in (1, 3)
    ]


class Interrupt(BaseException):
    pass


def test_a_raise_in_this_process_kills_and_reaps_the_children(cpus):
    cpus(2)
    start = time.monotonic()
    with pytest.raises(Interrupt):
        runner._run_jobs([fail(Interrupt()), child_only(lambda: time.sleep(60))])
    assert time.monotonic() - start < 30


def test_one_cpu_or_one_job_runs_here_in_order(cpus):
    order = []
    cpus(1)
    assert runner._run_jobs([lambda: order.append(1), lambda: order.append(2)]) == [None, None]
    cpus(2)
    assert runner._run_jobs([lambda: order.append(3)]) == [None]
    assert order == [1, 2, 3]


@pytest.mark.parametrize("evidence", ["exp", "softplus", "relu"])
@pytest.mark.parametrize("seed", [0, 7, 11])
def test_forked_gradcheck_entries_equal_the_serial_ones(default_dataset, cpus, seed, evidence):
    config = replace(RunConfig(dataset=default_dataset, seed=seed), feature_width=12, kernel_width=9, evidence=evidence)
    cpus(1)
    serial = runner.run_gradcheck(config, instances=2)
    cpus(2)
    forked = runner.run_gradcheck(config, instances=2)
    assert repr(forked) == repr(serial)


def test_a_gradcheck_job_that_raises_exits_as_the_serial_run_does(default_dataset, tmp_path, cpus, monkeypatch, capsys):
    """objective.bias is job 9 at one instance, a child's job on two workers; its loss raises
    while differencing, and the serial run raises there too."""

    def bias_side_raises(side, *args, **options):
        loss = branch_losses(side, *args, **options)
        if side != "h":
            return loss

        def raising(p, values):
            ran_in.append(os.getpid())  # lost when a forked child runs it
            raise ValueError("differencing failed")

        return raising

    branch_losses = runner.branch_losses
    ran_in = []
    monkeypatch.setattr(runner, "branch_losses", bias_side_raises)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"dataset = {default_dataset}\nseed = 0\nfeature_width = 12\nkernel_width = 9\n")
    results = []
    for n in (1, 2):
        cpus(n)
        code = main(["gradcheck", "--config", str(cfg), "--instances", "1"])
        results.append((code, capsys.readouterr()))
    assert results[0] == results[1]
    assert ran_in == [os.getpid()] * 2  # the serial run's jobs 9 and 11 (both h sides); the forked run's ran in a child
    assert results[1][0] == 2
    assert results[1][1].out == "" and results[1][1].err == "error: differencing failed\n"
