"""The lane decision: ``lanes.lane_count`` for the estimator's two
adversaries and ``lanes.child_lanes`` for a repeat's methods."""

import inspect
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor

import pytest

from wann import baselines, discrepancy, harness, lanes
from wann.data import MixtureShiftSpec, gen_mixture_shift
from wann.harness import MethodSpec, run_methods

FAST = {"epochs": 1, "batch_size": 16, "hidden": (4,)}
TINY = MixtureShiftSpec(dim=2, m=40, n_validation=20, seed=7)


@pytest.fixture
def one_blas_thread(monkeypatch):
    """Lanes as on one BLAS thread; the count the host's cores allow."""
    monkeypatch.setattr(lanes, "blas_threads", lambda: 1)
    return min(2, len(os.sched_getaffinity(0)))


def _counts():
    return lanes.child_lanes(), lanes.lane_count()


def test_one_child_lane_in_a_fork_pool_worker(one_blas_thread):
    # the worker is forked after the patch, so only its parent counts
    fork = multiprocessing.get_context("fork")
    with ProcessPoolExecutor(max_workers=1, mp_context=fork) as pool:
        assert pool.submit(_counts).result() == (1, one_blas_thread)
    assert _counts() == (one_blas_thread, one_blas_thread)


def test_one_child_lane_in_the_lanes_own_child(one_blas_thread,
                                               monkeypatch):
    if one_blas_thread < 2:
        pytest.skip("one core: the methods take no child lane")

    # baselines is not a registered namespace, so the caller keeps its
    # two lanes; the error carries the counts out of the child
    def reporting(*args):
        raise RuntimeError(f"{os.getpid()} {_counts()}")

    monkeypatch.setattr(baselines, "target_only_fit", reporting)
    data = gen_mixture_shift(TINY)
    results = run_methods([MethodSpec("uniform", FAST),
                           MethodSpec("target_only", FAST)],
                          data.train, data.validation, 7)
    assert results[0].error is None
    pid, counts = results[1].error.split(" ", 2)[1:]
    assert int(pid) != os.getpid()
    assert counts == "(1, 2)"


@pytest.mark.parametrize("module,name", [
    (harness, "compute_metrics"), (harness, "gen_mixture_shift"),
    (harness, "MethodConfigs"), (discrepancy, "_signed_gap"),
    (discrepancy, "gap_weights")])
def test_any_rebound_callable_gives_one_lane(one_blas_thread, monkeypatch,
                                             module, name):
    original = getattr(module, name)
    monkeypatch.setattr(module, name,
                        lambda *args, **kwargs: original(*args, **kwargs))
    assert _counts() == (1, 1)
    monkeypatch.undo()
    monkeypatch.setattr(lanes, "blas_threads", lambda: 1)
    assert _counts() == (one_blas_thread, one_blas_thread)


def test_an_unbound_callable_gives_one_lane(one_blas_thread, monkeypatch):
    monkeypatch.delattr(harness, "compute_metrics")
    assert _counts() == (1, 1)


def test_no_lane_parameters():
    # callers pass nothing: the lanes are wann.lanes' decision alone
    assert list(inspect.signature(run_methods).parameters) == [
        "specs", "train", "validation", "seed"]
    assert list(inspect.signature(harness._run_repeat).parameters) == [
        "scenario", "methods", "seed"]
    for fn in (lanes.lane_count, lanes.child_lanes):
        assert list(inspect.signature(fn).parameters) == []
