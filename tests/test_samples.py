"""KMM, KLIEP, the risk-gap estimator and ``run_method`` refuse a
malformed sample by name: a wrong ndim, a width that differs from the
other sample's or a non-finite value is a ``ValueError`` naming the
argument, raised before any kernel or network sees it. A well-formed
sample either works or meets one of the documented refusals."""

import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from wann import estimate_y_discrepancy, kliep_weights, kmm_weights
from wann.data import LabeledSample, TrainingSet
from wann.harness import RUNNERS, MethodSpec, run_method
from wann.nn import ArchSpec, FitConfig

# magnitudes stay far from float64 overflow: a finite sample whose squares
# overflow is reported as a divergence, which is not a sample check
VALUES = st.floats(-100.0, 100.0)
NON_FINITE = st.sampled_from([np.nan, np.inf, -np.inf])

# what a well-formed sample may still meet: each caller's rule on empty
# samples, and KLIEP's on points no kernel center reaches
REFUSALS = ("at least one", "is empty", "needs both",
            "zero kernel mass")

TINY = {"hidden": (2,), "epochs": 1, "batch_size": 2, "pretrain_epochs": 1,
        "n_iterations": 1}


def mostly(value: int, low: int = 1, high: int = 3):
    """``value`` in two draws of three, otherwise another of
    ``low``-``high``."""
    return st.sampled_from([value] * 3 + list(range(low, high + 1)))


@st.composite
def array(draw, ndim=mostly(2), rows=st.integers(0, 4),
          width=st.integers(1, 3)):
    """A float64 array whose number of axes, rows and columns are drawn
    from ``ndim``, ``rows`` and ``width``."""
    shape = (draw(rows), draw(width), 1)[:draw(ndim)]
    return draw(arrays(np.float64, shape, elements=VALUES))


def spoil(draw, named: dict) -> str | None:
    """In about one draw of three, set one cell of one nonempty array in
    ``named`` to a non-finite value; returns that array's name."""
    names = [name for name, values in named.items() if values.size]
    if not names or draw(st.integers(0, 2)):
        return None
    name = draw(st.sampled_from(names))
    values = named[name].reshape(-1)
    values[draw(st.integers(0, values.size - 1))] = draw(NON_FINITE)
    return name


def assert_outcome(message: str | None, malformed: bool, names: tuple):
    """``message`` is None (the call worked) or a ValueError's text."""
    if message is None:
        assert not malformed
    elif malformed:
        assert re.match("|".join(map(re.escape, names)), message), message
    else:
        assert any(refusal in message for refusal in REFUSALS), message


def value_error(call) -> str | None:
    """Run ``call``; None when it returns, else its ValueError's text.
    Any other exception fails the test."""
    try:
        call()
    except ValueError as exc:
        return str(exc)
    return None


@pytest.mark.parametrize("solver", [kmm_weights, kliep_weights])
@settings(max_examples=100)
@given(data=st.data())
def test_kernel_weights_refuse_a_malformed_sample_by_name(solver, data):
    source = data.draw(array())
    width = source.shape[1] if source.ndim > 1 else 1
    named = {"source_X": source,
             "target_X": data.draw(array(width=mostly(width)))}
    spoiled = spoil(data.draw, named)
    target = named["target_X"]
    malformed = (spoiled is not None or source.ndim != 2 or target.ndim != 2
                 or source.shape[1] != target.shape[1])
    assert_outcome(value_error(lambda: solver(source, target)), malformed,
                   ("source_X", "target_X"))


@settings(max_examples=100)
@given(data=st.data())
def test_estimator_refuses_a_malformed_sample_by_name(data):
    rows = st.just(data.draw(st.integers(0, 4)))
    source_x = data.draw(array(rows=rows))
    width = source_x.shape[1] if source_x.ndim > 1 else 1
    target_x = data.draw(array(ndim=st.just(2), width=mostly(width)))
    named = {"source_x": source_x,
             "source_y": data.draw(array(ndim=mostly(1), rows=rows)),
             "source_w": np.abs(data.draw(array(ndim=mostly(1), rows=rows))),
             "target.X": target_x,
             "target.y": data.draw(array(ndim=st.just(1),
                                         rows=st.just(len(target_x))))}
    spoiled = spoil(data.draw, named)
    target = LabeledSample(target_x, named["target.y"])
    malformed = (spoiled is not None or source_x.ndim != 2
                 or named["source_y"].ndim != 1
                 or named["source_w"].ndim != 1
                 or source_x.shape[1] != target_x.shape[1])
    message = value_error(lambda: estimate_y_discrepancy(
        source_x, named["source_y"], named["source_w"], target,
        arch=ArchSpec((2,)), config=FitConfig(epochs=1, batch_size=2)))
    assert_outcome(message, malformed, ("source_x", "source_y", "source_w",
                                        "target.X", "target.y"))


@pytest.mark.parametrize("method", sorted(RUNNERS))
@settings(max_examples=25)
@given(data=st.data())
def test_run_method_refuses_a_malformed_sample_by_name(method, data):
    n_source, n_target = data.draw(st.integers(0, 4)), data.draw(
        st.integers(0, 4))
    rows = st.just(n_source + n_target)
    train_x = data.draw(array(ndim=st.just(2), rows=rows))
    width = train_x.shape[1]
    named = {"train.X": train_x,
             "train.y": data.draw(array(ndim=st.just(1), rows=rows))}
    if data.draw(st.booleans()):
        named["validation.X"] = data.draw(array(ndim=st.just(2),
                                                width=mostly(width)))
        named["validation.y"] = data.draw(array(
            ndim=st.just(1), rows=st.just(len(named["validation.X"]))))
    spoiled = spoil(data.draw, named)
    train = TrainingSet(train_x, named["train.y"],
                        np.arange(n_source + n_target) >= n_source)
    validation = None
    malformed = spoiled is not None
    if "validation.X" in named:
        validation = LabeledSample(named["validation.X"],
                                   named["validation.y"])
        malformed |= validation.X.shape[1] != width
    result = run_method(MethodSpec(method, TINY), train, validation, seed=0)
    message = result.error
    if message is not None:
        assert message.startswith("ValueError: "), message
        message = message.removeprefix("ValueError: ")
    assert_outcome(message, malformed,
                   ("train.X", "train.y", "training set", "validation.X",
                    "validation.y", "validation sample"))
