"""Tests for the bucketed trainer rebuild.

Covers the two determinism-critical guarantees of the packed E-step
pipeline — objective/gradient bit-identity for any bucket partition
and trained-weight bit-identity for any bucket partition — plus the
handling of the optimizer's non-success results.
"""

import numpy as np
import pytest
from scipy import sparse

from repro.errors import TrainingError
from repro.ml.crf import train as train_mod
from repro.ml.crf.train import (
    CrfProblem,
    _LBFGS_HISTORY,
    _Workspace,
    _objective,
    train_crf,
)

_UNBUCKETED = 10**9


def _problem_from_lengths(lengths, seed=0, labels=3, features=9):
    """A random CrfProblem with an exact, adversarial length mix."""
    rng = np.random.default_rng(seed)
    lengths = np.asarray(lengths, dtype=np.int64)
    rows = int(lengths.sum())
    indices = []
    indptr = [0]
    for _ in range(rows):
        indices.extend(rng.choice(features, size=2, replace=False))
        indptr.append(len(indices))
    design = sparse.csr_matrix(
        (np.ones(len(indices)), np.array(indices), np.array(indptr)),
        shape=(rows, features),
    )
    gold = rng.integers(0, labels, size=rows)
    return CrfProblem(design, gold, lengths, labels)


# Adversarial length mixes for the bucket partitioner: uniform
# minimal sentences, one long outlier among many shorts, and a
# dataset of a single sentence.
LENGTH_MIXES = {
    "all_length_one": [1] * 14,
    "long_outlier": [2, 3, 2, 2, 3, 2, 31, 2, 3, 2],
    "single_sentence": [7],
}


@pytest.mark.parametrize("mix", sorted(LENGTH_MIXES))
@pytest.mark.parametrize("batch_size", [8, 1])
def test_objective_bit_identical_across_buckets(mix, batch_size):
    problem = _problem_from_lengths(LENGTH_MIXES[mix], seed=2)
    n_params = (
        problem.design.shape[1] * problem.n_labels + problem.n_labels ** 2
    )
    weights = np.random.default_rng(7).normal(scale=0.4, size=n_params)
    value_mono, grad_mono = _objective(
        weights, _Workspace(problem, batch_size=_UNBUCKETED), 0.05, 0.05
    )
    grad_mono = grad_mono.copy()
    value, grad = _objective(
        weights, _Workspace(problem, batch_size=batch_size), 0.05, 0.05
    )
    assert value == value_mono
    assert np.array_equal(grad, grad_mono)


@pytest.mark.parametrize("mix", sorted(LENGTH_MIXES))
def test_trained_weights_bit_identical_across_buckets(mix):
    problem = _problem_from_lengths(LENGTH_MIXES[mix], seed=3)
    unary_mono, trans_mono = train_crf(
        problem, 0.05, 0.05, 25, batch_size=_UNBUCKETED
    )
    unary, trans = train_crf(problem, 0.05, 0.05, 25, batch_size=4)
    assert np.array_equal(unary, unary_mono)
    assert np.array_equal(trans, trans_mono)


def test_train_crf_makes_one_lbfgsb_call(monkeypatch):
    """One optimizer call: scipy's public L-BFGS-B, crfsuite's m=6."""
    real = train_mod.optimize.minimize
    calls = []

    def spy(*args, **kwargs):
        calls.append(kwargs)
        return real(*args, **kwargs)

    monkeypatch.setattr(train_mod.optimize, "minimize", spy)
    problem = _problem_from_lengths([3, 5, 2, 4, 1, 5], seed=4)
    train_crf(problem, 0.05, 0.05, 30)
    assert len(calls) == 1
    assert calls[0]["method"] == "L-BFGS-B"
    assert calls[0]["jac"] is True
    assert calls[0]["options"] == {
        "maxiter": 30, "maxcor": _LBFGS_HISTORY,
    }


class _FakeResult:
    def __init__(self, message):
        self.success = False
        self.message = message
        self.x = np.arange(4.0)


def test_lnsrch_abort_degrades_to_warning(monkeypatch):
    problem = _problem_from_lengths([2, 3], seed=5, labels=1, features=3)
    monkeypatch.setattr(
        train_mod.optimize,
        "minimize",
        lambda *a, **k: _FakeResult("ABNORMAL_TERMINATION_IN_LNSRCH"),
    )
    diagnostics = {}
    unary, trans = train_crf(
        problem, 0.05, 0.05, 10, diagnostics=diagnostics
    )
    # Best-so-far weights are kept, and the abort is counted.
    assert np.array_equal(
        np.concatenate([unary.ravel(), trans.ravel()]), np.arange(4.0)
    )
    assert diagnostics == {"lbfgs_abnormal": 1}


def test_fatal_optimizer_failure_still_raises(monkeypatch):
    problem = _problem_from_lengths([2, 3], seed=5, labels=1, features=3)
    monkeypatch.setattr(
        train_mod.optimize,
        "minimize",
        lambda *a, **k: _FakeResult("ROUNDING ERRORS PREVENT PROGRESS"),
    )
    with pytest.raises(TrainingError):
        train_crf(problem, 0.05, 0.05, 10)


def test_iteration_cap_is_not_a_failure(monkeypatch):
    problem = _problem_from_lengths([2, 3], seed=5, labels=1, features=3)
    monkeypatch.setattr(
        train_mod.optimize,
        "minimize",
        lambda *a, **k: _FakeResult(
            "STOP: TOTAL NO. OF ITERATIONS REACHED LIMIT"
        ),
    )
    diagnostics = {}
    train_crf(problem, 0.05, 0.05, 10, diagnostics=diagnostics)
    assert diagnostics == {}

