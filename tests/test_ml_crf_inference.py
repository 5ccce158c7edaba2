"""Gold-standard tests for CRF inference.

Forward–backward (the trainer's :class:`PackedEstep`) and Viterbi are
checked against brute-force enumeration over all label sequences — the
strongest possible oracle at small sizes.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ml.crf.inference import PackedEstep, viterbi
from repro.perf.bucketing import PackedLayout


def brute_force_log_z(emissions, transitions, length):
    labels = emissions.shape[1]
    scores = []
    for path in itertools.product(range(labels), repeat=length):
        score = emissions[0, path[0]]
        for t in range(1, length):
            score += transitions[path[t - 1], path[t]]
            score += emissions[t, path[t]]
        scores.append(score)
    peak = max(scores)
    return peak + np.log(sum(np.exp(s - peak) for s in scores))


def brute_force_best_path(emissions, transitions, length):
    labels = emissions.shape[1]
    best_score, best_path = -np.inf, None
    for path in itertools.product(range(labels), repeat=length):
        score = emissions[0, path[0]]
        for t in range(1, length):
            score += transitions[path[t - 1], path[t]]
            score += emissions[t, path[t]]
        if score > best_score:
            best_score, best_path = score, list(path)
    return best_path


def brute_force_marginal(emissions, transitions, length, t, label):
    labels = emissions.shape[1]
    log_z = brute_force_log_z(emissions, transitions, length)
    total = 0.0
    for path in itertools.product(range(labels), repeat=length):
        if path[t] != label:
            continue
        score = emissions[0, path[0]]
        for step in range(1, length):
            score += transitions[path[step - 1], path[step]]
            score += emissions[step, path[step]]
        total += np.exp(score - log_z)
    return total


def _random_case(rng, batch, max_len, labels):
    lengths = rng.integers(1, max_len + 1, size=batch)
    steps = int(lengths.max())
    emissions = rng.normal(size=(batch, steps, labels))
    mask = np.zeros((batch, steps), dtype=bool)
    for b, length in enumerate(lengths):
        mask[b, :length] = True
        emissions[b, length:] = 0.0
    transitions = rng.normal(size=(labels, labels))
    return emissions, mask, transitions, lengths


def _packed_estep(emissions, transitions, lengths):
    """Run :class:`PackedEstep` unweighted over a padded random case.

    Returns ``(log_z, marginals, pair_counts)`` in the case's sentence
    order: (B,) log partitions, (B, T, L) unary marginals (zero at
    padding) and (B, L, L) expected transition counts.
    """
    batch, steps, labels = emissions.shape
    lengths = np.asarray(lengths, dtype=np.int64)
    starts = np.zeros(batch, dtype=np.int64)
    np.cumsum(lengths[:-1], out=starts[1:])
    layout = PackedLayout(lengths)
    flat = layout.flat_rows(starts)
    scores = np.concatenate(
        [emissions[b, :length] for b, length in enumerate(lengths)]
    )
    trans_max = float(transitions.max())
    trans_exp = np.exp(transitions - trans_max)
    estep = PackedEstep(layout, labels, np.ones(layout.rows))
    packed_log_z, packed_marg, seq_trans = estep.run(
        scores[flat], trans_exp, trans_max
    )
    log_z = np.empty(batch)
    log_z[layout.sent_ids] = packed_log_z
    flat_marg = np.empty_like(scores)
    flat_marg[flat] = packed_marg
    marginals = np.zeros_like(emissions)
    for b, length in enumerate(lengths):
        marginals[b, :length] = flat_marg[starts[b]:starts[b] + length]
    pair_counts = np.empty((batch, labels, labels))
    pair_counts[layout.sent_ids] = seq_trans * trans_exp
    return log_z, marginals, pair_counts


@pytest.mark.parametrize("seed", range(5))
def test_log_z_matches_brute_force(seed):
    rng = np.random.default_rng(seed)
    emissions, mask, transitions, lengths = _random_case(rng, 4, 5, 3)
    log_z, _, _ = _packed_estep(emissions, transitions, lengths)
    for b, length in enumerate(lengths):
        expected = brute_force_log_z(
            emissions[b], transitions, int(length)
        )
        assert log_z[b] == pytest.approx(expected, rel=1e-9)


@pytest.mark.parametrize("seed", range(3))
def test_unary_marginals_match_brute_force(seed):
    rng = np.random.default_rng(seed + 100)
    emissions, mask, transitions, lengths = _random_case(rng, 2, 4, 3)
    _, marginals, _ = _packed_estep(emissions, transitions, lengths)
    for b, length in enumerate(lengths):
        for t in range(int(length)):
            for label in range(3):
                expected = brute_force_marginal(
                    emissions[b], transitions, int(length), t, label
                )
                assert marginals[b, t, label] == pytest.approx(
                    expected, abs=1e-9
                )


@pytest.mark.parametrize("seed", range(5))
def test_viterbi_matches_brute_force(seed):
    rng = np.random.default_rng(seed + 200)
    emissions, mask, transitions, lengths = _random_case(rng, 4, 5, 3)
    paths = viterbi(emissions, mask, transitions)
    for b, length in enumerate(lengths):
        expected = brute_force_best_path(
            emissions[b], transitions, int(length)
        )
        assert paths[b] == expected


def test_pairwise_counts_sum_to_transition_count():
    rng = np.random.default_rng(7)
    emissions, mask, transitions, lengths = _random_case(rng, 5, 6, 4)
    _, _, pair_counts = _packed_estep(emissions, transitions, lengths)
    # Each sequence of length L contributes exactly L-1 expected
    # transitions in total probability mass.
    for b, length in enumerate(lengths):
        assert pair_counts[b].sum() == pytest.approx(
            float(length - 1), rel=1e-8
        )


def test_marginals_sum_to_one_at_valid_positions():
    rng = np.random.default_rng(8)
    emissions, mask, transitions, lengths = _random_case(rng, 5, 6, 4)
    _, marginals, _ = _packed_estep(emissions, transitions, lengths)
    for b, length in enumerate(lengths):
        for t in range(int(length)):
            assert marginals[b, t].sum() == pytest.approx(1.0, rel=1e-8)


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=25, deadline=None)
def test_viterbi_path_lengths_match_mask(seed):
    rng = np.random.default_rng(seed)
    emissions, mask, transitions, lengths = _random_case(rng, 3, 7, 3)
    paths = viterbi(emissions, mask, transitions)
    assert [len(path) for path in paths] == [int(l) for l in lengths]


def test_single_token_sequences():
    emissions = np.array([[[1.0, 3.0, 2.0]]])
    mask = np.array([[True]])
    transitions = np.zeros((3, 3))
    log_z, _, _ = _packed_estep(emissions, transitions, [1])
    assert log_z[0] == pytest.approx(
        np.log(np.exp(1) + np.exp(3) + np.exp(2))
    )
    assert viterbi(emissions, mask, transitions) == [[1]]
