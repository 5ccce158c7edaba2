"""The flattened row scatter-add is ``np.add.at``, bit for bit."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.perf.scatter import scatter_add_rows


def _mixed_magnitudes(rng, shape):
    """Values spanning 16 decades, so any reordering of a cell's sum
    shows in the low bits."""
    return rng.standard_normal(shape) * 10.0 ** rng.integers(-8, 8, shape)


@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    rows=st.integers(min_value=1, max_value=4),
    dim=st.integers(min_value=1, max_value=6),
    index_shape=st.one_of(
        st.tuples(st.integers(min_value=0, max_value=64)),
        st.tuples(
            st.integers(min_value=0, max_value=16),
            st.integers(min_value=1, max_value=6),
        ),
    ),
)
@settings(max_examples=200, deadline=None)
def test_matches_np_add_at_bit_for_bit(seed, rows, dim, index_shape):
    rng = np.random.default_rng(seed)
    # At most four rows: every row index repeats many times over.
    indices = rng.integers(0, rows, size=index_shape)
    values = _mixed_magnitudes(rng, index_shape + (dim,))
    start = _mixed_magnitudes(rng, (rows, dim))

    expected = start.copy()
    np.add.at(expected, indices, values)
    actual = start.copy()
    scatter_add_rows(actual, indices, values)

    assert actual.tobytes() == expected.tobytes()


def test_rejects_a_non_contiguous_target():
    table = np.zeros((4, 6))[:, ::2]
    with pytest.raises(ValueError, match="C-contiguous"):
        scatter_add_rows(table, np.array([0, 1]), np.ones((2, 3)))
