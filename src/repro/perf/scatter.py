"""Unbuffered row scatter-add through numpy's 1-D ``ufunc.at`` path.

``np.add.at(out, rows, values)`` on a 2-D ``out`` walks one output row
per index through the generic multi-dimensional ``ufunc.at`` loop, which
costs several times more per element than the 1-D loop numpy
specialises. :func:`scatter_add_rows` flattens the update so the 1-D
loop runs instead.

The flattened index list visits the same ``(index, column)`` pairs in
the same C order as the 2-D call, so every output cell receives its
contributions in the same sequence and rounds the same way: the result
is bit-identical to ``np.add.at``. A sorted ``np.add.reduceat`` or a
sparse product would be faster still but sums in a different order,
which changes the low bits.
"""

from __future__ import annotations

import numpy as np


def scatter_add_rows(
    out: np.ndarray, rows: np.ndarray, values: np.ndarray
) -> None:
    """``np.add.at(out, rows, values)`` for a 2-D ``out``, bit for bit.

    Args:
        out: C-contiguous ``(N, D)`` array, updated in place.
        rows: integer row indices of any shape ``S``; repeats
            accumulate in C order, as with ``np.add.at``.
        values: ``S + (D,)`` contributions, one row per index.

    Raises:
        ValueError: when ``out`` is not a C-contiguous 2-D array (its
            flat view would be a copy and the update would be lost).
    """
    if out.ndim != 2 or not out.flags.c_contiguous:
        raise ValueError("scatter_add_rows needs a C-contiguous 2-D array")
    dim = out.shape[1]
    flat = (
        np.asarray(rows).reshape(-1, 1) * dim + np.arange(dim)
    ).ravel()
    np.add.at(out.reshape(-1), flat, np.reshape(values, -1))
