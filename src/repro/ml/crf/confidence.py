"""Span confidence from CRF posterior marginals.

The paper's related work (Pasca et al., Gupta & Manning) scores
candidate extractions to fight drift; a linear-chain CRF supports a
principled version for free: the posterior probability of a decoded
span is computable from constrained forward-backward quantities. We
use the cheap, standard approximation — the geometric mean of the
per-token posterior marginals of the span's labels — which is exact
for length-1 spans and a tight lower-bound proxy otherwise.

The marginals are the ones the trainer's E-step computes
(:class:`~repro.ml.crf.inference.PackedEstep`); they can underflow to
exactly 0.0, which scores the span 0.0. Used by
:meth:`repro.ml.crf.model.CrfTagger.tag_with_confidence` and the
confidence-filter extension.
"""

from __future__ import annotations

import numpy as np


def span_confidences(
    marginals: np.ndarray,
    spans: list[tuple[int, int, str]],
    label_index: dict[str, int],
) -> list[float]:
    """Score decoded spans from per-token posterior marginals.

    Args:
        marginals: (T, L) posterior P(y_t = l) for one sentence.
        spans: decoded ``(start, end, attribute)`` spans.
        label_index: label string → column index.

    Returns:
        One confidence in [0, 1] per span: the geometric mean of the
        marginals of the span's B-/I- labels.
    """
    confidences: list[float] = []
    for start, end, attribute in spans:
        probabilities = []
        for position in range(start, end):
            prefix = "B" if position == start else "I"
            label = f"{prefix}-{attribute}"
            column = label_index.get(label)
            if column is None:
                # Label never seen in training (e.g. an I- for a
                # single-token attribute); be conservative.
                probabilities.append(0.0)
                continue
            probabilities.append(float(marginals[position, column]))
        if not probabilities or min(probabilities) <= 0.0:
            confidences.append(0.0)
            continue
        log_mean = float(np.mean(np.log(probabilities)))
        confidences.append(float(np.exp(log_mean)))
    return confidences
