"""Linear-chain Conditional Random Field, built from scratch.

Equivalent to the paper's crfsuite setup: limited-memory BFGS training
with L1+L2 (elastic-net) regularisation and the standard window feature
template from :mod:`repro.ml.features`.

Structure:

* :mod:`inference` — one forward–backward (the packed, scaled
  probability-space E-step that yields log partitions, posterior
  marginals and expected transition counts) and Viterbi decoding;
* :mod:`train` — the regularized negative log-likelihood objective and
  its analytic gradient, minimized with scipy's L-BFGS-B;
* :mod:`model` — the :class:`CrfTagger` facade implementing the
  :class:`~repro.ml.base.SequenceTagger` protocol.
"""

from .model import CrfTagger

__all__ = ["CrfTagger"]
