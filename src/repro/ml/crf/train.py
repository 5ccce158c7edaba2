"""CRF training: regularized NLL minimized with exact L-BFGS.

The parameter vector packs the unary weight matrix W (n_features × L)
followed by the transition matrix A (L × L). The objective is

    sum_i [ log Z(x_i) - score(x_i, y_i) ]
    + l1 * Σ sqrt(w² + ε)          (smoothed L1; scipy's L-BFGS-B
                                    needs a differentiable objective,
                                    unlike crfsuite's OWL-QN)
    + l2 * Σ w²

with the analytic gradient (expected minus empirical feature counts).

Hot-path layout. The old workspace padded every sentence to the single
global ``max_len``, so each objective call paid ``B × T_max × L`` on a
batch that was mostly padding. ``_Workspace`` now

* collapses byte-identical ``(features, labels)`` sentences into one
  weighted representative (bootstrap corpora repeat titles heavily —
  typically 30–50% of sentences are duplicates),
* partitions the unique sentences into length buckets
  (:func:`~repro.perf.bucketing.length_buckets`) and lays each bucket
  out packed time-major (:class:`~repro.perf.bucketing.PackedLayout`)
  — zero padding, contiguous prefix slices per recursion step,
* runs the E-step serially per bucket through
  :class:`~repro.ml.crf.inference.PackedEstep` (scaled probability
  space, per-bucket scratch buffers).

Determinism contract: every per-sentence quantity is computed
independently of bucket composition, and all cross-sentence
reductions happen in one canonical order — sentence-major scatter of
the unique sentences, then a single sparse matmul / sum. The exact
L-BFGS path is therefore bit-identical for any ``batch_size``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import optimize, sparse

from ...errors import TrainingError
from ...perf.bucketing import PackedLayout, length_buckets
from .inference import InferenceScratch, PackedEstep

_L1_EPSILON = 1e-8

#: Unique sentences per E-step bucket. Large enough that realistic
#: bootstrap problems form a single near-rectangular bucket; any value
#: is output-identical for the exact trainer (see module docstring).
DEFAULT_TRAIN_BATCH = 512

#: liblbfgs (and hence crfsuite) keeps m=6 correction pairs; scipy's
#: default is 10. Matching the reference implementation also shaves
#: measurable driver time per iteration.
_LBFGS_HISTORY = 6


@dataclass(frozen=True)
class CrfProblem:
    """A fully vectorized training problem.

    Attributes:
        design: CSR matrix (total_positions × n_features); rows are all
            sentence positions, sentence-major.
        labels: flat gold label indices aligned with design rows.
        lengths: tokens per sentence.
        n_labels: size of the label inventory.
    """

    design: sparse.csr_matrix
    labels: np.ndarray
    lengths: np.ndarray
    n_labels: int

    def __post_init__(self) -> None:
        if self.design.shape[0] != self.labels.shape[0]:
            raise TrainingError("design rows and labels misaligned")
        if int(self.lengths.sum()) != self.design.shape[0]:
            raise TrainingError("lengths do not sum to design rows")
        if (self.lengths < 1).any():
            raise TrainingError("empty sentences are not trainable")


class _Bucket:
    """One packed length bucket plus its E-step kernel."""

    __slots__ = ("layout", "flat", "design_pk", "estep", "sent_ids")

    def __init__(self, layout, flat, design_pk, estep):
        self.layout = layout
        self.flat = flat
        self.design_pk = design_pk
        self.estep = estep
        self.sent_ids = layout.sent_ids

    def run(self, unary, trans_exp, trans_max):
        scores = self.design_pk @ unary
        return self.estep.run(scores, trans_exp, trans_max)


class _Workspace:
    """Deduplicated, bucketed problem state reused every objective call."""

    def __init__(self, problem: CrfProblem, batch_size: int | None = None):
        self.problem = problem
        # Read at call time so tests can patch the module constant.
        batch_size = batch_size or DEFAULT_TRAIN_BATCH
        design = problem.design
        labels = problem.labels
        lengths = np.asarray(problem.lengths, dtype=np.int64)
        n_labels = problem.n_labels
        self.n_labels = n_labels
        self.n_features = design.shape[1]
        self.n_params = self.n_features * n_labels + n_labels * n_labels
        batch = len(lengths)
        starts_full = np.zeros(batch, dtype=np.int64)
        np.cumsum(lengths[:-1], out=starts_full[1:])

        # ---- deduplicate byte-identical (features, labels) sentences ----
        indptr = design.indptr
        seen: dict[tuple, int] = {}
        unique_sentences: list[int] = []
        multiplicity: list[float] = []
        for b in range(batch):
            row0 = int(starts_full[b])
            row1 = row0 + int(lengths[b])
            key = (
                int(lengths[b]),
                labels[row0:row1].tobytes(),
                design.indices[indptr[row0]:indptr[row1]].tobytes(),
                design.data[indptr[row0]:indptr[row1]].tobytes(),
            )
            slot = seen.get(key)
            if slot is None:
                seen[key] = len(unique_sentences)
                unique_sentences.append(b)
                multiplicity.append(1.0)
            else:
                multiplicity[slot] += 1.0
        unique = np.asarray(unique_sentences, dtype=np.int64)
        self.w = np.asarray(multiplicity, dtype=np.float64)
        self.lens_u = lengths[unique]
        self.n_unique = len(unique)
        unique_rows = np.concatenate(
            [
                np.arange(starts_full[b], starts_full[b] + lengths[b])
                for b in unique
            ]
        )
        design_u = design[unique_rows].tocsr()
        self.rows_u = len(unique_rows)
        self.starts_u = np.zeros(self.n_unique, dtype=np.int64)
        np.cumsum(self.lens_u[:-1], out=self.starts_u[1:])
        w_row = np.repeat(self.w, self.lens_u)

        # ---- empirical counts on the FULL original data (constants) ----
        rows = design.shape[0]
        one_hot = sparse.csr_matrix(
            (np.ones(rows), (np.arange(rows), labels)),
            shape=(rows, n_labels),
        )
        self.empirical_unary = (design.T @ one_hot).toarray()
        self.empirical_trans = np.zeros(
            (n_labels, n_labels), dtype=np.float64
        )
        offset = 0
        for length in lengths:
            length = int(length)
            gold = labels[offset:offset + length]
            np.add.at(self.empirical_trans, (gold[:-1], gold[1:]), 1.0)
            offset += length

        # ---- packed buckets over the unique sentences ----
        self.buckets: list[_Bucket] = []
        for indices in length_buckets(
            [int(v) for v in self.lens_u], batch_size
        ):
            layout = PackedLayout(self.lens_u, indices)
            flat = layout.flat_rows(self.starts_u)
            self.buckets.append(
                _Bucket(
                    layout,
                    flat,
                    design_u[flat].tocsr(),
                    PackedEstep(
                        layout, n_labels, w_row[flat],
                        scratch=InferenceScratch(),
                    ),
                )
            )
        self.design_u_t = design_u.T.tocsr()

        # ---- canonical (bucket-order-independent) accumulators ----
        self.expected_flat = np.empty((self.rows_u, n_labels))
        self.seq_trans = np.empty((self.n_unique, n_labels, n_labels))
        self.log_z = np.empty(self.n_unique)
        self.trans_exp = np.empty((n_labels, n_labels))
        # Canonical cross-sentence transition reduction as one
        # fixed-shape GEMV (ones @ seq_trans): the canonical array is
        # identical whatever the bucketing, so one fixed BLAS reduction
        # over it keeps the bucket-invariance guarantee.
        self._ones_u = np.ones(self.n_unique)
        self._seq_trans_2d = self.seq_trans.reshape(
            self.n_unique, n_labels * n_labels
        )
        self.expected_trans = np.empty(n_labels * n_labels)
        self.grad = np.empty(self.n_params)
        self._reg1 = np.empty(self.n_params)
        self._reg2 = np.empty(self.n_params)

    def estep(self, unary, trans_exp, trans_max):
        """Per-bucket E-step results, in bucket order."""
        return [
            bucket.run(unary, trans_exp, trans_max)
            for bucket in self.buckets
        ]


def _unpack(
    weights: np.ndarray, n_features: int, n_labels: int
) -> tuple[np.ndarray, np.ndarray]:
    unary = weights[: n_features * n_labels].reshape(n_features, n_labels)
    transitions = weights[n_features * n_labels:].reshape(
        n_labels, n_labels
    )
    return unary, transitions


def _objective(
    weights: np.ndarray,
    workspace: _Workspace,
    l1: float,
    l2: float,
) -> tuple[float, np.ndarray]:
    """Regularized NLL and gradient over all buckets (exact)."""
    n_features = workspace.n_features
    n_labels = workspace.n_labels
    unary, transitions = _unpack(weights, n_features, n_labels)
    trans_max = float(transitions.max())
    trans_exp = workspace.trans_exp
    np.subtract(transitions, trans_max, out=trans_exp)
    np.exp(trans_exp, out=trans_exp)

    # Scatter every bucket's per-sentence results into sentence-major
    # canonical arrays; the scatter targets are disjoint, so bucket
    # partitioning cannot reorder anything.
    results = workspace.estep(unary, trans_exp, trans_max)
    for bucket, (log_z, marginals, seq_trans) in zip(
        workspace.buckets, results
    ):
        workspace.log_z[bucket.sent_ids] = log_z
        workspace.expected_flat[bucket.flat] = marginals
        workspace.seq_trans[bucket.sent_ids] = seq_trans

    grad = workspace.grad
    grad_unary = grad[: n_features * n_labels].reshape(
        n_features, n_labels
    )
    grad_unary[:] = workspace.design_u_t @ workspace.expected_flat
    grad_unary -= workspace.empirical_unary
    grad_trans = grad[n_features * n_labels:].reshape(n_labels, n_labels)
    np.matmul(
        workspace._ones_u,
        workspace._seq_trans_2d,
        out=workspace.expected_trans,
    )
    expected_trans = workspace.expected_trans.reshape(n_labels, n_labels)
    expected_trans *= trans_exp
    np.subtract(
        expected_trans, workspace.empirical_trans, out=grad_trans
    )

    # gold score via the constant empirical counts — exactly the
    # gradient's empirical term, so value and gradient stay consistent.
    gold = float(np.vdot(unary, workspace.empirical_unary)) + float(
        np.vdot(transitions, workspace.empirical_trans)
    )
    nll = float(np.dot(workspace.log_z, workspace.w)) - gold

    if l2:
        nll += float(l2 * (weights @ weights))
        np.multiply(weights, 2.0 * l2, out=workspace._reg2)
        grad += workspace._reg2
    if l1:
        smooth = workspace._reg1
        np.multiply(weights, weights, out=smooth)
        smooth += _L1_EPSILON
        np.sqrt(smooth, out=smooth)
        nll += float(l1 * smooth.sum())
        np.divide(weights, smooth, out=smooth)
        smooth *= l1
        grad += smooth
    return nll, grad


def _minimize_lbfgs_direct(
    x0: np.ndarray,
    workspace: _Workspace,
    l1: float,
    l2: float,
    maxiter: int,
    maxcor: int,
):
    """Drive the L-BFGS-B Fortran core (``setulb``) directly.

    ``scipy.optimize.minimize`` spends a measurable fraction of every
    evaluation in Python bookkeeping (ScalarFunction construction,
    memoized fun/grad plumbing, per-call array revalidation) — real
    money here because the bucketed objective itself is ~2ms. This
    replays the exact unbounded, jac=True call sequence scipy's
    ``_minimize_lbfgsb`` makes into ``setulb``, so the iterates, the
    stopping decisions and the final weights are identical to the
    public API; only the per-eval Python overhead is gone.

    Returns None when the private interface does not match this scipy
    version (the caller then falls back to ``optimize.minimize``).
    """
    try:
        from scipy.optimize import _lbfgsb
        from scipy.optimize._lbfgsb_py import (
            status_messages,
            task_messages,
        )
    except ImportError:  # pragma: no cover - scipy layout drift
        return None
    n = x0.shape[0]
    m = maxcor
    # scipy's defaults: ftol=2.220446049250313e-09 (factr=1e7), the
    # same pgtol/maxls _minimize_lbfgsb uses.
    factr = 2.2204460492503131e-09 / np.finfo(float).eps
    pgtol = 1e-5
    maxls = 20
    maxfun = 15000
    nbd = np.zeros(n, dtype=np.int32)
    low_bnd = np.zeros(n, dtype=np.float64)
    upper_bnd = np.zeros(n, dtype=np.float64)
    x = np.array(x0, dtype=np.float64)
    f = np.array(0.0, dtype=np.float64)
    g = np.zeros(n, dtype=np.float64)
    wa = np.zeros(2 * m * n + 5 * n + 11 * m * m + 8 * m)
    iwa = np.zeros(3 * n, dtype=np.int32)
    task = np.zeros(2, dtype=np.int32)
    ln_task = np.zeros(2, dtype=np.int32)
    lsave = np.zeros(4, dtype=np.int32)
    isave = np.zeros(44, dtype=np.int32)
    dsave = np.zeros(29, dtype=np.float64)
    nfev = 0
    n_iterations = 0
    while True:
        # Fresh copy each round, exactly as scipy's loop does — the
        # objective hands back a reused gradient buffer.
        g = g.astype(np.float64)
        try:
            _lbfgsb.setulb(
                m, x, low_bnd, upper_bnd, nbd, f, g, factr, pgtol,
                wa, iwa, task, lsave, isave, dsave, maxls, ln_task,
            )
        except (TypeError, ValueError):  # pragma: no cover - API drift
            return None
        if task[0] == 3:  # FG: wants f and g at the current x
            f, g = _objective(x, workspace, l1, l2)
            nfev += 1
        elif task[0] == 1:  # NEW_X: one iteration completed
            n_iterations += 1
            if n_iterations >= maxiter:
                task[0] = 5
                task[1] = 504
            elif nfev > maxfun:
                task[0] = 5
                task[1] = 502
        else:
            break
    if task[0] == 4:  # CONVERGENCE
        warnflag = 0
    elif nfev > maxfun or n_iterations >= maxiter:
        warnflag = 1
    else:
        warnflag = 2
    message = (
        status_messages.get(int(task[0]), "UNKNOWN")
        + ": "
        + task_messages.get(int(task[1]), "")
    )
    return optimize.OptimizeResult(
        fun=float(f), nfev=nfev, nit=n_iterations, status=warnflag,
        message=message, x=x, success=(warnflag == 0),
    )


def train_crf(
    problem: CrfProblem,
    l1: float,
    l2: float,
    max_iterations: int,
    *,
    batch_size: int | None = None,
    diagnostics: dict | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Fit CRF weights by exact L-BFGS.

    Args:
        problem: the vectorized training problem.
        l1: smoothed-L1 strength.
        l2: L2 strength.
        max_iterations: L-BFGS iteration cap.
        batch_size: unique sentences per E-step bucket (default
            :data:`DEFAULT_TRAIN_BATCH`); output-identical for any
            value, so it is a test seam, not a tuning knob.
        diagnostics: optional dict that receives counted training
            warnings (e.g. ``"lbfgs_abnormal"`` when a line-search
            abort was degraded to best-so-far weights).

    Returns:
        ``(unary_weights, transition_weights)`` with shapes
        (n_features, L) and (L, L).

    Raises:
        TrainingError: if the optimizer reports a failure other than
            hitting the iteration cap or a line-search abort (which
            keeps the best-so-far weights and counts a warning
            instead).
    """
    workspace = _Workspace(problem, batch_size=batch_size)
    start = np.zeros(workspace.n_params, dtype=np.float64)
    result = _minimize_lbfgs_direct(
        start, workspace, l1, l2, max_iterations, _LBFGS_HISTORY
    )
    if result is None:  # private scipy interface didn't match
        result = optimize.minimize(
            _objective,
            start,
            args=(workspace, l1, l2),
            method="L-BFGS-B",
            jac=True,
            options={
                "maxiter": max_iterations,
                "maxcor": _LBFGS_HISTORY,
            },
        )
    if not result.success:
        message = str(result.message).upper()
        if "ITERATIONS" in message:
            pass  # hit the cap — expected under tight budgets
        elif "ABNORMAL" in message or "LNSRCH" in message:
            # Line-search abort (plausible with the smoothed-L1
            # objective near a kink): result.x still holds the best
            # point visited — keep it, count a warning, carry on.
            if diagnostics is not None:
                diagnostics["lbfgs_abnormal"] = (
                    diagnostics.get("lbfgs_abnormal", 0) + 1
                )
        else:
            raise TrainingError(f"L-BFGS failed: {result.message}")
    return _unpack(result.x, problem.design.shape[1], problem.n_labels)
