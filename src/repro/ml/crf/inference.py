"""Batched log-space inference for the linear-chain CRF.

All routines operate on a padded batch:

* ``emissions``: float array (B, T, L) — unary scores, zero at padding;
* ``mask``: bool array (B, T) — True at real tokens (row-prefix form);
* ``transitions``: float array (L, L) — score of label j following i.

The forward/backward recursions use the carry trick at padded steps
(alpha is propagated unchanged), so ``alpha[:, -1]`` always holds the
value at each sequence's last real token.

Hot-path note: every recursion step needs a ``(B, L, L)`` score block;
allocating one (plus an ``exp`` temporary) per step dominated L-BFGS
wall-clock. The routines now write into preallocated scratch buffers
(:class:`InferenceScratch`) shared across steps and across objective
calls. The *sequence of floating-point operations is unchanged* —
identical elementwise ops on identically-shaped arrays, identical
reduction axes — so results are bit-for-bit equal to the allocating
implementation; only the memory traffic differs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class InferenceScratch:
    """Reusable named scratch buffers, keyed by shape.

    One instance per training workspace or tagger; a buffer is
    reallocated only when the requested shape changes (e.g. a new
    length bucket). Not thread-safe — share across sequential calls
    only.
    """

    __slots__ = ("_buffers",)

    def __init__(self) -> None:
        self._buffers: dict[str, np.ndarray] = {}

    def buffer(
        self, name: str, shape: tuple, dtype=np.float64
    ) -> np.ndarray:
        buf = self._buffers.get(name)
        if buf is None or buf.shape != shape or buf.dtype != dtype:
            buf = np.empty(shape, dtype=dtype)
            self._buffers[name] = buf
        return buf


class PackedEstep:
    """Scaled-probability forward/backward over one packed bucket.

    The training E-step for a :class:`~repro.perf.bucketing.PackedLayout`
    bucket: forward/backward recursions in *probability space* with
    per-row normalization (the classic scaling trick), log-scales
    accumulated separately, and per-sentence expected transition
    counts via one batched matrix product per equal-length group.

    Determinism contract: every per-sentence quantity this class
    produces depends only on that sentence's own rows — the recursions
    use batched ``(1, L) @ (L, L)`` matmuls (one independent
    fixed-shape product per row, bit-identical for any batch slice or
    memory offset) and per-row ``np.einsum`` reductions, and the
    per-sentence transition products have fixed per-sentence shapes —
    so results are bit-identical no matter how sentences are
    partitioned into buckets.
    Cross-sentence reductions are left to the caller, which must
    perform them in a canonical order.

    All buffers live in a per-bucket :class:`InferenceScratch` and the
    per-step slice views are prebuilt once, so an objective call is a
    straight sequence of C-level array ops.
    """

    def __init__(self, layout, n_labels, row_scale, scratch=None):
        """Bind buffers and per-step views for one bucket.

        Args:
            layout: the bucket's :class:`PackedLayout`.
            n_labels: label inventory size ``L``.
            row_scale: per-packed-row weight folded into the returned
                marginals and transition counts (sentence
                multiplicities from deduplication; pass ones for
                unweighted counts).
            scratch: per-bucket buffer pool (fresh one when omitted).
        """
        self.layout = layout
        self.n_labels = n_labels
        self.scratch = scratch if scratch is not None else InferenceScratch()
        labels = n_labels
        rows = layout.rows
        steps = layout.max_len
        n_sent = layout.n_sent
        buf = self.scratch.buffer
        self.alpha = buf("alpha", (rows, labels))
        self.beta = buf("beta", (rows, labels))
        self.emit = buf("emit", (rows, labels))
        # Forward/backward per-row normalizers. The backward pass never
        # writes the t=0 rows of `norm_b`; ones keep the full-array log
        # finite (the values are unused).
        self.norm_f = buf("norm_f", (rows,))
        self.norm_f.fill(1.0)
        self.norm_b = buf("norm_b", (rows,))
        self.norm_b.fill(1.0)
        self.scale_f = buf("scale_f", (rows,))
        self.scale_b = buf("scale_b", (rows,))
        self.cum_f = buf("cum_f", (rows,))
        self.cum_b = buf("cum_b", (rows,))
        self.max_adj = buf("max_adj", (rows,))
        self.factor = buf("factor", (rows,))
        self.wfactor = buf("wfactor", (rows,))
        self.log_z_row = buf("log_z_row", (rows,))
        self.marg = buf("marg", (rows, labels))
        self.log_z = buf("log_z", (n_sent,))
        self.prev_cum = buf("prev_cum", (rows - layout.o1,))
        grid_steps = max(steps - 1, 1)
        self.u_grid = buf("u_grid", (n_sent, grid_steps, labels))
        self.v_grid = buf("v_grid", (n_sent, grid_steps, labels))
        self.u_grid.fill(0.0)
        self.v_grid.fill(0.0)
        self.seq_trans = buf("seq_trans", (n_sent, labels, labels))
        self.trans_exp_t = buf("trans_exp_t", (labels, labels))
        self._inv_labels = 1.0 / labels
        self._log_labels = float(np.log(labels))
        self.row_scale = np.ascontiguousarray(row_scale, dtype=np.float64)
        self.row_scale_tail = self.row_scale[layout.o1:]
        # Tail views for the pairwise weight factor (t >= 1 rows).
        self.cum_b_tail = self.cum_b[layout.o1:]
        self.max_adj_tail = self.max_adj[layout.o1:]
        self.log_z_row_tail = self.log_z_row[layout.o1:]
        self.wfactor_tail = self.wfactor[layout.o1:]

        # ---- prebuilt per-step views (plain-int slicing, done once).
        # The recursion steps carry both the 2D row-block views and
        # their (n, 1, L) reshapes so `run` can hand them straight to
        # the batched matmul without per-call slicing.
        counts, offsets = layout.counts, layout.offsets
        n0 = counts[0]
        self.head = (
            self.alpha[:n0], self.emit[:n0],
            self.norm_f[:n0], self.norm_f[:n0, None],
            self.scale_f[:n0], self.cum_f[:n0],
        )
        self.fwd_steps = []
        self.fwd_accum = []
        self.pair_steps = []
        for t in range(1, steps):
            count = counts[t]
            offset = offsets[t]
            prev_offset = offsets[t - 1]
            cur = self.alpha[offset:offset + count]
            prev = self.alpha[prev_offset:prev_offset + count]
            self.fwd_steps.append((
                cur,
                cur[:, None, :],
                prev[:, None, :],
                self.emit[offset:offset + count],
                self.norm_f[offset:offset + count],
                self.norm_f[offset:offset + count, None],
            ))
            self.fwd_accum.append((
                self.cum_f[prev_offset:prev_offset + count],
                self.scale_f[offset:offset + count],
                self.cum_f[offset:offset + count],
            ))
            self.pair_steps.append((
                prev,
                self.wfactor[offset:offset + count, None],
                self.u_grid[:count, t - 1],
            ))
        self.bwd_steps = []
        self.bwd_accum = []
        for t in range(steps - 1, -1, -1):
            nxt = counts[t + 1] if t + 1 < steps else 0
            if not nxt:
                # Rows ending at t take the uniform tail value from the
                # whole-buffer fills in `run`; nothing to recurse.
                continue
            offset = offsets[t]
            nxt_offset = offsets[t + 1]
            v_rows = self.v_grid[:nxt, t]
            cur = self.beta[offset:offset + nxt]
            self.bwd_steps.append((
                self.emit[nxt_offset:nxt_offset + nxt],
                self.beta[nxt_offset:nxt_offset + nxt],
                v_rows,
                v_rows[:, None, :],
                cur,
                cur[:, None, :],
                self.norm_b[nxt_offset:nxt_offset + nxt],
                self.norm_b[nxt_offset:nxt_offset + nxt, None],
            ))
            self.bwd_accum.append((
                self.cum_b[nxt_offset:nxt_offset + nxt],
                self.scale_b[nxt_offset:nxt_offset + nxt],
                self.cum_b[offset:offset + nxt],
            ))
        self.trans_groups = []
        for rank_start, rank_end, length in layout.groups:
            out = self.seq_trans[rank_start:rank_end]
            if length == 1:
                self.trans_groups.append((None, None, out))
            else:
                self.trans_groups.append((
                    self.u_grid[rank_start:rank_end, :length - 1]
                    .transpose(0, 2, 1),
                    self.v_grid[rank_start:rank_end, :length - 1],
                    out,
                ))

    def run(self, scores, trans_exp, trans_max):
        """One weighted E-step over the bucket.

        Args:
            scores: (rows, L) packed-row emission scores.
            trans_exp: ``exp(transitions - trans_max)`` (L, L).
            trans_max: the transition-score maximum used above.

        Returns:
            ``(log_z, marginals, seq_trans)`` — per-rank log
            partitions (unweighted), per-row weighted unary posterior
            marginals, and per-rank weighted expected transition-count
            matrices *before* the ``trans_exp`` rescale (the caller
            multiplies after its canonical cross-sentence sum).
        """
        layout = self.layout
        steps = layout.max_len
        emit = self.emit
        scores.max(axis=1, out=self.max_adj)
        np.subtract(scores, self.max_adj[:, None], out=emit)
        np.exp(emit, out=emit)
        # One transition max-shift per recursion step (t >= 1 rows).
        max_adj = self.max_adj
        if trans_max:
            max_adj += np.multiply(layout.tmask, trans_max, out=self.factor)
        trans_exp_t = self.trans_exp_t
        np.copyto(trans_exp_t, trans_exp.T)

        # ---- forward: normalized probabilities, deferred log-scales ----
        head_alpha, head_emit, head_norm, head_norm_col, _, _ = self.head
        np.copyto(head_alpha, head_emit)
        np.einsum("bi->b", head_alpha, out=head_norm)
        head_alpha /= head_norm_col
        for cur, cur3, prev3, emit_t, norm, norm_col in self.fwd_steps:
            np.matmul(prev3, trans_exp, out=cur3)
            cur *= emit_t
            np.einsum("bi->b", cur, out=norm)
            cur /= norm_col
        scale_f = self.scale_f
        np.log(self.norm_f, out=scale_f)
        scale_f += max_adj
        np.copyto(self.head[5], self.head[4])
        for prev_cum, scale, cum in self.fwd_accum:
            np.add(prev_cum, scale, out=cum)
        np.take(self.cum_f, layout.last, out=self.log_z)

        # ---- backward. Rows that end a sentence take the uniform
        # 1/L tail value; one whole-buffer fill covers them all, and
        # the descending recursion overwrites every interior row
        # before reading it.
        self.beta.fill(self._inv_labels)
        for (emit_next, beta_next, v_rows, v3, cur, cur3,
                norm, norm_col) in self.bwd_steps:
            np.multiply(emit_next, beta_next, out=v_rows)
            np.matmul(v3, trans_exp_t, out=cur3)
            np.einsum("bi->b", cur, out=norm)
            cur /= norm_col
        scale_b = self.scale_b
        np.log(self.norm_b, out=scale_b)
        scale_b += max_adj
        self.cum_b.fill(self._log_labels)
        for cum_next, scale_next, cum_out in self.bwd_accum:
            np.add(cum_next, scale_next, out=cum_out)

        # ---- weighted unary marginals ----
        log_z_row = self.log_z_row
        np.take(self.log_z, layout.rank_of_row, out=log_z_row)
        factor = self.factor
        np.add(self.cum_f, self.cum_b, out=factor)
        factor -= log_z_row
        np.exp(factor, out=factor)
        factor *= self.row_scale
        marg = self.marg
        np.multiply(self.alpha, self.beta, out=marg)
        marg *= factor[:, None]

        # ---- weighted per-sentence expected transition counts ----
        if steps > 1:
            wfactor = self.wfactor_tail
            np.take(self.cum_f, layout.prev, out=self.prev_cum)
            np.add(self.prev_cum, self.cum_b_tail, out=wfactor)
            wfactor += self.max_adj_tail
            wfactor -= self.log_z_row_tail
            np.exp(wfactor, out=wfactor)
            wfactor *= self.row_scale_tail
            for prev_alpha, wcol, u_rows in self.pair_steps:
                np.multiply(prev_alpha, wcol, out=u_rows)
            for u_group, v_group, out in self.trans_groups:
                if u_group is None:
                    out[...] = 0.0
                else:
                    np.matmul(u_group, v_group, out=out)
        else:
            self.seq_trans[...] = 0.0
        return self.log_z, marg, self.seq_trans


def _logsumexp(
    values: np.ndarray, axis: int, work: np.ndarray | None = None
) -> np.ndarray:
    """Stabilized log-sum-exp along ``axis``.

    ``work`` (same shape as ``values``) receives the shifted
    exponentials, avoiding a fresh temporary per call; passing
    ``values`` itself is allowed and destroys it.
    """
    peak = values.max(axis=axis, keepdims=True)
    peak = np.where(np.isfinite(peak), peak, 0.0)
    if work is None:
        work = np.empty_like(values)
    np.subtract(values, peak, out=work)
    np.exp(work, out=work)
    total = work.sum(axis=axis)
    np.log(total, out=total)
    total += np.squeeze(peak, axis=axis)
    return total


@dataclass(frozen=True)
class ForwardBackward:
    """Cached quantities from one forward/backward pass.

    Attributes:
        log_alpha: (B, T, L) forward messages.
        log_beta: (B, T, L) backward messages.
        log_z: (B,) log partition per sequence.
    """

    log_alpha: np.ndarray
    log_beta: np.ndarray
    log_z: np.ndarray

    def unary_marginals(self) -> np.ndarray:
        """Posterior P(y_t = l) as a (B, T, L) array (junk at padding)."""
        logp = (
            self.log_alpha
            + self.log_beta
            - self.log_z[:, None, None]
        )
        return np.exp(np.clip(logp, -60.0, 0.0))


def forward_backward(
    emissions: np.ndarray,
    mask: np.ndarray,
    transitions: np.ndarray,
    scratch: InferenceScratch | None = None,
) -> ForwardBackward:
    """Run the forward and backward recursions over a padded batch.

    Padded steps are pure carries, so each step computes the ``(B_a,
    L, L)`` score block only for the rows still *active* there (the
    mask is row-prefix form: the active set shrinks monotonically with
    ``t``). Every op on an active row — the broadcast add, the per-row
    log-sum-exp reduction along a label axis — is independent of the
    other rows, so subsetting changes which rows are computed, never
    their values.
    """
    batch, steps, labels = emissions.shape
    scratch = scratch if scratch is not None else InferenceScratch()
    work = scratch.buffer("pair", (batch, labels, labels))
    small = scratch.buffer("unary", (batch, labels))
    log_alpha = np.empty((batch, steps, labels), dtype=np.float64)
    log_alpha[:, 0] = emissions[:, 0]
    for t in range(1, steps):
        active = np.flatnonzero(mask[:, t])
        if active.size == 0:
            log_alpha[:, t:] = log_alpha[:, t - 1][:, None, :]
            break
        if active.size == batch:
            np.add(
                log_alpha[:, t - 1][:, :, None],
                transitions[None, :, :],
                out=work,
            )
            updated = _logsumexp(work, axis=1, work=work)
            updated += emissions[:, t]
            log_alpha[:, t] = updated
            continue
        sub = work[: active.size]
        np.add(
            log_alpha[active, t - 1][:, :, None],
            transitions[None, :, :],
            out=sub,
        )
        updated = _logsumexp(sub, axis=1, work=sub)
        updated += emissions[active, t]
        log_alpha[:, t] = log_alpha[:, t - 1]
        log_alpha[active, t] = updated

    log_beta = np.zeros((batch, steps, labels), dtype=np.float64)
    for t in range(steps - 2, -1, -1):
        active = np.flatnonzero(mask[:, t + 1])
        if active.size == 0:
            continue
        if active.size == batch:
            np.add(emissions[:, t + 1], log_beta[:, t + 1], out=small)
            np.add(transitions[None, :, :], small[:, None, :], out=work)
            updated = _logsumexp(work, axis=2, work=work)
            log_beta[:, t] = updated
            continue
        sub = work[: active.size]
        gathered = emissions[active, t + 1] + log_beta[active, t + 1]
        np.add(transitions[None, :, :], gathered[:, None, :], out=sub)
        updated = _logsumexp(sub, axis=2, work=sub)
        log_beta[:, t] = log_beta[:, t + 1]
        log_beta[active, t] = updated

    log_z = _logsumexp(log_alpha[:, -1], axis=1, work=small)
    return ForwardBackward(log_alpha, log_beta, log_z)


def pairwise_expected_counts(
    fb: ForwardBackward,
    emissions: np.ndarray,
    mask: np.ndarray,
    transitions: np.ndarray,
    scratch: InferenceScratch | None = None,
) -> np.ndarray:
    """Sum of posterior pairwise marginals, an (L, L) matrix.

    Accumulated over every *valid* transition (t-1 → t where token t is
    real) of every sequence — this is the model-expectation term of the
    transition gradient.
    """
    labels = transitions.shape[0]
    batch, steps, _ = emissions.shape
    scratch = scratch if scratch is not None else InferenceScratch()
    # `pair` keeps the full (B, L, L) block whose axis-0 sum feeds the
    # accumulator — the cross-row reduction must keep its exact shape
    # (and hence summation tree) for bitwise reproducibility. The
    # per-row probability terms are computed in `pair_sub` for the
    # valid rows only and scattered in; rows that fall out of the
    # valid set are zeroed once (the set only shrinks with t) exactly
    # as the masked assignment zeroed them every step.
    work = scratch.buffer("pair", (batch, labels, labels))
    sub_full = scratch.buffer("pair_sub", (batch, labels, labels))
    expected = np.zeros((labels, labels), dtype=np.float64)
    previously_valid = np.ones(batch, dtype=bool)
    for t in range(1, steps):
        valid = mask[:, t]
        active = np.flatnonzero(valid)
        if active.size == 0:
            break
        newly_invalid = previously_valid & ~valid
        if newly_invalid.any():
            work[newly_invalid] = 0.0
        previously_valid = valid
        if active.size == batch:
            sub = work
            alpha = fb.log_alpha[:, t - 1]
            beta_term = emissions[:, t] + fb.log_beta[:, t]
            log_z = fb.log_z
        else:
            sub = sub_full[: active.size]
            alpha = fb.log_alpha[active, t - 1]
            beta_term = emissions[active, t] + fb.log_beta[active, t]
            log_z = fb.log_z[active]
        # Same left-to-right association as the expression form:
        # ((alpha + A) + (emit + beta)) - log_z.
        np.add(alpha[:, :, None], transitions[None, :, :], out=sub)
        sub += beta_term[:, None, :]
        sub -= log_z[:, None, None]
        np.clip(sub, -60.0, 0.0, out=sub)
        np.exp(sub, out=sub)
        if sub is not work:
            work[active] = sub
        expected += work.sum(axis=0)
    return expected


def viterbi(
    emissions: np.ndarray,
    mask: np.ndarray,
    transitions: np.ndarray,
    scratch: InferenceScratch | None = None,
) -> list[list[int]]:
    """Best label sequence per batch element.

    Returns:
        A list of per-sequence label-index lists, each trimmed to the
        sequence's real length.
    """
    batch, steps, labels = emissions.shape
    scratch = scratch if scratch is not None else InferenceScratch()
    work = scratch.buffer("pair", (batch, labels, labels))
    argmax = scratch.buffer("argmax", (batch, labels), dtype=np.intp)
    score = emissions[:, 0].copy()
    backpointers = np.zeros((batch, steps, labels), dtype=np.int32)
    for t in range(1, steps):
        np.add(score[:, :, None], transitions[None, :, :], out=work)
        best_prev = np.argmax(work, axis=1, out=argmax)
        updated = (
            np.take_along_axis(work, best_prev[:, None, :], axis=1)
            .squeeze(1)
            + emissions[:, t]
        )
        step_mask = mask[:, t][:, None]
        backpointers[:, t] = np.where(step_mask, best_prev, 0)
        score = np.where(step_mask, updated, score)

    lengths = mask.sum(axis=1).astype(np.int64)
    paths: list[list[int]] = []
    final_best = score.argmax(axis=1)
    for b in range(batch):
        length = int(lengths[b])
        label = int(final_best[b])
        path = [label]
        for t in range(length - 1, 0, -1):
            label = int(backpointers[b, t, label])
            path.append(label)
        path.reverse()
        paths.append(path)
    return paths
