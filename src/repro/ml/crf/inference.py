"""Linear-chain CRF inference: one forward–backward and Viterbi.

* :class:`PackedEstep` — forward–backward in scaled probability space
  over one :class:`~repro.perf.bucketing.PackedLayout` bucket (packed
  time-major rows, no padding). It is the trainer's E-step, and
  :meth:`~repro.ml.crf.model.CrfTagger.tag_with_confidence` runs it
  unweighted for span confidences.
* :func:`viterbi` — best-path decoding over a padded batch:
  ``emissions`` (B, T, L) scores, a row-prefix ``mask`` (B, T) and
  ``transitions`` (L, L), the score of label j following i.

Both write into preallocated :class:`InferenceScratch` buffers shared
across steps and calls; their buffer names do not collide, so one
tagger's scratch serves both.
"""

from __future__ import annotations

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
