"""Vectorised single-feature boosting sweep for feature selection.

:func:`repro.features.selection.single_feature_ap` trains one tiny BStump
per candidate column.  Run naively that is hundreds of independent
AdaBoost fits, each paying a fresh argsort, per-round cumulative sums, an
``exp`` over the example weights, and per-round scoring passes.  This
module fits a whole *chunk* of columns at once, and it exploits a
property unique to the single-feature setting: once the rows of each
class are sorted by feature value, the original row order never matters
again.  The initial AdaBoost weights are uniform, every stump maps a
*contiguous* run of the sorted order to the same score, and the final
model is just its stump parameters -- so the whole boosting recurrence
can run in the sorted domain:

* **Sort once, per class.**  Each column's positive-class and
  negative-class values are sorted with :func:`np.sort` (SIMD-vectorised,
  roughly an order of magnitude faster than ``argsort``; NaNs sort last).
  Candidate thresholds are the same order statistics over the full column
  that :class:`~repro.ml.stumps.StumpSearch` uses (an even grid over the
  sorted order), and each candidate split's position inside either class
  block is precomputed with one tiny ``searchsorted`` per column.
* **Round statistics from two cumulative sums.**  With weights stored in
  sorted order, the below-split weight mass per class is a prefix sum
  read at the precomputed boundary positions: two ``cumsum`` passes and a
  small gather replace the per-column masking, multiplying and summing of
  the loop path.  At every *valid* split the value-boundary mass matches
  the rank-based mass exactly, because a valid split strictly separates
  the neighbouring order statistics.
* **Scalar normalisation.**  AdaBoost's per-round weight normalisation is
  tracked as one scalar per column and folded into the (tiny) boundary
  statistics instead of dividing the full weight matrix every round.
* **Slice-wise weight updates.**  A stump multiplies the weights of a
  contiguous sorted run by a single constant (``exp(-y * h)`` takes one
  value per class per stump region), so the update is three contiguous
  slice multiplies per class block -- no ``exp`` over the matrix, no
  comparison pass, no scatter.

The sweep reproduces the per-column loop's model *selection behaviour*
and shares its rules rather than copying them: the candidate grid
(:func:`repro.ml.binning._split_grid`), the missing-block terms and the
split criterion Z (:mod:`repro.ml.stumps`) each have one definition, and
each column's kept rounds become :class:`~repro.ml.stumps.Stump` objects
scored by :func:`~repro.ml.ensemble_scoring.compile_stumps`, the scorer a
trained model uses.  :func:`_boost_margins` is the one round loop of
both sweeps (early stopping, the degenerate-weight guard, per-column
stump counts); :class:`ColumnSweep` and :class:`HistColumnSweep` differ
only in how they sum each round's weights.  Those sums are accumulated in
a different order than the loop path's, so margins agree with it to
floating-point round-off rather than bit for bit.
``tests/test_selection_batched.py`` asserts the property that matters
downstream: both paths select identical feature sets.  The sweep itself
is deterministic and bit-reproducible across chunk widths and worker
counts, because every column's arithmetic is independent.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from repro.ml.binning import DEFAULT_MAX_BINS, BinnedDataset, _split_grid
from repro.ml.ensemble_scoring import compile_stumps
from repro.ml.stumps import (
    _EPS_SCALE, EARLY_STOP_Z, Stump, _missing_block_terms, _split_z,
)

__all__ = [
    "ColumnSweep",
    "SweepRound",
    "sweep_chunk_margins",
    "HistColumnSweep",
    "hist_sweep_chunk_margins",
]


class SweepRound(NamedTuple):
    """One boosting round's result, one entry per chunk column."""

    threshold: np.ndarray
    s_lo: np.ndarray
    s_hi: np.ndarray
    s_miss: np.ndarray
    z: np.ndarray
    raw_total: np.ndarray
    #: number of class values strictly below the chosen split
    below_pos: np.ndarray
    below_neg: np.ndarray
    #: True where below_pos/below_neg provably match ``x >= threshold``
    boundary_exact: np.ndarray


def _best_splits(wp_lo, wn_lo, wp_hi, wn_hi, z_miss, invalid, eps):
    """Each column's Z-minimising split: ``(best, z, s_lo, s_hi)``.

    The split tables are (columns, candidates) and already clipped; the
    first lowest candidate wins ties, as in the stump searches.
    """
    z = _split_z(wp_lo, wn_lo, wp_hi, wn_hi, z_miss[:, None])
    z[invalid] = np.inf
    best = np.argmin(z, axis=1)
    rows = np.arange(best.size)
    s_lo = 0.5 * np.log((wp_lo[rows, best] + eps) / (wn_lo[rows, best] + eps))
    s_hi = 0.5 * np.log((wp_hi[rows, best] + eps) / (wn_hi[rows, best] + eps))
    return best, z[rows, best], s_lo, s_hi


def _class_block(X_t: np.ndarray, mask: np.ndarray):
    """Sorted per-column values of one class, with present counts."""
    block = X_t[:, mask]  # fancy indexing copies; safe to sort in place
    block.sort(axis=1)    # NaNs sort last per column
    counts = block.shape[1] - np.isnan(block).sum(axis=1)
    return block, counts


class ColumnSweep:
    """Per-column boosted-stump sweep over a chunk of continuous columns.

    Owns the per-class sorted weight matrices; callers drive it with
    alternating :meth:`round` / :meth:`update` calls.

    Args:
        X_t: (n_cols, n_rows) training chunk, one row per candidate
            column (transposed for contiguous per-column access).
        y_signed: labels in {-1, +1}.
        missing_policy: "score" or "abstain", as in StumpSearch.
        max_split_points: candidate-threshold cap per column per round.
    """

    def __init__(
        self,
        X_t: np.ndarray,
        y_signed: np.ndarray,
        missing_policy: str = "score",
        max_split_points: int = DEFAULT_MAX_BINS,
    ):
        C, n = X_t.shape
        self.n = n
        self.n_cols = C
        self.eps = _EPS_SCALE / n
        self.missing_policy = missing_policy

        grid = _split_grid(n, max_split_points)
        M = grid.size
        self.grid = grid
        inner = grid[1:-1]  # interior split positions, length M - 2

        # Per-class sorted value blocks.  Original row order is never
        # needed: initial weights are uniform, stumps act on contiguous
        # sorted runs, and the fitted model is only its parameters.
        pos = y_signed > 0
        self._x_pos, self._pc_pos = _class_block(X_t, pos)
        self._x_neg, self._pc_neg = _class_block(X_t, ~pos)
        present_counts = self._pc_pos + self._pc_neg
        self.present_counts = present_counts

        # Order statistics around each interior split, from one SIMD sort
        # of the full column (NaNs last, ties in value order -- identical
        # to the values an argsort-based search would see).
        v_sorted = np.sort(X_t, axis=1)
        if inner.size:
            self._v_lo = v_sorted[:, inner - 1]  # value just below the split
            self._v_hi = v_sorted[:, inner]      # value at the split position
        else:
            self._v_lo = np.empty((C, 0))
            self._v_hi = np.empty((C, 0))

        # A split is valid when it lies within the present values and the
        # neighbouring order statistics differ (ties cannot be split).
        # The boundary split at the present count is valid with an
        # infinite threshold, exactly as in the rank-based search.
        pc = present_counts[:, None]
        with np.errstate(invalid="ignore"):
            separated = self._v_lo < self._v_hi
        valid = np.ones((C, M), dtype=bool)
        valid[:, 1:-1] = (inner[None, :] <= pc) & (
            separated | (inner[None, :] == pc)
        )
        valid[:, -1] = grid[-1] <= present_counts
        self._valid = valid

        # Boundary tables: for every candidate split, how many values of
        # each class lie strictly below it.  At a valid interior split
        # the below-split rows are exactly those with value < the order
        # statistic at the split (strict separation), so a 'left'
        # searchsorted against the positive block gives the exact
        # rank-based count -- and because a valid split at position
        # ``grid[j]`` has exactly ``grid[j]`` values below it in total,
        # the negative-class count is the complement.  Entries at invalid
        # splits are arbitrary (only clipped in-bounds) and masked.
        self._below_pos = self._boundary_table(self._x_pos, self._pc_pos)
        below_neg = np.clip(
            grid[None, :] - self._below_pos, 0, self._x_neg.shape[1]
        )
        below_neg[:, 0] = 0
        below_neg[:, -1] = self._pc_neg
        self._below_neg = below_neg

        # Weights live in the per-class sorted domain, kept raw
        # (unnormalised); normalisation is a per-column scalar.  The
        # prefix-sum buffers are reused across rounds.
        self._w_pos = np.full(self._x_pos.shape, 1.0 / n)
        self._w_neg = np.full(self._x_neg.shape, 1.0 / n)
        self._cum_pos = np.zeros((C, self._x_pos.shape[1] + 1))
        self._cum_neg = np.zeros((C, self._x_neg.shape[1] + 1))

    def _boundary_table(self, block: np.ndarray, block_pc: np.ndarray) -> np.ndarray:
        C, M = self.n_cols, self.grid.size
        table = np.zeros((C, M), dtype=np.intp)
        if self._v_hi.shape[1]:
            for k in range(C):
                table[k, 1:-1] = np.searchsorted(
                    block[k], self._v_hi[k], side="left"
                )
        table[:, -1] = block_pc
        return table

    def round(self, normalize: bool):
        """Best stump per column under the current weights.

        Args:
            normalize: fold each column's raw weight total into the
                statistics (True from round 1 on, mirroring the loop's
                per-round weight normalisation; round 0 uses the raw
                uniform weights).

        Returns:
            A :class:`SweepRound` with per-column stump parameters, the
            best Z, the raw weight mass (used for the degenerate-weight
            guard and the scalar normalisation) and the chosen split's
            per-class slice boundaries for :meth:`update`.
        """
        C = self.n_cols
        cum_pos = self._cum_pos
        cum_neg = self._cum_neg
        np.cumsum(self._w_pos, axis=1, out=cum_pos[:, 1:])
        np.cumsum(self._w_neg, axis=1, out=cum_neg[:, 1:])
        tot_pos = cum_pos[:, -1]
        tot_neg = cum_neg[:, -1]
        raw_total = tot_pos + tot_neg

        if normalize:
            with np.errstate(divide="ignore", invalid="ignore"):
                inv = np.where(raw_total > 0, 1.0 / raw_total, 1.0)
        else:
            inv = np.ones(C)

        rows = np.arange(C)
        present_pos = cum_pos[rows, self._pc_pos]
        present_neg = cum_neg[rows, self._pc_neg]
        wp_miss = np.clip((tot_pos - present_pos) * inv, 0.0, None)
        wn_miss = np.clip((tot_neg - present_neg) * inv, 0.0, None)
        z_miss, s_miss = _missing_block_terms(
            wp_miss, wn_miss, self.eps, self.missing_policy
        )

        wp_lo = np.take_along_axis(cum_pos, self._below_pos, axis=1) * inv[:, None]
        wn_lo = np.take_along_axis(cum_neg, self._below_neg, axis=1) * inv[:, None]
        wp_hi = (present_pos * inv)[:, None] - wp_lo
        wn_hi = (present_neg * inv)[:, None] - wn_lo
        np.clip(wp_lo, 0.0, None, out=wp_lo)
        np.clip(wn_lo, 0.0, None, out=wn_lo)
        np.clip(wp_hi, 0.0, None, out=wp_hi)
        np.clip(wn_hi, 0.0, None, out=wn_hi)

        best, z_best, s_lo, s_hi = _best_splits(
            wp_lo, wn_lo, wp_hi, wn_hi, z_miss, ~self._valid, self.eps
        )
        split = self.grid[best]
        if self._v_hi.shape[1]:
            inner_idx = np.clip(best - 1, 0, self._v_hi.shape[1] - 1)
            v_lo_best = self._v_lo[rows, inner_idx]
            v_hi_best = self._v_hi[rows, inner_idx]
            midpoint = 0.5 * (v_lo_best + v_hi_best)
        else:
            v_lo_best = np.zeros(C)
            v_hi_best = np.zeros(C)
            midpoint = np.zeros(C)
        interior = (best > 0) & (split < self.present_counts)
        threshold = np.where(
            best == 0,
            -np.inf,
            np.where(interior, midpoint, np.inf),
        )
        # The update's slice boundary is the number of class values below
        # the *actual* threshold (Stump.predict tests ``x >= threshold``).
        # When the midpoint lies strictly between the split's order
        # statistics -- the overwhelmingly common case -- that count is
        # exactly the precomputed rank-based boundary; otherwise (midpoint
        # rounding onto a data value, or an infinite threshold over
        # infinite data) update() re-locates it by value.
        with np.errstate(invalid="ignore"):
            boundary_exact = (best == 0) | (
                interior & (midpoint > v_lo_best) & (midpoint <= v_hi_best)
            )
        return SweepRound(
            threshold=threshold,
            s_lo=s_lo,
            s_hi=s_hi,
            s_miss=s_miss,
            z=z_best,
            raw_total=raw_total,
            below_pos=self._below_pos[rows, best],
            below_neg=self._below_neg[rows, best],
            boundary_exact=boundary_exact,
        )

    def update(self, rr: "SweepRound", active: np.ndarray) -> None:
        """Apply ``w *= exp(-y * h)`` for each active column's stump.

        The stump's prediction is constant on three contiguous runs of
        each sorted class block (below threshold, at-or-above threshold,
        missing), so the update is six slice multiplies per column.  The
        run boundary comes from the round's precomputed rank counts when
        they provably match ``Stump.predict``'s ``x >= threshold`` test,
        and is re-located by value otherwise.
        """
        for k in np.flatnonzero(active):
            thr = rr.threshold[k]
            f_lo, f_hi, f_miss = np.exp(
                [-rr.s_lo[k], -rr.s_hi[k], -rr.s_miss[k]]
            )
            g_lo, g_hi, g_miss = np.exp([rr.s_lo[k], rr.s_hi[k], rr.s_miss[k]])
            exact = bool(rr.boundary_exact[k])
            b = (
                int(rr.below_pos[k])
                if exact
                else int(np.searchsorted(self._x_pos[k], thr, side="left"))
            )
            pc = int(self._pc_pos[k])
            w = self._w_pos[k]
            w[:b] *= f_lo
            w[b:pc] *= f_hi
            w[pc:] *= f_miss
            b = (
                int(rr.below_neg[k])
                if exact
                else int(np.searchsorted(self._x_neg[k], thr, side="left"))
            )
            pc = int(self._pc_neg[k])
            w = self._w_neg[k]
            w[:b] *= g_lo
            w[b:pc] *= g_hi
            w[pc:] *= g_miss


def sweep_chunk_margins(
    X_train_t: np.ndarray,
    y_signed: np.ndarray,
    X_test_t: np.ndarray,
    n_rounds: int,
    missing_policy: str = "score",
    max_split_points: int = DEFAULT_MAX_BINS,
) -> np.ndarray:
    """Margins of per-column boosted single-feature models on the test rows.

    Runs the AdaBoost recurrence of ``BStump.fit`` for every column of the
    chunk at once on a :class:`ColumnSweep` (see :func:`_boost_margins`).

    Args:
        X_train_t: (n_cols, n_train) training chunk, transposed.
        y_signed: training labels in {-1, +1}.
        X_test_t: (n_cols, n_test) test chunk, transposed.
        n_rounds: boosting rounds per column.
        missing_policy, max_split_points: stump-search settings.

    Returns:
        (n_cols, n_test) margin matrix, one row per column.
    """
    sweep = ColumnSweep(X_train_t, y_signed, missing_policy, max_split_points)
    return _boost_margins(sweep, X_test_t, n_rounds)


class HistColumnSweep:
    """Histogram-domain sweep over a chunk of pre-binned columns.

    The single-feature boosting recurrence collapses even further on a
    binned column than on a sorted one: with uniform initial weights, a
    row's weight depends only on its (bin, class) trajectory -- every row
    of the same class in the same bin always receives the same stump
    output -- so the whole AdaBoost state is one weight scalar per
    (column, bin, class).  Rounds then cost O(bins) per column with *no*
    per-row work at all: the per-class bin weights start as
    ``count / n``, candidate statistics are prefix sums over at most
    ``max_bins`` bins, and the weight update is an elementwise multiply
    of the (columns, bins) weight tables.

    Candidate thresholds are the shared :class:`BinnedDataset`'s bin
    edges, so a select-then-train run scans the same split set during
    selection as the hist training backend does afterwards -- and bins the
    feature matrix exactly once for both.
    """

    def __init__(
        self,
        binned: BinnedDataset,
        y_signed: np.ndarray,
        missing_policy: str = "score",
    ):
        """Args:
            binned: pre-binned chunk; every column must be continuous.
            y_signed: labels in {-1, +1}.
            missing_policy: "score" or "abstain", as in StumpSearch.
        """
        if bool(np.any(binned.categorical)):
            raise ValueError("HistColumnSweep handles continuous columns only")
        C = binned.n_features
        n = binned.n_rows
        self.n = n
        self.n_cols = C
        self.eps = _EPS_SCALE / n
        self.missing_policy = missing_policy
        self.binned = binned

        nvb = binned.n_value_bins.astype(np.int64)
        W = int(nvb.max()) + 1  # value bins + missing bin
        self._nvb = nvb
        self._W = W
        self._rows = np.arange(C)
        # Candidate boundary k (split below bin k) is valid for 0..nvb[c].
        self._invalid = np.arange(W)[None, :] > nvb[:, None]

        pos = y_signed > 0
        counts_pos = np.zeros((C, W))
        counts_neg = np.zeros((C, W))
        for c in range(C):
            counts_pos[c] = np.bincount(binned.codes[c][pos], minlength=W)
            counts_neg[c] = np.bincount(binned.codes[c][~pos], minlength=W)
        # Raw (unnormalised) per-bin class weights; normalisation is a
        # per-column scalar, as in ColumnSweep.
        self._w_pos = counts_pos / n
        self._w_neg = counts_neg / n

    def round(self, normalize: bool) -> SweepRound:
        """Best stump per column under the current per-bin weights.

        Mirrors :meth:`ColumnSweep.round` semantics (same normalisation
        folding, same missing-block terms, same first-lowest-boundary
        tie-break) with boundary statistics read off per-bin prefix sums.
        """
        C, W = self.n_cols, self._W
        rows = self._rows
        nvb = self._nvb
        wp = self._w_pos
        wn = self._w_neg

        wp_miss_raw = wp[rows, nvb]
        wn_miss_raw = wn[rows, nvb]
        # Prefix mass strictly below each candidate boundary, value bins
        # only (the missing bin sits at nvb[c] and is masked per column).
        value_mask = ~self._invalid.copy()
        value_mask[rows, nvb] = False
        wp_lo = np.zeros((C, W))
        wn_lo = np.zeros((C, W))
        np.cumsum(np.where(value_mask, wp, 0.0)[:, :-1], axis=1, out=wp_lo[:, 1:])
        np.cumsum(np.where(value_mask, wn, 0.0)[:, :-1], axis=1, out=wn_lo[:, 1:])
        present_pos = wp_lo[rows, nvb]
        present_neg = wn_lo[rows, nvb]
        raw_total = present_pos + present_neg + wp_miss_raw + wn_miss_raw

        if normalize:
            with np.errstate(divide="ignore", invalid="ignore"):
                inv = np.where(raw_total > 0, 1.0 / raw_total, 1.0)
        else:
            inv = np.ones(C)

        wp_miss = np.clip(wp_miss_raw * inv, 0.0, None)
        wn_miss = np.clip(wn_miss_raw * inv, 0.0, None)
        z_miss, s_miss = _missing_block_terms(
            wp_miss, wn_miss, self.eps, self.missing_policy
        )

        wp_lo *= inv[:, None]
        wn_lo *= inv[:, None]
        wp_hi = np.clip((present_pos * inv)[:, None] - wp_lo, 0.0, None)
        wn_hi = np.clip((present_neg * inv)[:, None] - wn_lo, 0.0, None)

        best, z_best, s_lo, s_hi = _best_splits(
            wp_lo, wn_lo, wp_hi, wn_hi, z_miss, self._invalid, self.eps
        )
        threshold = np.empty(C)
        for c in range(C):
            k = int(best[c])
            if k == 0:
                threshold[c] = -np.inf
            elif k >= int(nvb[c]):
                threshold[c] = np.inf
            else:
                threshold[c] = float(self.binned.edges[c][k - 1])
        # Bin membership and the stump test are the same ``x >= edge``
        # comparison, so the per-bin boundary always matches the
        # threshold; below_pos/below_neg are unused by the hist update.
        return SweepRound(
            threshold=threshold,
            s_lo=s_lo,
            s_hi=s_hi,
            s_miss=s_miss,
            z=z_best,
            raw_total=raw_total,
            below_pos=best,
            below_neg=best,
            boundary_exact=np.ones(C, dtype=bool),
        )

    def update(self, rr: SweepRound, active: np.ndarray) -> None:
        """Apply ``w *= exp(-y * h)`` on the per-bin weight tables.

        The stump output is constant per bin, so the update is one
        ``exp`` over the (columns, bins) score table and two elementwise
        multiplies -- no row-domain work.
        """
        C, W = self.n_cols, self._W
        rows = self._rows
        below = np.arange(W)[None, :] < rr.below_pos[:, None]
        scores = np.where(below, rr.s_lo[:, None], rr.s_hi[:, None])
        scores[rows, self._nvb] = rr.s_miss
        scores[~active] = 0.0
        factor = np.exp(-scores)
        self._w_pos *= factor
        self._w_neg /= factor


def hist_sweep_chunk_margins(
    binned: BinnedDataset,
    y_signed: np.ndarray,
    X_test_t: np.ndarray,
    n_rounds: int,
    missing_policy: str = "score",
) -> np.ndarray:
    """Hist-backend margins of per-column single-feature models.

    The binned counterpart of :func:`sweep_chunk_margins`: the same
    boosting loop on a :class:`HistColumnSweep`, whose round statistics
    come from per-bin weights instead of sorted prefix sums.

    Args:
        binned: pre-binned training chunk (continuous columns only),
            column-aligned with ``X_test_t``.
        y_signed: training labels in {-1, +1}.
        X_test_t: (n_cols, n_test) raw test chunk, transposed.
        n_rounds: boosting rounds per column.
        missing_policy: stump-search missing policy.

    Returns:
        (n_cols, n_test) margin matrix, one row per column.
    """
    sweep = HistColumnSweep(binned, y_signed, missing_policy)
    return _boost_margins(sweep, X_test_t, n_rounds)


def _boost_margins(
    sweep: ColumnSweep | HistColumnSweep,
    X_test_t: np.ndarray,
    n_rounds: int,
) -> np.ndarray:
    """Boost every column of ``sweep`` and score each model on its test row.

    The one round loop of both sweeps.  Early stopping (a column stops
    once its best Z reaches ``EARLY_STOP_Z``, after the first round) and
    the degenerate-weight guard apply per column; the active mask only ever
    shrinks, so a column that kept ``T`` stumps kept the first ``T``
    rounds.
    """
    active = np.ones(sweep.n_cols, dtype=bool)
    rounds: list[SweepRound] = []
    n_stumps = np.zeros(sweep.n_cols, dtype=np.intp)
    for t in range(n_rounds):
        rr = sweep.round(normalize=t > 0)
        # The loop path checks the weight total after each update and
        # stops before the next stump; the raw total of this round's
        # statistics is that same quantity, one round later.
        if t > 0:
            with np.errstate(invalid="ignore"):
                active &= np.isfinite(rr.raw_total) & (rr.raw_total > 0)
            active &= rr.z < EARLY_STOP_Z
        if not np.any(active):
            break
        rounds.append(rr)
        n_stumps[active] += 1
        if t == n_rounds - 1:
            break
        sweep.update(rr, active)

    # Each column's kept rounds are a single-feature stump ensemble,
    # scored by the compiled scorer the trained model itself would use.
    margins = np.zeros(X_test_t.shape)
    for k in np.flatnonzero(n_stumps):
        stumps = [
            Stump(0, rr.threshold[k], rr.s_lo[k], rr.s_hi[k], rr.s_miss[k])
            for rr in rounds[: n_stumps[k]]
        ]
        margins[k] = compile_stumps(stumps, 1).decision_function_columns(
            lambda _: X_test_t[k], X_test_t.shape[1]
        )
    return margins
