"""Confidence-rated one-level decision stumps.

These are the weak learners inside ``BStump`` (Fig. 5 of the paper).  Each
stump tests a single line feature against a threshold ``delta``:

* continuous features -- output ``s_lo`` when the value is below ``delta``
  and ``s_hi`` otherwise;
* categorical features -- output ``s_hi`` when the value equals the chosen
  category and ``s_lo`` otherwise;
* missing values (NaN) -- by default routed to a third, *scored* block
  (``s_miss``).  A missed weekly record means the modem was off, which is
  itself evidence about the line (the paper's "modem" customer feature
  exists precisely because missingness is informative).  The
  Boostexter-style alternative -- abstain with output 0 -- is available
  via ``missing_policy="abstain"``; under heavy class imbalance pure
  abstention ranks every incomplete record above every scored one, which
  is why scoring the missing block is the default.

Scores are the confidence-rated values of Schapire & Singer: for a block
``b`` holding positive weight ``W+`` and negative weight ``W-``, the block
score is ``0.5 * ln((W+ + eps) / (W- + eps))`` and the stump is chosen to
minimise the normaliser ``Z = 2 * sum_b sqrt(W+_b W-_b)`` (the abstain
policy instead adds the raw abstained weight to Z).

Each of these rules has one vectorised definition here, shared by the
exact and histogram searches and by the selection sweeps of
:mod:`repro.features.sweep`: :func:`_missing_block_terms` (the missing
block's Z term and score) and :func:`_split_z` (the two-block Z of every
candidate split), and :data:`EARLY_STOP_Z` ends boosting.  The
candidate-split grid is :func:`repro.ml.binning._split_grid`.
:func:`fit_stump` keeps its own scalar arithmetic as the reference the
searches are tested against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.ml.binning import DEFAULT_MAX_BINS, BinnedDataset, _split_grid
from repro.parallel import parallel_map

__all__ = [
    "Stump",
    "fit_stump",
    "StumpSearch",
    "HistStumpSearch",
    "MISSING_POLICIES",
    "COLUMN_BLOCK",
    "EARLY_STOP_Z",
]

#: Cells (rows x features) per histogram-table block.  A matrix within
#: one block is binned in one call per round; a bigger one is binned
#: block by block over the parallel fabric, which bounds the per-round
#: weight tile and amortises the pool's per-round spin-up.
_HIST_PARALLEL_MIN_CELLS = 2_000_000

#: Columns per block of the training layer's transient work: the exact
#: search's per-column sorts at construction and the selection sweep's
#: tie-break + AP(N) scoring.  Transient memory follows one block of
#: this many columns instead of the whole matrix; every result is the
#: same for any block size, as each column is handled on its own.
COLUMN_BLOCK = 16

_EPS_SCALE = 0.5  # eps = _EPS_SCALE / n, the standard 1/(2n) smoothing

#: Boosting stops once a round's best Z reaches this (after the first
#: round): Z ~1.0 is no better than abstaining, so more rounds fit noise.
#: Read by ``BStump.fit`` and the sweeps of :mod:`repro.features.sweep`.
EARLY_STOP_Z = 0.999999

MISSING_POLICIES = ("score", "abstain")


@dataclass(frozen=True)
class Stump:
    """A fitted one-level decision stump.

    Attributes:
        feature: column index the stump tests.
        threshold: split value ``delta``.  For continuous features the test
            is ``x < threshold``; for categorical features it is
            ``x == threshold``.
        s_lo: score emitted when the test routes to the "low"/unequal block.
        s_hi: score emitted for the "high"/equal block.
        s_miss: score emitted for missing values (0 under the abstain
            policy).
        categorical: whether the feature is categorical.
        z: the Z-value (weighted normaliser) achieved during fitting; lower
            is a stronger weak learner.
    """

    feature: int
    threshold: float
    s_lo: float
    s_hi: float
    s_miss: float = 0.0
    categorical: bool = False
    z: float = 1.0

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Return per-row stump outputs for feature matrix ``X``."""
        # Slice the tested column out first: casting after the slice keeps
        # the conversion O(n) instead of copying the whole matrix when X
        # is not float64 already.
        return self.predict_column(
            np.asarray(np.asarray(X)[:, self.feature], dtype=float)
        )

    def predict_column(self, col: np.ndarray) -> np.ndarray:
        """Stump outputs for an already-cast 1-D float column.

        Callers that evaluate many stumps against the same matrix (the
        naive ensemble scorer) cast ``X`` to float64 once and feed each
        stump its column through here, instead of paying a cast per
        stump via :meth:`predict`.
        """
        out = np.full(col.shape[0], self.s_miss, dtype=float)
        present = ~np.isnan(col)
        if self.categorical:
            hi = present & (col == self.threshold)
        else:
            hi = present & (col >= self.threshold)
        lo = present & ~hi
        out[hi] = self.s_hi
        out[lo] = self.s_lo
        return out


def _block_score(w_pos: float, w_neg: float, eps: float) -> float:
    # Round-off in cumulative sums can leave weights a hair below zero.
    w_pos = max(w_pos, 0.0)
    w_neg = max(w_neg, 0.0)
    return 0.5 * math.log((w_pos + eps) / (w_neg + eps))


def _missing_block_terms(
    wp_miss: np.ndarray, wn_miss: np.ndarray, eps: float, missing_policy: str
) -> tuple[np.ndarray, np.ndarray]:
    """(z_miss, s_miss) per feature for a missing-value policy.

    The one definition of the missing block's Z term and score, shared by
    both stump searches and both selection sweeps.
    """
    if missing_policy == "score":
        z_miss = 2.0 * np.sqrt(np.clip(wp_miss * wn_miss, 0.0, None))
        s_miss = 0.5 * np.log((wp_miss + eps) / (wn_miss + eps))
        s_miss = np.where(wp_miss + wn_miss > 0, s_miss, 0.0)
    else:
        z_miss = wp_miss + wn_miss
        s_miss = np.zeros_like(wp_miss)
    return z_miss, s_miss


def _split_z(
    wp_lo: np.ndarray,
    wn_lo: np.ndarray,
    wp_hi: np.ndarray,
    wn_hi: np.ndarray,
    z_miss,
    out: np.ndarray | None = None,
    scratch: np.ndarray | None = None,
) -> np.ndarray:
    """Split criterion ``Z = 2 (sqrt(W+lo W-lo) + sqrt(W+hi W-hi)) + z_miss``.

    Elementwise over candidate splits; ``z_miss`` broadcasts against
    them.  The one definition of Z for both stump searches (continuous
    and categorical) and both selection sweeps; callers clip their own
    inputs.  ``out`` receives Z and ``scratch`` the high-block term, so a
    search can keep preallocated round buffers; either is allocated when
    not given.
    """
    z = np.multiply(wp_lo, wn_lo, out=out)
    np.sqrt(z, out=z)
    hi = np.multiply(wp_hi, wn_hi, out=scratch)
    np.sqrt(hi, out=hi)
    z += hi
    z *= 2.0
    z += z_miss
    return z


def _check_policy(missing_policy: str) -> None:
    if missing_policy not in MISSING_POLICIES:
        raise ValueError(
            f"missing_policy must be one of {MISSING_POLICIES}, got {missing_policy!r}"
        )


def fit_stump(
    column: np.ndarray,
    y: np.ndarray,
    weights: np.ndarray,
    feature: int = 0,
    categorical: bool = False,
    missing_policy: str = "score",
) -> Stump:
    """Fit the best stump on a single feature column.

    Args:
        column: 1-D float array of feature values; NaN marks missing.
        y: labels in {-1, +1}.
        weights: non-negative sample weights (need not be normalised).
        feature: index recorded in the returned stump.
        categorical: treat values as category codes instead of ordered
            reals.
        missing_policy: "score" (default) gives missing values their own
            confidence-rated block; "abstain" outputs 0 on missing.

    Returns:
        The Z-minimising :class:`Stump` for this column.
    """
    _check_policy(missing_policy)
    column = np.asarray(column, dtype=float)
    y = np.asarray(y, dtype=float)
    weights = np.asarray(weights, dtype=float)
    if not (column.shape == y.shape == weights.shape):
        raise ValueError("column, y and weights must share a shape")
    if column.size == 0:
        raise ValueError("cannot fit a stump on an empty column")

    n = column.size
    eps = _EPS_SCALE / n
    present = ~np.isnan(column)
    wp_miss = float(np.sum(weights[~present & (y > 0)]))
    wn_miss = float(np.sum(weights[~present & (y <= 0)]))
    if missing_policy == "score":
        z_miss = 2.0 * math.sqrt(wp_miss * wn_miss)
        s_miss = _block_score(wp_miss, wn_miss, eps) if (wp_miss + wn_miss) > 0 else 0.0
    else:
        z_miss = wp_miss + wn_miss
        s_miss = 0.0
    w_pos_tot = float(np.sum(weights[present & (y > 0)]))
    w_neg_tot = float(np.sum(weights[present & (y <= 0)]))

    if not np.any(present):
        # Fully-missing column: only the missing block exists.
        return Stump(feature, math.inf, 0.0, 0.0, s_miss, categorical, z=z_miss)

    best: Stump | None = None

    if categorical:
        for value in np.unique(column[present]):
            eq = present & (column == value)
            wp_eq = float(np.sum(weights[eq & (y > 0)]))
            wn_eq = float(np.sum(weights[eq & (y <= 0)]))
            wp_ne = w_pos_tot - wp_eq
            wn_ne = w_neg_tot - wn_eq
            z = 2.0 * (math.sqrt(wp_eq * wn_eq) + math.sqrt(wp_ne * wn_ne)) + z_miss
            if best is None or z < best.z:
                best = Stump(
                    feature,
                    float(value),
                    s_lo=_block_score(wp_ne, wn_ne, eps),
                    s_hi=_block_score(wp_eq, wn_eq, eps),
                    s_miss=s_miss,
                    categorical=True,
                    z=z,
                )
        assert best is not None
        return best

    order = np.argsort(column, kind="stable")  # NaNs sort last
    sorted_vals = column[order]
    sorted_w = weights[order]
    sorted_pos = sorted_w * (y[order] > 0)
    sorted_neg = sorted_w * (y[order] <= 0)
    m = int(np.sum(present))

    cum_pos = np.concatenate([[0.0], np.cumsum(sorted_pos[:m])])
    cum_neg = np.concatenate([[0.0], np.cumsum(sorted_neg[:m])])

    for k in range(m + 1):
        if 0 < k < m and sorted_vals[k - 1] == sorted_vals[k]:
            continue  # cannot split between equal values
        wp_lo, wn_lo = cum_pos[k], cum_neg[k]
        # Round-off in the cumulative sums can dip a hair below zero.
        wp_hi = max(w_pos_tot - wp_lo, 0.0)
        wn_hi = max(w_neg_tot - wn_lo, 0.0)
        z = 2.0 * (math.sqrt(wp_lo * wn_lo) + math.sqrt(wp_hi * wn_hi)) + z_miss
        if best is None or z < best.z:
            if k == 0:
                threshold = -math.inf
            elif k == m:
                threshold = math.inf
            else:
                threshold = 0.5 * (sorted_vals[k - 1] + sorted_vals[k])
            best = Stump(
                feature,
                float(threshold),
                s_lo=_block_score(wp_lo, wn_lo, eps),
                s_hi=_block_score(wp_hi, wn_hi, eps),
                s_miss=s_miss,
                categorical=False,
                z=z,
            )
    assert best is not None
    return best


class StumpSearch:
    """Vectorised best-stump search over a whole feature matrix.

    What does not depend on the boosting weights is derived once at
    construction from per-column sorts, ``COLUMN_BLOCK`` continuous
    columns at a time: each cell's grid *segment* (the candidate-split
    interval its sorted position falls into), the present mask, the
    validity of every grid split (no split between tied values) and the
    two sorted values around it, which give its threshold.  The sort
    orders themselves are dropped block by block, so construction memory
    follows one block.  Each boosting round then costs a masked weight
    fill, one weighted ``bincount`` over segments, a prefix sum over the
    grid and an argmin over all features simultaneously.
    """

    def __init__(
        self,
        X: np.ndarray,
        y: np.ndarray,
        categorical: np.ndarray | None = None,
        missing_policy: str = "score",
        max_split_points: int = DEFAULT_MAX_BINS,
    ):
        """Args:
            X: (n, F) float matrix, NaN = missing.
            y: labels in {-1, +1}.
            categorical: per-feature categorical mask.
            missing_policy: "score" or "abstain" (see module docstring).
            max_split_points: cap on candidate thresholds per feature per
                round.  Above this, candidates are taken on an even grid
                of the sorted order (quantile splits) -- a standard
                boosting approximation that trades exactness of each weak
                learner for a large constant-factor speedup; with
                ``n <= max_split_points`` the search is exact.
        """
        _check_policy(missing_policy)
        if max_split_points < 2:
            raise ValueError("max_split_points must be at least 2")
        X = np.asarray(X, dtype=float)
        if X.ndim != 2:
            raise ValueError(f"X must be 2-D, got shape {X.shape}")
        y = np.asarray(y, dtype=float)
        if y.shape != (X.shape[0],):
            raise ValueError("y must be 1-D with one label per row of X")
        n, n_features = X.shape
        if n == 0 or n_features == 0:
            raise ValueError("X must be non-empty")

        if categorical is None:
            categorical = np.zeros(n_features, dtype=bool)
        else:
            categorical = np.asarray(categorical, dtype=bool)
            if categorical.shape != (n_features,):
                raise ValueError("categorical mask must have one entry per feature")

        self.n = n
        self.n_features = n_features
        self.eps = _EPS_SCALE / n
        self.y = y
        self.X = X
        self.categorical = categorical
        self.missing_policy = missing_policy
        self._cont_cols = np.flatnonzero(~categorical)
        self._cat_cols = np.flatnonzero(categorical)

        if self._cont_cols.size:
            C = self._cont_cols.size
            # Candidate split grid: exact below the cap, quantile-strided
            # above it (always keeping the no-split endpoints).
            grid = _split_grid(n, max_split_points)
            G = grid.size
            self._grid = grid
            # Each round needs the cumulative (positive) weight below every
            # candidate split, but only at the G grid positions -- never at
            # all n+1 of them.  So instead of a per-round sorted gather plus
            # a full-length cumulative sum (O(n) reads AND writes per
            # column), precompute for every cell which inter-grid *segment*
            # its row's sorted position falls into; a round then reduces to
            # one weighted ``bincount`` over segments (output is G x C,
            # cache-resident) and a tiny prefix sum.
            segment = np.empty((n, C), dtype=np.intp)
            self._present_cont = np.empty((n, C), dtype=bool)
            self._present_counts = np.empty(C, dtype=np.intp)
            self._valid = np.empty((G, C), dtype=bool)
            # Sorted values on either side of each grid split: all that
            # ``_continuous_threshold`` reads of the sorted columns.  Rows
            # for k = 0 and k = n are clamped and never read.
            self._split_lo = np.empty((G, C))
            self._split_hi = np.empty((G, C))
            # The grid segment of each sorted position, shared by every
            # column: a column's row segments scatter it by sort order.
            sorted_segment = np.searchsorted(grid, np.arange(n), side="right") - 1
            np.clip(sorted_segment, 0, G - 2, out=sorted_segment)
            for lo in range(0, C, COLUMN_BLOCK):
                self._fill_column_block(
                    X[:, self._cont_cols[lo:lo + COLUMN_BLOCK]], lo,
                    segment, sorted_segment,
                )
            segment *= C
            segment += np.arange(C)
            self._flat_segment = segment.ravel()
            self._n_segment_bins = (G - 1) * C
            # Per-round scratch buffers, allocated once: each boosting
            # round fills these in place instead of reallocating.
            # ``best_stump`` is therefore NOT thread-safe on a shared
            # instance (each fit owns its own search object; parallel
            # selection chunks build their own).
            self._buf_wcol = np.empty((n, C))
            self._buf_wposcol = np.empty((n, C))
            # Row 0 of the cumulative buffers is the "split before
            # everything" boundary and stays 0; each round only writes
            # rows 1..G-1.
            self._buf_wp_lo = np.zeros((G, C))
            self._buf_wn_lo = np.zeros((G, C))
            self._buf_wp_hi = np.empty((G, C))
            self._buf_wn_hi = np.empty((G, C))
            self._buf_z = np.empty((G, C))

        # Categorical columns: cache unique values and equality masks.
        self._cat_values: list[np.ndarray] = []
        self._cat_masks: list[np.ndarray] = []
        for col_idx in self._cat_cols:
            col = X[:, col_idx]
            present = ~np.isnan(col)
            values = np.unique(col[present])
            self._cat_values.append(values)
            self._cat_masks.append(present[:, None] & (col[:, None] == values[None, :]))

    def _fill_column_block(
        self,
        sub: np.ndarray,
        lo: int,
        segment: np.ndarray,
        sorted_segment: np.ndarray,
    ) -> None:
        """Sort-derived state of continuous slots ``lo:lo + width``.

        Writes the block's row segments into ``segment`` and its present
        mask, present counts, split validity and grid-split values into
        the search's arrays.  Only this block's sort order is ever alive,
        so construction memory follows the block, not the matrix.
        """
        n = self.n
        grid = self._grid
        cols = slice(lo, lo + sub.shape[1])
        order = np.argsort(sub, axis=0, kind="stable")  # NaNs last
        present = ~np.isnan(sub)
        self._present_cont[:, cols] = present
        counts = np.sum(present, axis=0)
        self._present_counts[cols] = counts
        np.put_along_axis(
            segment[:, cols], order, sorted_segment[:, None], axis=0
        )
        below = np.take_along_axis(sub, order[np.maximum(grid - 1, 0)], axis=0)
        above = np.take_along_axis(sub, order[np.minimum(grid, n - 1)], axis=0)
        self._split_lo[:, cols] = below
        self._split_hi[:, cols] = above
        # Split k is valid when the value at k-1 differs from k (or k is
        # at either extreme); splits beyond the present count are invalid.
        valid = np.ones((grid.size, sub.shape[1]), dtype=bool)
        interior = (grid > 0) & (grid < n)
        with np.errstate(invalid="ignore"):
            valid[interior] = below[interior] != above[interior]
        valid &= grid[:, None] <= counts[None, :]
        self._valid[:, cols] = valid

    def best_stump(self, weights: np.ndarray) -> Stump:
        """Return the Z-minimising stump over all features for ``weights``."""
        weights = np.asarray(weights, dtype=float)
        if weights.shape != (self.n,):
            raise ValueError("weights must be 1-D with one entry per row")

        best: Stump | None = None
        if self._cont_cols.size:
            best = self._best_continuous(weights)
        for slot, col_idx in enumerate(self._cat_cols):
            cand = self._best_categorical(weights, slot, int(col_idx))
            if cand is not None and (best is None or cand.z < best.z):
                best = cand
        if best is None:
            raise ValueError("no usable feature found")
        return best

    def _continuous_threshold(self, row: int, slot: int) -> float:
        k = int(self._grid[row])
        m = int(self._present_counts[slot])
        if k == 0:
            return -math.inf
        if k >= m:
            return math.inf
        return 0.5 * float(self._split_lo[row, slot] + self._split_hi[row, slot])

    def _best_continuous(self, weights: np.ndarray) -> Stump:
        cols = self._cont_cols
        y_pos = self.y > 0

        present = self._present_cont
        w_col = np.multiply(weights[:, None], present, out=self._buf_wcol)
        w_pos_col = np.multiply(w_col, y_pos[:, None], out=self._buf_wposcol)
        w_pos_tot = np.sum(w_pos_col, axis=0)
        w_tot = np.sum(w_col, axis=0)
        w_neg_tot = w_tot - w_pos_tot

        total_pos = float(np.sum(weights[y_pos]))
        total = float(np.sum(weights))
        wp_miss = np.clip(total_pos - w_pos_tot, 0.0, None)
        wn_miss = np.clip((total - total_pos) - w_neg_tot, 0.0, None)
        z_miss, s_miss = _missing_block_terms(
            wp_miss, wn_miss, self.eps, self.missing_policy
        )

        # The cumulative weight below each candidate split is only ever
        # read at the G grid positions, so it is built from per-segment
        # totals (one weighted ``bincount`` whose G x C output stays
        # cache-resident) followed by a prefix sum over segments -- O(n)
        # reads but only O(G) writes per column, instead of a full sorted
        # gather + length-n cumulative sum.
        seg_w = np.bincount(
            self._flat_segment, weights=w_col.ravel(),
            minlength=self._n_segment_bins,
        ).reshape(-1, cols.size)
        seg_wpos = np.bincount(
            self._flat_segment, weights=w_pos_col.ravel(),
            minlength=self._n_segment_bins,
        ).reshape(-1, cols.size)
        wp_lo = self._buf_wp_lo
        wn_lo = self._buf_wn_lo
        np.cumsum(seg_wpos, axis=0, out=wp_lo[1:])
        np.cumsum(seg_w, axis=0, out=wn_lo[1:])
        np.subtract(wn_lo, wp_lo, out=wn_lo)
        wp_hi = np.subtract(w_pos_tot[None, :], wp_lo, out=self._buf_wp_hi)
        wn_hi = np.subtract(w_neg_tot[None, :], wn_lo, out=self._buf_wn_hi)
        # Numerical guard: cumsum round-off can leave tiny negatives.
        np.clip(wp_hi, 0.0, None, out=wp_hi)
        np.clip(wn_hi, 0.0, None, out=wn_hi)
        np.clip(wn_lo, 0.0, None, out=wn_lo)
        z = _split_z(wp_lo, wn_lo, wp_hi, wn_hi, z_miss[None, :], out=self._buf_z)
        z[~self._valid] = np.inf

        flat = int(np.argmin(z))
        row, slot = divmod(flat, cols.size)
        return Stump(
            feature=int(cols[slot]),
            threshold=self._continuous_threshold(row, slot),
            s_lo=_block_score(
                float(wp_lo[row, slot]), float(wn_lo[row, slot]), self.eps
            ),
            s_hi=_block_score(
                float(wp_hi[row, slot]), float(wn_hi[row, slot]), self.eps
            ),
            s_miss=float(s_miss[slot]),
            categorical=False,
            z=float(z[row, slot]),
        )

    def _best_categorical(
        self, weights: np.ndarray, slot: int, col_idx: int
    ) -> Stump | None:
        values = self._cat_values[slot]
        if values.size == 0:
            return None
        masks = self._cat_masks[slot]  # (n, n_values)
        col = self.X[:, col_idx]
        present = ~np.isnan(col)
        y_pos = self.y > 0

        w_present = weights * present
        wp_tot = float(np.sum(w_present[y_pos]))
        wn_tot = float(np.sum(w_present[~y_pos]))
        wp_miss = float(np.sum(weights[~present & y_pos]))
        wn_miss = float(np.sum(weights[~present & ~y_pos]))
        z_miss_arr, s_miss_arr = _missing_block_terms(
            np.array([wp_miss]), np.array([wn_miss]), self.eps,
            self.missing_policy,
        )
        z_miss = float(z_miss_arr[0])
        s_miss = float(s_miss_arr[0])

        wp_eq = np.sum((weights * y_pos)[:, None] * masks, axis=0)
        wn_eq = np.sum((weights * ~y_pos)[:, None] * masks, axis=0)
        wp_ne = np.clip(wp_tot - wp_eq, 0.0, None)
        wn_ne = np.clip(wn_tot - wn_eq, 0.0, None)
        z = _split_z(wp_eq, wn_eq, wp_ne, wn_ne, z_miss)
        j = int(np.argmin(z))
        return Stump(
            feature=col_idx,
            threshold=float(values[j]),
            s_lo=_block_score(float(wp_ne[j]), float(wn_ne[j]), self.eps),
            s_hi=_block_score(float(wp_eq[j]), float(wn_eq[j]), self.eps),
            s_miss=s_miss,
            categorical=True,
            z=float(z[j]),
        )


class _ContinuousRun:
    """Boundary-scan buffers for histogram-table rows ``start:stop``."""

    __slots__ = ("start", "stop", "lo", "hi", "z", "z_hi")

    def __init__(self, start: int, stop: int, width: int):
        rows = stop - start
        self.start = start
        self.stop = stop
        # Per-class prefix sums below boundary k; column 0 is the "split
        # before everything" boundary and stays 0.
        self.lo = np.zeros((rows, 2, width))
        self.hi = np.empty((rows, 2, width))
        self.z = np.empty((rows, width))
        self.z_hi = np.empty((rows, width))


class HistStumpSearch:
    """Histogram-binned best-stump search over a pre-binned matrix.

    The LightGBM trick applied to Schapire-Singer stumps: features are
    quantised once into a :class:`~repro.ml.binning.BinnedDataset`, and
    each boosting round builds per-bin class-weight histograms, then
    scans the ~``max_bins`` bin boundaries instead of ``n`` sorted row
    positions.

    Candidate thresholds are the dataset's bin edges, which
    :meth:`BinnedDataset.from_matrix` places exactly where the exact
    search puts *its* candidates: at every distinct-value midpoint when a
    feature has at most ``max_bins`` distinct values (the regime where
    this search scans the identical candidate set as the uncapped exact
    search and recovers the same stump), and on the exact search's
    quantile-rank grid above that.  Missing values live in a dedicated
    bin, so both ``missing_policy`` values behave exactly as in
    :class:`StumpSearch` -- with the missing block's weights read straight
    off the histogram instead of by subtraction.

    One round is one fused histogram table of shape ``(P, 2, W)``:
    feature, class (negative, positive), bin.  Features follow
    :meth:`BinnedDataset.histogram_runs` -- narrow continuous, wide
    continuous, then categorical.  ``W`` is the widest feature's value
    bins plus one, and every feature's missing bin sits in the last
    column ``W - 1``.  The label-dependent flat index into the table is
    built once per search (:meth:`BinnedDataset.histogram_key` plus
    ``W`` for positive rows), so a round fills every class histogram
    with one weighted ``np.bincount`` per feature block.  Blocks are
    contiguous feature ranges of at most ``_HIST_PARALLEL_MIN_CELLS``
    cells (rows x features); a table of more than one block fans its
    blocks out over :func:`repro.parallel.parallel_map`.  Each block
    sums its own features' bins in row order, so the per-bin sums -- and
    the stumps -- are identical for every worker count.

    Each continuous run is scanned as a plain view of the table, the
    narrow run only up to its own widest feature.  The scan needs no
    validity mask: a boundary ``k`` past feature ``f``'s value bins only
    adds empty bins, so its Z equals the one at ``k = n_value_bins[f]``
    exactly and the boundary-major ``argmin`` always picks that earlier
    boundary instead (DESIGN.md section 7).  All categorical slots are
    searched in one padded pass.
    """

    def __init__(
        self,
        binned: BinnedDataset,
        y: np.ndarray,
        missing_policy: str = "score",
        workers: int | None = None,
    ):
        """Args:
            binned: the pre-binned feature matrix (built once, shared
                with selection and any other consumer).
            y: labels in {-1, +1}.
            missing_policy: "score" or "abstain" (see module docstring).
            workers: explicit fabric worker count for the per-round
                histogram fan-out; ``None`` reads ``REPRO_WORKERS``.
        """
        _check_policy(missing_policy)
        y = np.asarray(y, dtype=float)
        n = binned.n_rows
        if y.shape != (n,):
            raise ValueError("y must be 1-D with one label per binned row")
        self.binned = binned
        self.n = n
        self.n_features = binned.n_features
        self.eps = _EPS_SCALE / n
        self.y = y
        self.missing_policy = missing_policy
        self.categorical = binned.categorical
        self._nvb = binned.n_value_bins.astype(np.int64)
        self._workers = workers

        narrow, wide, cats = binned.histogram_runs()
        features = np.concatenate([narrow, wide, cats])
        P = features.size
        W = binned.n_bins_total
        C = narrow.size + wide.size
        self._features = features
        self._W = W
        self._n_cont = C
        # Continuous boundary scans: the narrow run over its own widest
        # feature's columns, the wide run over the whole table width.
        self._runs = [
            _ContinuousRun(start, stop, width)
            for start, stop, width in (
                (0, narrow.size, int(self._nvb[narrow].max(initial=0)) + 1),
                (narrow.size, C, W),
            )
            if stop > start
        ]

        # Contiguous feature blocks of at most _HIST_PARALLEL_MIN_CELLS
        # cells; each block's bincount indexes its own table slice.
        per_block = max(1, _HIST_PARALLEL_MIN_CELLS // n)
        bounds = list(range(0, P, per_block)) + [P]
        self._blocks = list(zip(bounds[:-1], bounds[1:]))
        key = binned.histogram_key() + W * (y > 0)
        for lo, hi in self._blocks[1:]:
            key[lo:hi] -= lo * 2 * W
        self._key = key
        # Every block bins the same weights, so one tile serves them all.
        self._weight_tile = np.empty((min(per_block, P), n))

        n_cats = np.array(
            [binned.values[f].size for f in features[C:]], dtype=np.int64
        )
        if n_cats.size:
            width = int(n_cats.max())
            self._cat_width = width
            self._cat_pad = np.arange(width)[None, :] >= n_cats[:, None]
            # Category totals are summed per distinct category count: a
            # zero-padded row can reorder numpy's pairwise summation, an
            # exact-width row sums exactly like np.sum over that slot's
            # categories alone.
            self._cat_groups = [
                (np.flatnonzero(n_cats == count), int(count))
                for count in np.unique(n_cats)
            ]

    # ----- per-round histogram build ------------------------------------

    def _block_histograms(self, block: tuple[int, int]) -> np.ndarray:
        lo, hi = block
        counts = np.bincount(
            self._key[lo:hi].ravel(),
            weights=self._weight_tile[: hi - lo].ravel(),
            minlength=(hi - lo) * 2 * self._W,
        )
        return counts.reshape(hi - lo, 2, self._W)

    def _histograms(self, weights: np.ndarray) -> np.ndarray:
        """The ``(P, 2, W)`` class-weight histogram table for ``weights``."""
        np.copyto(self._weight_tile, weights)
        if len(self._blocks) == 1:
            return self._block_histograms(self._blocks[0])
        return np.concatenate(parallel_map(
            self._block_histograms,
            self._blocks,
            workers=self._workers,
            task_label="train.hist_block",
        ))

    # ----- search --------------------------------------------------------

    def best_stump(self, weights: np.ndarray) -> Stump:
        """Return the Z-minimising stump over all features for ``weights``."""
        weights = np.asarray(weights, dtype=float)
        if weights.shape != (self.n,):
            raise ValueError("weights must be 1-D with one entry per row")
        if not self._features.size:
            raise ValueError("no usable feature found")
        table = self._histograms(weights)
        z_miss, s_miss = _missing_block_terms(
            table[:, 1, -1], table[:, 0, -1], self.eps, self.missing_policy
        )
        C = self._n_cont
        best, best_k = None, 0
        for run in self._runs:
            cand, k = self._best_continuous(run, table, z_miss, s_miss)
            # Boundary-major across runs as within one: lowest Z, then
            # lowest boundary, then lowest column.
            if best is None or (cand.z, k, cand.feature) < (
                best.z, best_k, best.feature
            ):
                best, best_k = cand, k
        if self._features.size > C:
            cand = self._best_categorical(table[C:], z_miss[C:], s_miss[C:])
            if best is None or cand.z < best.z:
                best = cand
        return best

    def _best_continuous(
        self,
        run: _ContinuousRun,
        table: np.ndarray,
        z_miss: np.ndarray,
        s_miss: np.ndarray,
    ) -> tuple[Stump, int]:
        """The run's best stump and its boundary ``k``."""
        lo, hi = run.lo, run.hi
        rows, width = run.z.shape
        # Columns width-1.. hold no value bin of the run (the table's last
        # column is the missing bin): prefix sums cover present weight
        # only, and lo[..., -1] is each feature's present total.
        hist = table[run.start:run.stop, :, : width - 1]
        np.cumsum(hist, axis=2, out=lo[:, :, 1:])
        np.subtract(lo[:, :, -1:], lo, out=hi)
        np.maximum(hi, 0.0, out=hi)

        z = _split_z(
            lo[:, 1], lo[:, 0], hi[:, 1], hi[:, 0],
            z_miss[run.start:run.stop, None], out=run.z, scratch=run.z_hi,
        )

        # Boundary-major argmin, matching the exact search's tie-break
        # (lowest candidate split first, then lowest feature slot).
        k, c = divmod(int(np.argmin(z.T)), rows)
        feature = int(self._features[run.start + c])
        m = int(self._nvb[feature])
        if k == 0:
            threshold = -math.inf
        elif k >= m:
            threshold = math.inf
        else:
            threshold = float(self.binned.edges[feature][k - 1])
        stump = Stump(
            feature=feature,
            threshold=threshold,
            s_lo=_block_score(float(lo[c, 1, k]), float(lo[c, 0, k]), self.eps),
            s_hi=_block_score(float(hi[c, 1, k]), float(hi[c, 0, k]), self.eps),
            s_miss=float(s_miss[run.start + c]),
            categorical=False,
            z=float(z[c, k]),
        )
        return stump, k

    def _best_categorical(
        self, hist: np.ndarray, z_miss: np.ndarray, s_miss: np.ndarray
    ) -> Stump:
        width = self._cat_width
        eq = hist[:, :, :width]
        tot = np.empty(eq.shape[:2])
        for rows, count in self._cat_groups:
            tot[rows] = hist[rows, :, :count].sum(axis=2)
        ne = tot[:, :, None] - eq
        np.maximum(ne, 0.0, out=ne)
        z = _split_z(eq[:, 1], eq[:, 0], ne[:, 1], ne[:, 0], z_miss[:, None])
        z[self._cat_pad] = np.inf
        # Slot-major argmin: the first slot in column order reaching the
        # minimum, and its first such category -- what a slot-by-slot
        # strict-< scan picks.
        s, j = divmod(int(np.argmin(z)), width)
        feature = int(self._features[self._n_cont + s])
        return Stump(
            feature=feature,
            threshold=float(self.binned.values[feature][j]),
            s_lo=_block_score(float(ne[s, 1, j]), float(ne[s, 0, j]), self.eps),
            s_hi=_block_score(float(eq[s, 1, j]), float(eq[s, 0, j]), self.eps),
            s_miss=float(s_miss[s]),
            categorical=True,
            z=float(z[s, j]),
        )

    # ----- per-round outputs from bin codes ------------------------------

    def score_table(self, stump: Stump) -> np.ndarray:
        """Per-bin output table of a stump over its feature's bins.

        Entry ``b`` is the stump's output for every row in bin ``b`` of
        ``stump.feature`` (the last entry is the missing bin), so the
        per-row outputs are a single table gather over the bin codes --
        no float comparisons against the rows at all.
        """
        f = stump.feature
        nvb = int(self._nvb[f])
        table = np.full(nvb + 1, stump.s_lo)
        if stump.categorical:
            values = self.binned.values[f]
            j = int(np.searchsorted(values, stump.threshold))
            if j < values.size and values[j] == stump.threshold:
                table[j] = stump.s_hi
        else:
            if stump.threshold == -math.inf:
                k = 0
            elif stump.threshold == math.inf:
                k = nvb
            else:
                edges = self.binned.edges[f]
                k = int(np.searchsorted(edges, stump.threshold, side="left")) + 1
            table[k:nvb] = stump.s_hi
        table[nvb] = stump.s_miss
        return table

    def round_outputs(self, stump: Stump) -> np.ndarray:
        """Per-row outputs ``h_t`` of a stump fitted by this search.

        Equals ``stump.predict`` on the original matrix whenever the
        stump's threshold is one of the feature's bin edges (always true
        for stumps this search returns), because bin membership and the
        stump test are the same ``x >= edge`` comparison.
        """
        return self.score_table(stump)[self.binned.codes[stump.feature]]
