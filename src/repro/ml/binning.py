"""Shared feature pre-binning for histogram-based stump training.

The exact stump search pays a sorted-domain pass over all rows for every
feature every boosting round.  At the paper's scale (800 rounds over
millions of line-weeks, retrained continuously by the lifecycle loop)
that makes *training* the dominant recurring cost.  The standard remedy
-- LightGBM's histogram trick -- is to quantise each feature **once** up
front into a small number of bins and make every boosting round operate
on per-bin aggregates instead of per-row sorted scans.

:class:`BinnedDataset` is that one-time quantisation, shared by every
consumer that would otherwise re-sort the same matrix:

* ``BStump.fit(backend="hist")`` via
  :class:`repro.ml.stumps.HistStumpSearch`, whose per-round class
  histograms are one ``np.bincount`` over a flat table index derived
  from the bin codes once per binning
  (:meth:`BinnedDataset.histogram_key`);
* the AP(N) selection sweep (:mod:`repro.features.sweep`), whose
  single-feature boosting recurrence collapses onto per-bin weights;
* the ticket predictor's select-then-train path, which bins the feature
  matrix exactly once and reuses column subsets
  (:meth:`BinnedDataset.select` / :meth:`BinnedDataset.hstack`) for the
  final model fit.

Bin-edge placement mirrors the exact search's candidate thresholds:

* a feature with at most ``max_bins`` distinct present values gets one
  bin per value, with edges at the midpoints between adjacent distinct
  values -- exactly the thresholds the uncapped exact search scans, which
  is what makes the hist backend's split search *identical* to the exact
  one in this regime (see DESIGN.md section 7);
* above that, edges sit at the midpoints of the same quantile-rank grid
  ``StumpSearch`` caps its candidate splits to, so both backends scan
  the same ~``max_bins`` candidate thresholds on high-cardinality
  columns;
* missing values (NaN) take a dedicated trailing bin -- missingness is
  informative here (the paper's "modem" feature), so the NaN bin is a
  scored block exactly like the exact search's missing block;
* categorical features get one bin per category (the stump test is
  equality, not order).

Bin codes are ``uint8`` when they fit and ``uint16`` otherwise, so the
per-round histogram pass streams 1-2 bytes per cell instead of the 8-byte
floats the exact search gathers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = ["BinnedDataset", "DEFAULT_MAX_BINS", "NARROW_RUN_MIN_SAVED_CELLS"]

#: Default bin budget per feature, aligned with ``StumpSearch``'s default
#: ``max_split_points`` so both backends scan comparable candidate sets.
DEFAULT_MAX_BINS = 256

#: Boundary cells ((feature, bin) pairs) a narrow continuous run must
#: save before the histogram search scans it apart from the wide run:
#: one more run costs a fixed dozen numpy calls per round, about 1,600
#: cells of scan work on a 2-vCPU x86 host.
NARROW_RUN_MIN_SAVED_CELLS = 2048


def _split_grid(n: int, max_split_points: int) -> np.ndarray:
    """Candidate split positions 0..n -- the same grid as StumpSearch."""
    if n + 1 > max_split_points:
        return np.unique(np.round(np.linspace(0, n, max_split_points)).astype(int))
    return np.arange(n + 1)


def _continuous_edges(
    column: np.ndarray, n_rows: int, max_bins: int
) -> tuple[np.ndarray, bool]:
    """Bin-edge thresholds for one continuous column.

    Returns ``(edges, exact)`` where ``edges`` is strictly increasing and
    ``exact`` is True when every distinct present value got its own bin
    (the regime with the exact-equivalence guarantee).  Bin membership is
    defined *by* the edges under the stump's own ``x >= threshold`` test:
    ``bin(x) = searchsorted(edges, x, side="right")``, so a stump at edge
    ``b`` routes exactly the rows of bins ``<= b`` to its low block.
    """
    present = column[~np.isnan(column)]
    if present.size == 0:
        return np.empty(0), True
    vals = np.sort(present)
    m = vals.size
    distinct = np.flatnonzero(vals[1:] != vals[:-1]) + 1  # boundary ranks
    if distinct.size + 1 <= max_bins:
        ranks = distinct
        exact = True
    else:
        grid = _split_grid(n_rows, max_bins)
        ranks = grid[(grid >= 1) & (grid <= m - 1)]
        ranks = ranks[vals[ranks - 1] != vals[ranks]]  # ties cannot split
        exact = False
    if ranks.size == 0:
        return np.empty(0), exact
    edges = 0.5 * (vals[ranks - 1] + vals[ranks])
    # Adjacent floats can midpoint-round onto a neighbour; keep edges
    # strictly increasing so every bin is a non-empty half-open interval.
    return np.unique(edges), exact


@dataclass(frozen=True)
class BinnedDataset:
    """A feature matrix quantised once for histogram-based training.

    The histogram search reads the codes through
    :meth:`histogram_key`, a flat ``(feature, class, bin)`` table index
    cached on the dataset, so every head trained over one binning shares
    it; :meth:`histogram_runs` fixes the table's feature order.

    Attributes:
        codes: (n_features, n_rows) bin codes, feature-major so each
            feature's row is contiguous.
            Continuous feature ``f``: code ``b`` means
            ``edges[f][b-1] <= x < edges[f][b]`` (with the obvious open
            ends); categorical: code ``b`` means ``x == values[f][b]``.
            Missing values carry ``n_value_bins[f]``.
        n_value_bins: (n_features,) count of non-missing bins per
            feature; the missing bin's code equals this value.
        edges: per continuous feature, the strictly increasing candidate
            thresholds separating adjacent bins (``None`` for
            categorical features).
        values: per categorical feature, the category value of each bin
            (``None`` for continuous features).
        categorical: (n_features,) categorical mask.
        exact: (n_features,) True where binning kept every distinct
            value separate -- the regime in which the hist search scans
            the identical candidate set as the uncapped exact search.
        max_bins: the bin budget the dataset was built with.
    """

    codes: np.ndarray
    n_value_bins: np.ndarray
    edges: list[np.ndarray | None]
    values: list[np.ndarray | None]
    categorical: np.ndarray
    exact: np.ndarray
    max_bins: int

    @property
    def n_features(self) -> int:
        return self.codes.shape[0]

    @property
    def n_rows(self) -> int:
        return self.codes.shape[1]

    @property
    def n_bins_total(self) -> int:
        """Histogram width: value bins plus the missing bin, maximised."""
        return int(self.n_value_bins.max()) + 1 if self.n_value_bins.size else 1

    @classmethod
    def from_matrix(
        cls,
        X: np.ndarray,
        categorical: np.ndarray | None = None,
        max_bins: int = DEFAULT_MAX_BINS,
    ) -> "BinnedDataset":
        """Quantise ``X`` (NaN = missing) into per-feature bin codes.

        Args:
            X: (n_rows, n_features) float matrix.
            categorical: per-feature categorical mask (default: none).
            max_bins: bin budget per feature, excluding the missing bin.
                Features with at most this many distinct values are
                binned exactly (one bin per value).
        """
        X = np.asarray(X, dtype=float)
        if X.ndim != 2:
            raise ValueError(f"X must be 2-D, got shape {X.shape}")
        n, F = X.shape
        if n == 0 or F == 0:
            raise ValueError("X must be non-empty")
        if max_bins < 2:
            raise ValueError("max_bins must be at least 2")
        if categorical is None:
            categorical = np.zeros(F, dtype=bool)
        else:
            categorical = np.asarray(categorical, dtype=bool)
            if categorical.shape != (F,):
                raise ValueError("categorical mask must have one entry per feature")

        n_value_bins = np.empty(F, dtype=np.int64)
        edges: list[np.ndarray | None] = []
        values: list[np.ndarray | None] = []
        exact = np.ones(F, dtype=bool)
        codes64 = np.empty((F, n), dtype=np.int64)
        for f in range(F):
            col = X[:, f]
            missing = np.isnan(col)
            if categorical[f]:
                cats = np.unique(col[~missing])
                code = np.zeros(n, dtype=np.int64)
                if cats.size:
                    code[~missing] = np.searchsorted(cats, col[~missing])
                nb = max(int(cats.size), 1)
                code[missing] = nb
                edges.append(None)
                values.append(cats)
            else:
                col_edges, col_exact = _continuous_edges(col, n, max_bins)
                exact[f] = col_exact
                code = np.searchsorted(col_edges, col, side="right")
                nb = int(col_edges.size) + 1
                code[missing] = nb
                edges.append(col_edges)
                values.append(None)
            n_value_bins[f] = nb
            codes64[f] = code
        dtype = np.uint8 if int(n_value_bins.max()) <= np.iinfo(np.uint8).max \
            else np.uint16
        return cls(
            codes=codes64.astype(dtype),
            n_value_bins=n_value_bins,
            edges=edges,
            values=values,
            categorical=categorical.copy(),
            exact=exact,
            max_bins=max_bins,
        )

    def rows(self, rows: Sequence[int] | np.ndarray) -> "BinnedDataset":
        """A new dataset holding only the given rows (mask or indices).

        The row-subset analogue of :meth:`select`, built for
        cross-validation refits: a fold's training subset keeps the
        *parent* matrix's bin edges, category values, and ``exact``
        flags, so every fold scans the one-time quantised codes (a byte
        gather) instead of re-binning and re-sorting ``X[rest]``.  Fold
        models therefore share a single candidate-threshold grid with
        the full-set models -- see DESIGN.md section 11.

        Args:
            rows: boolean mask over the parent rows, or integer row
                indices in the desired order.
        """
        idx = np.asarray(rows)
        if idx.ndim != 1:
            raise ValueError("rows must be a 1-D mask or index sequence")
        if idx.dtype == bool:
            if idx.size != self.n_rows:
                raise ValueError(
                    f"row mask must have {self.n_rows} entries, got {idx.size}"
                )
            idx = np.flatnonzero(idx)
        else:
            idx = idx.astype(np.int64)
            if idx.size and (idx.min() < 0 or idx.max() >= self.n_rows):
                raise IndexError("row index out of range")
        return BinnedDataset(
            codes=self.codes[:, idx],
            n_value_bins=self.n_value_bins,
            edges=self.edges,
            values=self.values,
            categorical=self.categorical,
            exact=self.exact,
            max_bins=self.max_bins,
        )

    def histogram_runs(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The histogram search's feature runs, in table order.

        Returns ``(narrow, wide, categorical)``: the continuous features
        whose value bins plus the missing bin fit in half the table width
        (``n_bins_total``), the other continuous features, and the
        categorical features with at least one category (an all-missing
        categorical has no split), each in column order.  The narrow run
        lets the search scan those features' boundaries in a narrower
        slice; it is folded into the wide run when it would save fewer
        than ``NARROW_RUN_MIN_SAVED_CELLS`` boundary cells.  Cached, so
        the runs and :meth:`histogram_key` always agree.
        """
        cached = getattr(self, "_histogram_runs", None)
        if cached is None:
            width = self.n_bins_total
            continuous = np.flatnonzero(~self.categorical)
            bins = self.n_value_bins[continuous] + 1
            is_narrow = bins <= width // 2
            if is_narrow.any():
                saved = int(is_narrow.sum()) * (
                    width - int(bins[is_narrow].max())
                )
                if saved < NARROW_RUN_MIN_SAVED_CELLS:
                    is_narrow[:] = False
            has_category = np.array(
                [v is not None and v.size > 0 for v in self.values],
                dtype=bool,
            )
            cached = (
                continuous[is_narrow],
                continuous[~is_narrow],
                np.flatnonzero(self.categorical & has_category),
            )
            object.__setattr__(self, "_histogram_runs", cached)
        return cached

    def histogram_key(self) -> np.ndarray:
        """The label-independent histogram index, cached on the dataset.

        Row ``p`` of the ``(P, n_rows)`` ``intp`` result belongs to the
        ``p``-th feature of the concatenated :meth:`histogram_runs`.  It
        holds each row's flat position in the class-0 half of a
        ``(P, 2, n_bins_total)`` table, ``p * 2 * n_bins_total + bin``,
        with the missing bin moved to the last column.
        :class:`~repro.ml.stumps.HistStumpSearch` adds ``n_bins_total``
        for positive rows, so the many heads trained over one shared
        binning (the locator's one-vs-rest models) reuse this array
        instead of each re-deriving it from the codes.  Treat the
        returned array as read-only.
        """
        cached = getattr(self, "_histogram_key", None)
        if cached is None:
            features = np.concatenate(self.histogram_runs())
            width = self.n_bins_total
            cached = self.codes[features].astype(np.intp)
            missing = cached == self.n_value_bins[features][:, None]
            cached[missing] = width - 1
            cached += (2 * width) * np.arange(features.size)[:, None]
            # Frozen dataclass; the cache is idempotent, so a racing
            # double-compute is benign.
            object.__setattr__(self, "_histogram_key", cached)
        return cached

    def select(self, columns: Sequence[int] | np.ndarray) -> "BinnedDataset":
        """A new dataset holding only ``columns``, in the given order.

        This is what lets a select-then-train run bin the feature matrix
        exactly once: the final model trains on a column subset of the
        selection-time binning instead of re-binning.
        """
        cols = np.asarray(columns, dtype=np.int64)
        if cols.ndim != 1:
            raise ValueError("columns must be a 1-D index sequence")
        if cols.size and (cols.min() < 0 or cols.max() >= self.n_features):
            raise IndexError("column index out of range")
        return BinnedDataset(
            codes=self.codes[cols],
            n_value_bins=self.n_value_bins[cols],
            edges=[self.edges[int(c)] for c in cols],
            values=[self.values[int(c)] for c in cols],
            categorical=self.categorical[cols],
            exact=self.exact[cols],
            max_bins=self.max_bins,
        )

    @staticmethod
    def hstack(parts: Sequence["BinnedDataset"]) -> "BinnedDataset":
        """Concatenate datasets column-wise (same rows, same bin budget)."""
        parts = [p for p in parts if p.n_features]
        if not parts:
            raise ValueError("nothing to stack")
        n_rows = parts[0].n_rows
        max_bins = parts[0].max_bins
        for p in parts[1:]:
            if p.n_rows != n_rows:
                raise ValueError("all parts must share the same rows")
            if p.max_bins != max_bins:
                raise ValueError("all parts must share the same bin budget")
        n_value_bins = np.concatenate([p.n_value_bins for p in parts])
        dtype = np.uint8 if int(n_value_bins.max()) <= np.iinfo(np.uint8).max \
            else np.uint16
        return BinnedDataset(
            codes=np.concatenate(
                [p.codes.astype(dtype, copy=False) for p in parts], axis=0
            ),
            n_value_bins=n_value_bins,
            edges=[e for p in parts for e in p.edges],
            values=[v for p in parts for v in p.values],
            categorical=np.concatenate([p.categorical for p in parts]),
            exact=np.concatenate([p.exact for p in parts]),
            max_bins=max_bins,
        )

    def matches(self, X: np.ndarray) -> bool:
        """Cheap shape/dtype sanity check against a feature matrix."""
        X = np.asarray(X)
        return X.ndim == 2 and X.shape == (self.n_rows, self.n_features)
