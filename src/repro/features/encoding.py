"""Table-3 feature encoding.

The weekly line tests give at most 52 records per line per year -- far too
coarse for classic time-series pattern mining.  Section 4.2's answer is to
*encode* each line's measurement history at prediction time ``t`` into a
fixed vector of feature families:

==============  ==========================================================
family          definition (Table 3)
==============  ==========================================================
basic           the current week's 25 line features, ``l_iK``
delta           change vs the previous week, ``l_iK - l_i(K-1)``
timeseries      standardised deviation from the long-term history,
                ``(l_iK - mean(l_i)) / std(l_i)``
profile         basic features divided by the expectation from the
                subscriber's service profile
ticket          days since the customer's most recent trouble ticket
modem           fraction of history weeks the modem was off during the test
quadratic       squares of every history/customer feature
product         pairwise products of history/customer features
==============  ==========================================================

Missing records (modem off) propagate as NaN so that the stump learner's
abstention semantics apply; categorical basics (state / bt / crosstalk)
are already binary so the paper's m-way expansion is the identity here.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.measurement.records import (
    CATEGORICAL_FEATURES,
    FEATURE_NAMES,
    MeasurementStore,
    feature_index,
)
from repro.netsim.population import Population
from repro.netsim.profiles import PROFILES
from repro.tickets.ticketing import TicketLog

__all__ = ["EncoderConfig", "FeatureSet", "LineFeatureEncoder", "product_feature"]

#: Basic features with a profile-defined expectation (Table-3 "Profile").
_PROFILE_FEATURES: tuple[str, ...] = (
    "dnbr", "upbr", "dnnmr", "upnmr", "dnrelcap", "uprelcap"
)

#: Cap (days) on the "time since last ticket" feature for ticket-free lines.
_NO_TICKET_CAP_DAYS = 365.0

#: Lines per row tile of the time-series kernel: the tile's five
#: ``(tile, 25)`` float64/int temporaries (~200 KB each at 1024 rows)
#: stay cache-resident across both passes over the history weeks.
TIMESERIES_TILE_ROWS = 1024


@dataclass(frozen=True)
class EncoderConfig:
    """Feature-encoding knobs.

    Attributes:
        history_weeks: how far back the time-series statistics look.
        min_history_records: minimum present records needed before the
            time-series deviation is defined (else NaN).
        include_quadratic: emit squared derived features.
        include_products: emit pairwise-product derived features for the
            given base-feature index pairs (see
            :meth:`LineFeatureEncoder.encode`).
    """

    history_weeks: int = 26
    min_history_records: int = 3
    include_quadratic: bool = False
    include_products: bool = False


@dataclass
class FeatureSet:
    """An encoded feature matrix with aligned metadata.

    Attributes:
        matrix: (n_lines, n_features) float array, NaN = missing.
        names: feature names, e.g. ``"delta:dnbr"`` or
            ``"prod:dnnmr*looplength"``.
        groups: Table-3 family of each column (``basic``, ``delta``,
            ``timeseries``, ``profile``, ``ticket``, ``modem``,
            ``quadratic``, ``product``).
        categorical: stump-learner categorical mask per column.
    """

    matrix: np.ndarray
    names: list[str]
    groups: list[str]
    categorical: np.ndarray

    @property
    def n_features(self) -> int:
        return self.matrix.shape[1]

    def column(self, name: str) -> np.ndarray:
        """A single feature column by name."""
        try:
            idx = self.names.index(name)
        except ValueError:
            raise KeyError(f"unknown feature {name!r}") from None
        return self.matrix[:, idx]

    def subset(self, indices: np.ndarray | list[int]) -> "FeatureSet":
        """A new FeatureSet holding only the given columns."""
        indices = np.asarray(indices, dtype=int)
        return FeatureSet(
            matrix=self.matrix[:, indices],
            names=[self.names[i] for i in indices],
            groups=[self.groups[i] for i in indices],
            categorical=self.categorical[indices],
        )


def product_feature(matrix: np.ndarray, i: int, j: int) -> np.ndarray:
    """The product column ``matrix[:, i] * matrix[:, j]`` (NaN propagates)."""
    return matrix[:, i] * matrix[:, j]


@dataclass
class LineFeatureEncoder:
    """Encodes measurement history into Table-3 features at a given week."""

    config: EncoderConfig = field(default_factory=EncoderConfig)

    def encode(
        self,
        measurements: MeasurementStore,
        week: int,
        population: Population,
        ticket_log: TicketLog | None = None,
        product_pairs: list[tuple[int, int]] | None = None,
    ) -> FeatureSet:
        """Encode all lines at prediction week ``week``.

        Args:
            measurements: the weekly measurement store.
            week: index of the most recent campaign, ``t_K`` in the paper;
                must already be recorded.
            population: static subscriber data (profiles).
            ticket_log: ticket history for the "ticket" feature; omit to
                encode a 0-history cold start.
            product_pairs: index pairs (into the *history+customer* part
                of the output, i.e. everything before the derived block)
                whose products to emit when
                ``config.include_products`` is True; None means all pairs.

        Returns:
            A :class:`FeatureSet` over all lines.
        """
        cfg = self.config
        if week not in measurements.filled_weeks:
            raise ValueError(f"week {week} has no recorded campaign")
        n = measurements.n_lines
        n_basic = len(FEATURE_NAMES)
        base_count = self.base_feature_count()
        if not cfg.include_products:
            product_pairs = []
        elif product_pairs is None:
            product_pairs = [
                (i, j) for i in range(base_count) for j in range(i + 1, base_count)
            ]
        for i, j in product_pairs:
            if not (0 <= i < base_count and 0 <= j < base_count):
                raise IndexError(f"product pair ({i}, {j}) out of base range")
        n_quad = base_count if cfg.include_quadratic else 0

        # Every block is written straight into its column slice of one
        # preallocated matrix; each op is elementwise, so the values are
        # those of building the blocks apart and stacking them.
        matrix = np.empty((n, base_count + n_quad + len(product_pairs)))
        names: list[str] = []
        groups: list[str] = []

        def columns(group: str, labels: list[str]) -> None:
            names.extend(labels)
            groups.extend([group] * len(labels))

        # --- basic -------------------------------------------------------
        current = matrix[:, :n_basic]
        np.copyto(current, measurements.week_matrix(week))
        columns("basic", [f"basic:{f}" for f in FEATURE_NAMES])

        # --- delta -------------------------------------------------------
        delta = matrix[:, n_basic:2 * n_basic]
        if week >= 1 and (week - 1) in measurements.filled_weeks:
            np.copyto(delta, measurements.week_matrix(week - 1))
            np.subtract(current, delta, out=delta)
        else:
            delta[...] = np.nan
        columns("delta", [f"delta:{f}" for f in FEATURE_NAMES])

        # --- time-series ---------------------------------------------------
        self._timeseries_block(
            measurements, week, current, matrix[:, 2 * n_basic:3 * n_basic]
        )
        columns("timeseries", [f"ts:{f}" for f in FEATURE_NAMES])

        # --- profile -------------------------------------------------------
        profile_stop = 3 * n_basic + len(_PROFILE_FEATURES)
        self._profile_block(
            current, population, matrix[:, 3 * n_basic:profile_stop]
        )
        columns("profile", [f"profile:{f}" for f in _PROFILE_FEATURES])

        # --- ticket --------------------------------------------------------
        pred_day = int(measurements.saturday_day[week])
        if ticket_log is not None:
            last_day = ticket_log.last_ticket_day_before(n, pred_day)
            matrix[:, profile_stop] = np.where(
                last_day >= 0, pred_day - last_day, _NO_TICKET_CAP_DAYS
            )
        else:
            matrix[:, profile_stop] = _NO_TICKET_CAP_DAYS
        columns("ticket", ["ticket:days_since_last"])

        # --- modem ---------------------------------------------------------
        matrix[:, profile_stop + 1] = measurements.modem_off_fraction(
            upto_week=week + 1
        )
        columns("modem", ["modem:off_fraction"])

        # --- derived: quadratic ---------------------------------------------
        base = matrix[:, :base_count]
        if n_quad:
            np.square(base, out=matrix[:, base_count:base_count + n_quad])
            columns("quadratic", [f"quad:{name}" for name in names[:base_count]])

        # --- derived: product -----------------------------------------------
        for slot, (i, j) in enumerate(product_pairs, start=base_count + n_quad):
            np.multiply(base[:, i], base[:, j], out=matrix[:, slot])
        columns("product",
                [f"prod:{names[i]}*{names[j]}" for i, j in product_pairs])

        categorical = np.zeros(len(names), dtype=bool)
        categorical[:n_basic] = [f in CATEGORICAL_FEATURES for f in FEATURE_NAMES]
        return FeatureSet(
            matrix=matrix, names=names, groups=groups, categorical=categorical
        )

    def base_feature_count(self) -> int:
        """Number of history+customer columns before any derived block."""
        return 3 * len(FEATURE_NAMES) + len(_PROFILE_FEATURES) + 2

    def _timeseries_block(
        self,
        measurements: MeasurementStore,
        week: int,
        current: np.ndarray,
        deviation: np.ndarray,
    ) -> None:
        """Table-3 "timeseries": ``(l_iK - mean(l_i)) / std(l_i)`` per line,
        written into ``deviation`` (the block's column slice of the
        encoded matrix).

        A streaming kernel over the history weeks, run one row tile of
        :data:`TIMESERIES_TILE_ROWS` lines at a time: each week's
        ``(tile, features)`` slice -- contiguous in the store's
        week-major cube -- is copied into one reused float64 buffer, and
        the ``(lines, weeks, features)`` cube is never gathered.  Pass 1
        folds each line's present-record count and NaN-as-zero sum;
        pass 2 folds the squared deviations from that mean, missing
        records contributing ``+0.0``.  That is exactly the arithmetic of
        ``np.nanmean`` / ``np.nanstd`` (ddof 0) along the week axis of
        the gathered cube, in numpy's own order for a reduction over a
        non-contiguous axis: sequential over the weeks, seeded with the
        first week rather than with ``+0.0``.  Every operation is
        elementwise per (line, feature), so neither the tiling nor the
        storage layout enters the arithmetic, and the block is
        bit-identical to that formulation, signed zeros and NaN payloads
        included.
        """
        cfg = self.config
        history = measurements.filled_weeks
        history = history[(history < week) & (history >= week - cfg.history_weeks)]
        if history.size == 0:
            deviation[...] = np.nan
            return
        cube = measurements.cube
        n_lines = current.shape[0]
        tile = min(TIMESERIES_TILE_ROWS, n_lines)
        missing = np.empty((tile, current.shape[1]), dtype=bool)
        absent = np.empty(missing.shape, dtype=np.intp)
        buf, total, squares = (np.empty(missing.shape) for _ in range(3))
        with np.errstate(all="ignore"):
            for start in range(0, n_lines, tile):
                rows = slice(start, start + tile)
                n = min(tile, n_lines - start)
                t_missing, t_absent = missing[:n], absent[:n]
                t_buf, t_total, t_squares = buf[:n], total[:n], squares[:n]
                t_absent[...] = 0
                for k, w in enumerate(history):
                    # The first week is written straight into the accumulator.
                    out = t_buf if k else t_total
                    np.copyto(out, cube[w, rows])
                    np.isnan(out, out=t_missing)
                    t_absent += t_missing
                    np.copyto(out, 0.0, where=t_missing)
                    if k:
                        t_total += t_buf
                counts = np.subtract(history.size, t_absent, out=t_absent)
                mean = np.divide(t_total, counts, out=t_total)
                for k, w in enumerate(history):
                    out = t_buf if k else t_squares
                    np.copyto(out, cube[w, rows])
                    np.isnan(out, out=t_missing)
                    out -= mean
                    np.copyto(out, 0.0, where=t_missing)
                    out *= out
                    if k:
                        t_squares += t_buf
                std = np.divide(t_squares, counts, out=t_squares)
                np.sqrt(std, out=std)
                np.copyto(std, np.nan, where=~(std > 1e-9))
                out = np.subtract(current[rows], mean, out=deviation[rows])
                out /= std
                np.copyto(out, np.nan, where=counts < cfg.min_history_records)

    def _profile_block(
        self, current: np.ndarray, population: Population, out: np.ndarray
    ) -> None:
        expectations = self._profile_expectations(population)
        with np.errstate(divide="ignore", invalid="ignore"):
            for slot, fname in enumerate(_PROFILE_FEATURES):
                np.divide(current[:, feature_index(fname)],
                          expectations[:, slot], out=out[:, slot])

    @staticmethod
    def _profile_expectations(population: Population) -> np.ndarray:
        """(n_lines, len(_PROFILE_FEATURES)) expected values per line."""
        per_profile = np.array(
            [
                [
                    p.down_kbps,
                    p.up_kbps,
                    p.target_noise_margin_db,
                    p.target_noise_margin_db,
                    p.expected_relative_capacity,
                    p.expected_relative_capacity,
                ]
                for p in PROFILES
            ]
        )
        return per_profile[population.profile_idx]
