"""Line-measurement schema and time-series storage.

The 25 basic line features follow Table 2 of the paper.  Prefixes ``dn``
and ``up`` mean downstream (downloading) and upstream (uploading).
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "FEATURE_NAMES",
    "N_FEATURES",
    "CATEGORICAL_FEATURES",
    "FEATURE_DESCRIPTIONS",
    "feature_index",
    "MeasurementStore",
]

#: The 25 Table-2 line features, in canonical column order.
FEATURE_NAMES: tuple[str, ...] = (
    "state",          # 1 if the modem answered the test
    "dnbr", "upbr",                   # bit rate (kbps)
    "dnpwr", "uppwr",                 # signal power (dBm)
    "dnnmr", "upnmr",                 # noise margin (dB)
    "dnaten", "upaten",               # signal attenuation (dB)
    "dnrelcap", "uprelcap",           # relative capacity (fraction)
    "dncvcnt1", "dncvcnt2", "dncvcnt3",   # code-violation interval counts
    "dnescnt1", "dnescnt2",           # errored-second counts
    "dnfeccnt1",                      # FEC counts >= 50
    "hicar",                          # biggest carrier number
    "bt",                             # bridge tap detected (0/1)
    "crosstalk",                      # crosstalk detected (0/1)
    "looplength",                     # estimated loop length (ft)
    "dnmaxattainfbr", "upmaxattainfbr",   # max attainable fast bit rate
    "dncells", "upcells",             # rolling traffic cell counts
)

N_FEATURES = len(FEATURE_NAMES)
if N_FEATURES != 25:
    raise AssertionError(f"Table 2 defines 25 features, schema has {N_FEATURES}")

#: Features treated as categorical by the stump learner.
CATEGORICAL_FEATURES: frozenset[str] = frozenset({"state", "bt", "crosstalk"})

FEATURE_DESCRIPTIONS: dict[str, str] = {
    "state": "whether the modem answered the weekly test",
    "dnbr": "downstream sync bit rate (kbps)",
    "upbr": "upstream sync bit rate (kbps)",
    "dnpwr": "downstream signal power (dBm)",
    "uppwr": "upstream signal power (dBm)",
    "dnnmr": "downstream noise margin (dB)",
    "upnmr": "upstream noise margin (dB)",
    "dnaten": "downstream signal attenuation (dB)",
    "upaten": "upstream signal attenuation (dB)",
    "dnrelcap": "downstream relative capacity (sync/attainable)",
    "uprelcap": "upstream relative capacity (sync/attainable)",
    "dncvcnt1": "code-violation interval count, low threshold",
    "dncvcnt2": "code-violation interval count, mid threshold",
    "dncvcnt3": "code-violation interval count, high threshold",
    "dnescnt1": "seconds with code violations, low threshold",
    "dnescnt2": "seconds with code violations, high threshold",
    "dnfeccnt1": "downstream FEC counts with value >= 50",
    "hicar": "biggest usable carrier number",
    "bt": "bridge tap detected",
    "crosstalk": "crosstalk detected",
    "looplength": "estimated loop length (ft)",
    "dnmaxattainfbr": "max attainable downstream fast bit rate (kbps)",
    "upmaxattainfbr": "max attainable upstream fast bit rate (kbps)",
    "dncells": "rolling downstream cell count",
    "upcells": "rolling upstream cell count",
}

_INDEX = {name: i for i, name in enumerate(FEATURE_NAMES)}


def feature_index(name: str) -> int:
    """Column index of a Table-2 feature name."""
    try:
        return _INDEX[name]
    except KeyError:
        raise KeyError(f"unknown line feature {name!r}") from None


class MeasurementStore:
    """Per-line weekly measurement time-series.

    Data lives in one week-major ``(n_weeks, n_lines, 25)`` float32 cube,
    so a campaign is one contiguous block: recording a week is a plain
    copy and :meth:`week_matrix` is a C-contiguous view.  ``data`` is the
    ``(n_lines, n_weeks, 25)`` transposed view of that cube -- the
    per-line layout every accessor and the Table-3 encoder index by.  A
    fully-NaN feature row (except ``state`` = 0) marks a missed record --
    the modem was off during the Saturday test, the paper's main
    missingness channel.

    Attributes:
        n_lines: subscriber count.
        n_weeks: number of weekly campaigns the store can hold.
        cube: the week-major cube (do not mutate; use :meth:`add_week`).
        data: ``cube`` transposed to ``(n_lines, n_weeks, 25)``.
        saturday_day: absolute simulation-day index of each week's test.
    """

    def __init__(self, n_lines: int, n_weeks: int) -> None:
        if n_lines <= 0 or n_weeks <= 0:
            raise ValueError("n_lines and n_weeks must be positive")
        self._bind(
            np.full((n_weeks, n_lines, N_FEATURES), np.nan, dtype=np.float32),
            np.full(n_weeks, -1, dtype=int),
            np.zeros(n_weeks, dtype=bool),
        )

    @classmethod
    def from_week_major(
        cls, cube: np.ndarray, saturday_day: np.ndarray, filled: np.ndarray
    ) -> "MeasurementStore":
        """A store over an existing ``(n_weeks, n_lines, 25)`` cube.

        No copy: ``cube`` (which may be a row slice of a larger cube),
        ``saturday_day`` and the boolean ``filled`` mask are held as
        given.  Weeks not marked filled must already be all-NaN.
        """
        if cube.dtype != np.float32 or cube.ndim != 3 or cube.shape[2] != N_FEATURES:
            raise ValueError(
                f"cube must be (n_weeks, n_lines, {N_FEATURES}) float32, "
                f"got {cube.shape} {cube.dtype}"
            )
        n_weeks, n_lines = cube.shape[:2]
        if n_lines <= 0 or n_weeks <= 0:
            raise ValueError("n_lines and n_weeks must be positive")
        if saturday_day.shape != (n_weeks,) or filled.shape != (n_weeks,):
            raise ValueError("saturday_day and filled need one entry per week")
        store = cls.__new__(cls)
        store._bind(cube, saturday_day, np.asarray(filled, dtype=bool))
        return store

    def _bind(
        self, cube: np.ndarray, saturday_day: np.ndarray, filled: np.ndarray
    ) -> None:
        self.cube = cube
        self.data = cube.transpose(1, 0, 2)
        self.n_weeks, self.n_lines = cube.shape[:2]
        self.saturday_day = saturday_day
        self._filled = filled

    def add_week(self, week: int, day: int, features: np.ndarray) -> None:
        """Record one campaign.

        Args:
            week: week index in [0, n_weeks).
            day: absolute simulation day of the test (a Saturday).
            features: (n_lines, 25) float array; NaN marks missing values.
        """
        if not 0 <= week < self.n_weeks:
            raise IndexError(f"week {week} out of range [0, {self.n_weeks})")
        features = np.asarray(features, dtype=np.float32)
        if features.shape != (self.n_lines, N_FEATURES):
            raise ValueError(
                f"features must be ({self.n_lines}, {N_FEATURES}), got {features.shape}"
            )
        if self._filled[week]:
            raise ValueError(f"week {week} was already recorded")
        self.cube[week] = features
        self.saturday_day[week] = day
        self._filled[week] = True

    @property
    def filled_weeks(self) -> np.ndarray:
        """Indices of the weeks that have been recorded."""
        return np.flatnonzero(self._filled)

    def week_matrix(self, week: int) -> np.ndarray:
        """(n_lines, 25) snapshot of one week (a view, do not mutate)."""
        if not self._filled[week]:
            raise ValueError(f"week {week} has not been recorded")
        return self.cube[week]

    def line_series(self, line: int) -> np.ndarray:
        """(n_weeks, 25) time-series of one line (a view, do not mutate)."""
        if not 0 <= line < self.n_lines:
            raise IndexError(f"line {line} out of range")
        return self.data[line]

    def feature_series(self, name: str) -> np.ndarray:
        """(n_lines, n_weeks) history of one named feature."""
        return self.data[:, :, feature_index(name)]

    def modem_off_fraction(self, upto_week: int | None = None) -> np.ndarray:
        """Per-line fraction of campaigns in which the modem was off.

        This is the Table-3 "Modem" customer feature.  ``upto_week`` bounds
        the history (exclusive); None uses all recorded weeks.
        """
        recorded = self.filled_weeks
        if upto_week is not None:
            recorded = recorded[recorded < upto_week]
        if recorded.size == 0:
            return np.zeros(self.n_lines)
        state = self.cube[recorded, :, feature_index("state")]
        off = (state == 0) | np.isnan(state)
        return np.mean(off, axis=0)
