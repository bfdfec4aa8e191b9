"""Cross-line grouping and the network-vs-premise concentration test.

One week's ranked scores say which lines *look* troubled; they do not say
why.  A line can be troubled because its own loop or home network failed
(the paper's per-line dispatch is the right fix) or because shared plant
upstream of it failed (a per-line truck roll finds nothing wrong at the
premise).  The two causes separate statistically: per-line faults land
anomalous lines uniformly across the plant, while a shared fault packs
them into one DSLAM or binder.

The test: take the top ``anomaly_pool x capacity`` ranked lines as the
anomaly pool, so the population base rate of "anomalous" is
``pool / n_lines``.  For a plant group with ``n`` lines of which ``k``
are anomalous, the binomial tail ``P(X >= k | n, base_rate)`` is the
probability of seeing such concentration by chance; a tiny tail plus a
material anomalous fraction classifies the cluster **upstream**, anything
else stays **in-home**.

Level disambiguation: a binder fault also concentrates its parent DSLAM
(the binder's lines are a subset), so significance alone cannot pick the
level.  A DSLAM-level cluster is emitted only when the concentration is
*spread* across the DSLAM's binders -- at least ``dslam_spread`` of them
individually significant -- otherwise the individual binder clusters are
kept and the DSLAM cluster is dropped as their shadow.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.netsim.groupfaults import LEVEL_BINDER, LEVEL_DSLAM
from repro.netsim.topology import Topology

__all__ = [
    "CLASS_UPSTREAM",
    "CLASS_IN_HOME",
    "TriageConfig",
    "FaultCluster",
    "TriageResult",
    "find_clusters",
]

CLASS_UPSTREAM = "upstream"
CLASS_IN_HOME = "in-home"


@dataclass(frozen=True)
class TriageConfig:
    """Knobs of the concentration test.

    Attributes:
        anomaly_pool: the anomaly pool is the top ``anomaly_pool x
            capacity`` ranked lines; the wider pool (vs just top-N) keeps
            the base rate estimable and catches cluster members ranked
            just below the dispatch cut.
        alpha: binomial-tail significance threshold for "more anomalous
            members than chance allows".
        min_anomalous: a group needs at least this many anomalous members
            to be considered at all (tiny groups cannot be significant in
            a meaningful way).
        min_fraction: minimum anomalous fraction of the group -- an
            effect-size floor so huge DSLAMs cannot reach significance on
            a sliver of their lines.
        dslam_spread: fraction of a DSLAM's binders that must be
            individually significant before the cluster is promoted from
            binder level to DSLAM level.
    """

    anomaly_pool: float = 3.0
    alpha: float = 1e-3
    min_anomalous: int = 3
    min_fraction: float = 0.3
    dslam_spread: float = 0.5

    def __post_init__(self) -> None:
        if not self.anomaly_pool >= 1:
            raise ValueError(
                f"anomaly_pool must be >= 1, got {self.anomaly_pool}"
            )
        if not 0 < self.alpha < 1:
            raise ValueError(f"alpha must be in (0, 1), got {self.alpha}")
        if not self.min_anomalous >= 1:
            raise ValueError(
                f"min_anomalous must be >= 1, got {self.min_anomalous}"
            )
        if not 0 <= self.min_fraction <= 1:
            raise ValueError(
                f"min_fraction must be in [0, 1], got {self.min_fraction}"
            )
        if not 0 <= self.dslam_spread <= 1:
            raise ValueError(
                f"dslam_spread must be in [0, 1], got {self.dslam_spread}"
            )


@dataclass(frozen=True)
class FaultCluster:
    """A plant group whose anomalous-line concentration was tested.

    Attributes:
        level: ``"dslam"`` or ``"binder"``.
        group_id: plant-element index, per ``level``.
        line_ids: every line behind the element.
        anomalous_line_ids: the members inside the anomaly pool.
        p_value: binomial tail of the observed concentration.
        classification: ``"upstream"`` or ``"in-home"``.
    """

    level: str
    group_id: int
    line_ids: np.ndarray
    anomalous_line_ids: np.ndarray
    p_value: float
    classification: str

    @property
    def n_lines(self) -> int:
        return int(self.line_ids.size)

    @property
    def n_anomalous(self) -> int:
        return int(self.anomalous_line_ids.size)

    @property
    def anomalous_fraction(self) -> float:
        return self.n_anomalous / max(1, self.n_lines)

    def to_dict(self) -> dict:
        """A JSON-ready representation."""
        return {
            "level": self.level,
            "group_id": int(self.group_id),
            "n_lines": self.n_lines,
            "n_anomalous": self.n_anomalous,
            "anomalous_fraction": round(self.anomalous_fraction, 4),
            "p_value": float(self.p_value),
            "classification": self.classification,
            "anomalous_line_ids": [int(i) for i in self.anomalous_line_ids],
        }


@dataclass
class TriageResult:
    """Everything one week's triage pass produced."""

    config: TriageConfig
    n_lines: int
    capacity: int
    pool_line_ids: np.ndarray
    base_rate: float
    clusters: list[FaultCluster] = field(default_factory=list)

    @property
    def upstream_clusters(self) -> list[FaultCluster]:
        """The clusters classified as shared-plant problems."""
        return [c for c in self.clusters
                if c.classification == CLASS_UPSTREAM]

    def upstream_line_mask(self) -> np.ndarray:
        """Boolean mask of lines behind any upstream cluster."""
        mask = np.zeros(self.n_lines, dtype=bool)
        for cluster in self.upstream_clusters:
            mask[cluster.line_ids] = True
        return mask

    def cluster_of_line(self, line_id: int) -> FaultCluster | None:
        """The best cluster a line sits in, or None.

        ``clusters`` is kept upstream-first by p-value, so the first
        match is the strongest claim about the line's plant -- the one
        an explanation report should cite.
        """
        line_id = int(line_id)
        for cluster in self.clusters:
            if np.any(cluster.line_ids == line_id):
                return cluster
        return None

    def to_dict(self) -> dict:
        """A JSON-ready summary (clusters inline, pool as count only)."""
        upstream = self.upstream_clusters
        return {
            "n_lines": int(self.n_lines),
            "capacity": int(self.capacity),
            "pool_size": int(self.pool_line_ids.size),
            "base_rate": round(float(self.base_rate), 6),
            "n_clusters": len(self.clusters),
            "n_upstream": len(upstream),
            "clusters": [c.to_dict() for c in self.clusters],
        }


def _tail_p(k: np.ndarray, n: np.ndarray, base_rate: float) -> np.ndarray:
    """Vectorised ``P(X >= k | n, base_rate)`` binomial tails, ``1 <= k <= n``.

    Calls the kernel ``scipy.stats.binom.sf(k - 1, n, p)`` itself calls,
    clipped to [0, 1] as it clips, so the tails are bit-identical on that
    range without importing ``scipy.stats``.  At ``k = 0`` the kernel
    returns NaN, which :class:`TriageConfig` rules out via
    ``min_anomalous >= 1``.
    """
    from scipy.special._ufuncs import _binom_sf

    return np.clip(_binom_sf(np.floor(k - 1), n, base_rate), 0.0, 1.0)


def find_clusters(
    scores: np.ndarray,
    topology: Topology,
    capacity: int,
    config: TriageConfig | None = None,
) -> TriageResult:
    """Group one week's anomalous lines by shared plant and classify.

    Args:
        scores: per-line ticket scores (higher = more troubled), as
            produced by the predictor for one week.
        topology: the plant hierarchy the lines live in.
        capacity: the top-N dispatch capacity the pool scales from.
        config: test parameters (defaults when None).

    Returns:
        A :class:`TriageResult` whose clusters carry every considered
        group (both classifications), ordered upstream-first by p-value.
    """
    config = config or TriageConfig()
    scores = np.asarray(scores, dtype=float)
    n = scores.size
    if n != topology.n_lines:
        raise ValueError("scores length disagrees with topology lines")
    if capacity <= 0:
        raise ValueError("capacity must be positive")
    pool_size = int(min(n, max(capacity, round(config.anomaly_pool * capacity))))
    # Same stable ordering as the dispatch list, so triage and dispatch
    # agree on who is anomalous.
    ranked = np.argsort(-scores, kind="stable")
    pool = ranked[:pool_size]
    base_rate = pool_size / n
    anomalous = np.zeros(n, dtype=bool)
    anomalous[pool] = True

    clusters: list[FaultCluster] = []
    binder_significant = np.zeros(topology.n_binders, dtype=bool)

    def consider(level: str, group_id: int, line_ids: np.ndarray) -> bool:
        """Test one group; append its cluster; return significance."""
        members_anom = line_ids[anomalous[line_ids]]
        k = members_anom.size
        if k < config.min_anomalous:
            return False
        p_value = float(_tail_p(np.array([k]), np.array([line_ids.size]),
                                base_rate)[0])
        significant = (
            p_value < config.alpha
            and k / line_ids.size >= config.min_fraction
        )
        clusters.append(
            FaultCluster(
                level=level,
                group_id=int(group_id),
                line_ids=line_ids,
                anomalous_line_ids=members_anom,
                p_value=p_value,
                classification=CLASS_UPSTREAM if significant else CLASS_IN_HOME,
            )
        )
        return significant

    # Binder level first: per-binder anomalous counts via one bincount.
    if topology.has_binders:
        binder_anom = np.bincount(
            topology.line_binder[pool], minlength=topology.n_binders
        )
        for binder_id in np.flatnonzero(binder_anom >= config.min_anomalous):
            binder_significant[binder_id] = consider(
                LEVEL_BINDER, int(binder_id),
                topology.lines_of_binder(int(binder_id)),
            )

    # DSLAM level, with the spread rule deciding which level survives.
    dslam_anom = np.bincount(
        topology.line_dslam[pool], minlength=topology.n_dslams
    )
    drop: set[tuple[str, int]] = set()
    for dslam_id in np.flatnonzero(dslam_anom >= config.min_anomalous):
        dslam_id = int(dslam_id)
        line_ids = topology.lines_of_dslam(dslam_id)
        significant = consider(LEVEL_DSLAM, dslam_id, line_ids)
        if not significant or not topology.has_binders:
            continue
        binder_ids = np.unique(topology.line_binder[line_ids])
        spread = float(np.mean(binder_significant[binder_ids]))
        if spread >= config.dslam_spread:
            # The whole DSLAM is lit up: one DSLAM cluster subsumes its
            # binder clusters.
            for binder_id in binder_ids:
                if binder_significant[binder_id]:
                    drop.add((LEVEL_BINDER, int(binder_id)))
        elif np.any(binder_significant[binder_ids]):
            # Concentration lives in specific binders; the DSLAM cluster
            # is their shadow.  (Diffuse concentration with no binder
            # explanation stays a DSLAM cluster.)
            drop.add((LEVEL_DSLAM, dslam_id))

    kept = [c for c in clusters if (c.level, c.group_id) not in drop]
    kept.sort(key=lambda c: (c.classification != CLASS_UPSTREAM, c.p_value))
    return TriageResult(
        config=config,
        n_lines=n,
        capacity=capacity,
        pool_line_ids=pool,
        base_rate=base_rate,
        clusters=kept,
    )
