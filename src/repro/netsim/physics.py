"""Simplified twisted-pair loop physics.

The ticket predictor never sees the plant directly -- only the 25 Table-2
features computed by the weekly line test.  This module maps the simulated
plant state (loop length, service profile, environmental noise, active
fault effects) onto those features with the qualitative dependencies the
paper's expert rules encode:

* longer loops attenuate more and attain less (the 15 kft rule: a basic
  768 kbps profile becomes marginal around 15 kft);
* relative capacity (sync rate / attainable rate) above ~92 % marks an
  unhealthy line;
* noise-type faults (water, corrosion, missing filters) eat noise margin
  and inflate code-violation and errored-second counters;
* capacity-type defects (bridge taps, load coils, stubs) cap the
  attainable rate and set the ``bt`` flag;
* dying electronics drop sync and traffic cell counts.

The attainable-rate curve is an exponential fit to published ADSL2+
reach/rate tables; we care about its *shape* (monotone, convex decay with
distance), not its absolute calibration.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

__all__ = ["LoopConditions", "LinePhysics"]


@dataclass(frozen=True)
class LoopConditions:
    """Static per-line plant state, as parallel numpy arrays.

    Attributes:
        loop_kft: true working loop length in kilofeet.
        profile_down_kbps: provisioned downstream rate per line.
        profile_up_kbps: provisioned upstream rate per line.
        ambient_noise_db: per-line environmental noise penalty (dB) --
            lines in electrically noisy areas are born worse.
        static_bridge_tap: lines built with a legacy bridge tap.
        static_crosstalk: lines in high-binder-fill areas with measurable
            crosstalk even when healthy.
    """

    loop_kft: np.ndarray
    profile_down_kbps: np.ndarray
    profile_up_kbps: np.ndarray
    ambient_noise_db: np.ndarray
    static_bridge_tap: np.ndarray
    static_crosstalk: np.ndarray

    @property
    def n_lines(self) -> int:
        return len(self.loop_kft)

    def rows(self, start: int, stop: int) -> "LoopConditions":
        """Lines ``[start, stop)``, as views of these arrays."""
        return LoopConditions(
            **{f.name: getattr(self, f.name)[start:stop] for f in fields(self)}
        )


@dataclass(frozen=True)
class LinePhysics:
    """Deterministic part of the loop model (noise is added by the caller).

    Attributes:
        max_down_kbps: downstream attainable rate at zero loop length.
        max_up_kbps: upstream attainable rate at zero loop length.
        down_reach_kft: e-folding distance of downstream attainable rate.
        up_reach_kft: e-folding distance of upstream attainable rate.
        down_kbps_per_db: attainable downstream kbps lost per dB of extra
            noise or attenuation (the Shannon slope at typical SNR).
        up_kbps_per_db: same for upstream.
        atten_db_per_kft_down: downstream attenuation slope.
        atten_db_per_kft_up: upstream attenuation slope.
        sync_headroom: fraction of attainable the modem will sync at when
            the profile asks for more than the loop can carry.
        tx_power_down_dbm: nominal downstream transmit power.
        tx_power_up_dbm: nominal upstream transmit power.
        bt_rate_penalty: multiplicative attainable-rate penalty of a
            static bridge tap.
        crosstalk_noise_db: noise penalty of static crosstalk.
    """

    max_down_kbps: float = 9000.0
    max_up_kbps: float = 1250.0
    down_reach_kft: float = 7.5
    up_reach_kft: float = 12.0
    down_kbps_per_db: float = 200.0
    up_kbps_per_db: float = 30.0
    atten_db_per_kft_down: float = 3.6
    atten_db_per_kft_up: float = 2.2
    sync_headroom: float = 0.95
    tx_power_down_dbm: float = 19.5
    tx_power_up_dbm: float = 12.5
    bt_rate_penalty: float = 0.8
    crosstalk_noise_db: float = 3.0
    min_rate_kbps: float = 32.0
    max_noise_margin_db: float = 31.0
    max_carrier: int = 255

    def attenuation_db(self, loop_kft: np.ndarray, upstream: bool = False) -> np.ndarray:
        """Signal attenuation of a clean loop of the given length."""
        loop_kft = np.asarray(loop_kft, dtype=float)
        slope = self.atten_db_per_kft_up if upstream else self.atten_db_per_kft_down
        return slope * np.clip(loop_kft, 0.0, None)

    def clean_attainable_kbps(
        self, loop_kft: np.ndarray, upstream: bool = False
    ) -> np.ndarray:
        """Attainable (max fast) rate of a clean loop."""
        loop_kft = np.clip(np.asarray(loop_kft, dtype=float), 0.0, None)
        if upstream:
            rate = self.max_up_kbps * np.exp(-loop_kft / self.up_reach_kft)
        else:
            rate = self.max_down_kbps * np.exp(-loop_kft / self.down_reach_kft)
        return np.clip(rate, self.min_rate_kbps, None)

    def attainable_kbps(
        self,
        conditions: LoopConditions,
        extra_noise_db: np.ndarray,
        extra_atten_db: np.ndarray,
        rate_factor: np.ndarray,
        bridge_tap: np.ndarray,
        crosstalk: np.ndarray,
        upstream: bool = False,
    ) -> np.ndarray:
        """Attainable rate including fault and environment penalties.

        Args:
            conditions: static plant state.
            extra_noise_db: fault-induced noise per line (already scaled by
                severity).
            extra_atten_db: fault-induced attenuation per line.
            rate_factor: fault multiplicative capacity penalty (<= 1).
            bridge_tap: effective bridge-tap flag per line (static or
                fault-induced).
            crosstalk: effective crosstalk flag per line.
            upstream: compute the upstream rate instead of downstream.
        """
        clean = self.clean_attainable_kbps(conditions.loop_kft, upstream)
        slope = self.up_kbps_per_db if upstream else self.down_kbps_per_db
        db_penalty = (
            np.asarray(extra_noise_db, dtype=float)
            + np.asarray(extra_atten_db, dtype=float)
            + conditions.ambient_noise_db
            + self.crosstalk_noise_db * np.asarray(crosstalk, dtype=float)
        )
        rate = clean - slope * db_penalty
        rate = rate * np.asarray(rate_factor, dtype=float)
        rate = rate * np.where(np.asarray(bridge_tap, dtype=bool), self.bt_rate_penalty, 1.0)
        return np.clip(rate, self.min_rate_kbps, None)

    def sync_rate_kbps(
        self, attainable_kbps: np.ndarray, profile_kbps: np.ndarray
    ) -> np.ndarray:
        """Actual sync rate: the profile rate, capped by loop headroom."""
        attainable_kbps = np.asarray(attainable_kbps, dtype=float)
        profile_kbps = np.asarray(profile_kbps, dtype=float)
        return np.minimum(profile_kbps, self.sync_headroom * attainable_kbps)

    def noise_margin_db(
        self,
        attainable_kbps: np.ndarray,
        sync_kbps: np.ndarray,
        upstream: bool = False,
    ) -> np.ndarray:
        """Noise margin from the headroom between attainable and sync rate.

        Linearised Shannon: each dB of margin is worth ``kbps_per_db`` of
        rate, so margin ~= (attainable - sync) / kbps_per_db, clipped to
        the modem's reporting range.
        """
        slope = self.up_kbps_per_db if upstream else self.down_kbps_per_db
        margin = (np.asarray(attainable_kbps, float) - np.asarray(sync_kbps, float)) / slope
        return np.clip(margin, 0.0, self.max_noise_margin_db)

    def relative_capacity(
        self, sync_kbps: np.ndarray, attainable_kbps: np.ndarray
    ) -> np.ndarray:
        """Fraction of attainable capacity in use (the 92 % rule metric)."""
        attainable_kbps = np.clip(np.asarray(attainable_kbps, float), 1e-9, None)
        return np.clip(np.asarray(sync_kbps, float) / attainable_kbps, 0.0, 1.0)

    def highest_carrier(
        self, loop_kft: np.ndarray, extra_atten_db: np.ndarray
    ) -> np.ndarray:
        """Highest usable downstream carrier index.

        High-frequency tones die first with distance, so the biggest
        carrier number decays with loop length and fault attenuation.
        """
        loop_kft = np.clip(np.asarray(loop_kft, float), 0.0, None)
        effective = loop_kft + np.asarray(extra_atten_db, float) / self.atten_db_per_kft_down
        return np.clip(
            self.max_carrier * np.exp(-effective / 9.0), 6.0, self.max_carrier
        )

    def code_violation_rate(
        self,
        noise_margin_db: np.ndarray,
        fault_cv_rate: np.ndarray,
        margin_knee_db: float = 6.0,
    ) -> np.ndarray:
        """Expected code-violation events during a test window.

        Healthy, high-margin lines see a trickle; the rate grows
        quadratically once the margin drops below the knee, plus whatever
        the active fault injects directly.
        """
        margin = np.asarray(noise_margin_db, dtype=float)
        deficit = np.clip(margin_knee_db - margin, 0.0, None)
        return 0.4 + 0.9 * deficit**2 + np.asarray(fault_cv_rate, dtype=float)
