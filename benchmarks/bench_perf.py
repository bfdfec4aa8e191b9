"""Performance harness for the vectorised scoring / training fabric.

Measures the three hot paths this repo optimises and writes the numbers
(with their naive-baseline speedups) to ``BENCH_perf.json``:

* **score** -- ``CompiledEnsemble.decision_function`` vs the round-by-round
  naive scorer on a deep synthetic ensemble (default 100K rows x 400
  rounds, the Fig-3 weekly-scoring shape), asserting the margins equal
  ``naive_grouped_margin`` bit for bit.
* **train** -- ``BStump.fit`` throughput in rows/sec, and the exact
  fit's tracemalloc peak per (row x column) cell on a wide matrix
  (``peak_bytes_per_cell``, guarded by ``max_peak_bytes_per_cell``).
* **train_locator** -- the full Section-6 combined-locator fit (52
  disposition heads + 4 location heads + CV-fold refits) unified on one
  shared ``BinnedDataset`` vs per-head exact, asserting the unified fit
  is faster and produces identical ranked disposition lists.
* **selection** -- the batched single-feature sweep on a Fig-4-shaped
  workload (83 candidate features) against two baselines: the
  pre-optimisation reference (a per-column ``BStump`` fit plus the scalar
  tie-break/AP(N) pass per candidate -- the "before" of this PR's
  speedup claim) and the current per-column loop (today's fits with the
  shared vectorised scoring stage).  Asserts all paths select identical
  feature sets, and records the tie-break + AP(N) scoring stage's
  tracemalloc peak (``scoring_peak_bytes``).  CI asserts the three
  identity flags (``scores_identical``, ``scores_match_reference``,
  ``selected_sets_identical``).
* **obs_overhead** -- disabled-mode instrumentation cost on the scoring
  path, the median of ``OBS_OVERHEAD_READINGS`` in-situ readings
  against ``MAX_OBS_OVERHEAD``, with every reading recorded.

Run from the repo root::

    PYTHONPATH=src python benchmarks/bench_perf.py            # full
    PYTHONPATH=src python benchmarks/bench_perf.py --quick    # CI smoke

``REPRO_WORKERS`` speeds up the selection sweep; the harness records the
worker count it ran with.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import time
import tracemalloc
from pathlib import Path

import numpy as np

from repro.features.encoding import FeatureSet
from repro.features.selection import (
    _eligible_columns,
    _scores_from_margins,
    single_feature_ap,
)
from repro.features.sweep import sweep_chunk_margins
from repro.ml.boostexter import BStump, BStumpConfig
from repro.ml.ensemble_scoring import compile_stumps, naive_grouped_margin
from repro.ml.stumps import Stump
from repro.obs.profile import resource_section, stage
from repro.obs.tracing import set_tracing
from repro.parallel import worker_count

#: The observability acceptance bar: disabled-mode instrumentation on the
#: weekly scoring path must cost less than this fraction of its runtime.
MAX_OBS_OVERHEAD = 0.03

#: In-situ readings of that overhead per run, fixed in advance; the guard
#: judges their median, so one reading disturbed by load cannot fail it.
OBS_OVERHEAD_READINGS = 5

#: Wide-matrix probe of the exact fit's memory: the paper's ~130 encoded
#: columns over enough rows that per-cell arrays dominate.
WIDE_FIT_SHAPE = (4_000, 128)

#: Bound on the exact fit's tracemalloc peak per cell of ``WIDE_FIT_SHAPE``.
#: Blocked construction reads 31.0 B/cell (the retained per-round state is
#: 25 of it); whole-matrix sort temporaries read 69.8.
MAX_FIT_BYTES_PER_CELL = 36.0


def _timed(fn, repeats: int = 1):
    """Best-of-N wall clock and the last return value."""
    best = float("inf")
    value = None
    for _ in range(repeats):
        start = time.perf_counter()
        value = fn()
        best = min(best, time.perf_counter() - start)
    return best, value


def _synthetic_matrix(rng, n_rows: int, n_features: int, nan_frac: float = 0.3):
    X = rng.normal(size=(n_rows, n_features))
    X[rng.random((n_rows, n_features)) < nan_frac] = np.nan
    return X


def _synthetic_ensemble(rng, n_rounds: int, n_features: int):
    """A fitted-looking stump list without paying for an actual fit."""
    stumps = []
    for _ in range(n_rounds):
        stumps.append(
            Stump(
                feature=int(rng.integers(n_features)),
                threshold=float(rng.normal()),
                s_lo=float(rng.normal(scale=0.1)),
                s_hi=float(rng.normal(scale=0.1)),
                s_miss=float(rng.normal(scale=0.05)),
                categorical=False,
                z=1.0,
            )
        )
    return stumps


def bench_score(rng, n_rows: int, n_rounds: int, n_features: int, repeats: int):
    stumps = _synthetic_ensemble(rng, n_rounds, n_features)
    X = _synthetic_matrix(rng, n_rows, n_features)
    compiled = compile_stumps(stumps, n_features)

    def naive():
        margin = np.zeros(n_rows)
        for stump in stumps:
            margin += stump.predict(X)
        return margin

    compile_time, _ = _timed(lambda: compile_stumps(stumps, n_features))
    naive_time, _ = _timed(naive, repeats)
    compiled_time, compiled_margin = _timed(
        lambda: compiled.decision_function(X), repeats
    )
    # Bit for bit against the per-stump reference summed in the compiled
    # fold order (the round-order sum above differs by a few ULPs).
    assert np.array_equal(
        compiled_margin, naive_grouped_margin(stumps, X, n_features)
    ), "compiled margins differ from naive_grouped_margin"
    return {
        "n_rows": n_rows,
        "n_rounds": n_rounds,
        "n_features": n_features,
        "n_used_features": compiled.n_used_features,
        "compile_seconds": compile_time,
        "naive_seconds": naive_time,
        "compiled_seconds": compiled_time,
        "naive_rows_per_sec": n_rows / naive_time,
        "compiled_rows_per_sec": n_rows / compiled_time,
        "speedup": naive_time / compiled_time,
        "margins_match": True,
    }


def _traced_peak_bytes(fn) -> int:
    """tracemalloc peak of one call, counting only what it allocates."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _synthetic_labels(rng, X):
    n_rows = X.shape[0]
    y = np.where(np.isnan(X[:, 0]), 0.0, X[:, 0]) + rng.normal(size=n_rows) > 0
    return y.astype(float)


def bench_train(rng, n_rows: int, n_rounds: int, n_features: int):
    X = _synthetic_matrix(rng, n_rows, n_features)
    y = _synthetic_labels(rng, X)
    config = BStumpConfig(n_rounds=n_rounds, calibrate=False)
    elapsed, model = _timed(lambda: BStump(config).fit(X, y))
    # Its own stream, so the probe leaves the later sections' data as is.
    wide_rng = np.random.default_rng(0)
    wide = _synthetic_matrix(wide_rng, *WIDE_FIT_SHAPE)
    wide_y = _synthetic_labels(wide_rng, wide)
    wide_config = BStumpConfig(n_rounds=3, calibrate=False)
    peak = _traced_peak_bytes(lambda: BStump(wide_config).fit(wide, wide_y))
    return {
        "n_rows": n_rows,
        "n_rounds_requested": n_rounds,
        "n_rounds_trained": len(model.learners),
        "n_features": n_features,
        "seconds": elapsed,
        "rows_per_sec": n_rows / elapsed,
        "row_rounds_per_sec": n_rows * len(model.learners) / elapsed,
        "wide_shape": list(WIDE_FIT_SHAPE),
        "peak_bytes_per_cell": peak / wide.size,
        "max_peak_bytes_per_cell": MAX_FIT_BYTES_PER_CELL,
    }


def bench_train_hist(rng, n_rows: int, n_rounds: int, n_features: int,
                     quick: bool):
    """Guard on the histogram training backend's speed *and* fidelity.

    Fits the same synthetic week with ``backend="exact"`` and
    ``backend="hist"`` and asserts both halves of the tentpole claim:

    * **speed** -- hist must never be slower than exact; the full run
      additionally enforces the >= 3x end-to-end speedup at the paper's
      weekly-retrain shape (100K rows x 400 rounds).
    * **fidelity** -- on distinct-valued data the shared split grid makes
      both backends scan the same candidate thresholds, so the trained
      models must agree stump for stump and their margins must match to
      float-summation noise.
    """
    X = _synthetic_matrix(rng, n_rows, n_features)
    y = (np.where(np.isnan(X[:, 0]), 0.0, X[:, 0])
         + rng.normal(size=n_rows) > 0).astype(float)
    exact_cfg = BStumpConfig(n_rounds=n_rounds, calibrate=False,
                             backend="exact")
    hist_cfg = BStumpConfig(n_rounds=n_rounds, calibrate=False,
                            backend="hist")

    # Warm both code paths (allocator, numpy dispatch) off the clock.
    warm = _synthetic_matrix(rng, 512, 4)
    warm_y = (rng.random(512) > 0.5).astype(float)
    BStump(BStumpConfig(n_rounds=3, calibrate=False)).fit(warm, warm_y)
    BStump(BStumpConfig(n_rounds=3, calibrate=False,
                        backend="hist")).fit(warm, warm_y)

    exact_time, exact_model = _timed(lambda: BStump(exact_cfg).fit(X, y))
    hist_time, hist_model = _timed(lambda: BStump(hist_cfg).fit(X, y))

    structural_match = len(exact_model.learners) == len(hist_model.learners) and all(
        a.stump.feature == b.stump.feature
        and a.stump.threshold == b.stump.threshold
        and a.stump.categorical == b.stump.categorical
        for a, b in zip(exact_model.learners, hist_model.learners)
    )
    exact_margin = exact_model.decision_function(X)
    hist_margin = hist_model.decision_function(X)
    margin_max_diff = float(np.max(np.abs(exact_margin - hist_margin)))
    assert margin_max_diff < 1e-6, (
        f"hist-backend margins diverge from exact by {margin_max_diff:.2e} "
        f"(structural match: {structural_match})"
    )

    speedup = exact_time / hist_time
    min_speedup = 1.0 if quick else 3.0
    assert speedup >= min_speedup, (
        f"hist backend only {speedup:.2f}x vs exact "
        f"({hist_time:.2f}s vs {exact_time:.2f}s); "
        f"required >= {min_speedup:.1f}x at {n_rows} rows x {n_rounds} rounds"
    )
    return {
        "n_rows": n_rows,
        "n_rounds_requested": n_rounds,
        "n_rounds_trained": len(hist_model.learners),
        "n_features": n_features,
        "n_bins": hist_cfg.max_split_points,
        "exact_seconds": exact_time,
        "hist_seconds": hist_time,
        "speedup": speedup,
        "min_speedup": min_speedup,
        "hist_rows_per_sec": n_rows / hist_time,
        "exact_rows_per_sec": n_rows / exact_time,
        "margin_max_diff": margin_max_diff,
        "structural_match": structural_match,
        "workers": worker_count(),
    }


def _synthetic_locator_dataset(rng, n_rows: int, n_features: int):
    """A quantised Section-6 dispatch set shaped for backend parity.

    Features take ~49 distinct integer-grid values, so the histogram
    edges (distinct-value midpoints under the bin budget) coincide with
    the uncapped exact backend's candidate grid and every CV-fold subset
    sees the full value set -- the regime in which the two backends scan
    identical thresholds and must train identical heads.  The label
    signal is kept deliberately weak: near-perfect separation makes
    unrelated features tie on the same split partition, and the
    ~1e-16 summation-noise tie-break then differs per backend (see
    ``tests/test_locator_unified.py``).
    """
    from repro.data.joins import LocatorDataset
    from repro.netsim.components import disposition_arrays

    from repro.core.locator import N_DISPOSITIONS

    # Per-feature *uniform* integer grids at staggered sizes: every value
    # carries >= 1/18 of the mass, so each CV-fold subset contains the
    # full value set (the fold-refit half of the parity regime), and no
    # split isolates a near-empty side (the degenerate partitions behind
    # cross-feature Z ties).
    n_values = 6 + 2 * (np.arange(n_features) % 7)
    X = np.floor(rng.random((n_rows, n_features)) * n_values)
    # Every feature is informative for every code at a distinct strength:
    # each boosting round then has a decisive winner instead of a pack of
    # equally useless noise features.
    prior = 1.0 / np.sqrt(np.arange(2, N_DISPOSITIONS + 2, dtype=float))
    prior /= prior.sum()
    weights = rng.normal(size=(n_features, N_DISPOSITIONS))
    logits = (2.0 * X / (n_values - 1.0) - 1.0) @ weights
    gumbel = -np.log(-np.log(rng.random((n_rows, N_DISPOSITIONS))))
    disposition = np.argmax(np.log(prior) + 0.8 * logits + gumbel, axis=1)
    location = disposition_arrays().location[disposition]
    features = FeatureSet(
        matrix=X,
        names=[f"f{i}" for i in range(n_features)],
        groups=["default"] * n_features,
        categorical=np.zeros(n_features, dtype=bool),
    )
    return LocatorDataset(
        features=features,
        disposition=disposition,
        location=location.astype(int),
        line_ids=np.arange(n_rows),
        ticket_days=np.zeros(n_rows, dtype=int),
    )


def bench_train_locator(rng, n_rows: int, n_rounds: int, n_features: int,
                        folds: int, quick: bool):
    """Guard on the unified multi-head locator fit's speed *and* fidelity.

    Trains the full Section-6 combined locator -- 52 disposition heads,
    4 major-location heads, and every CV-fold refit -- twice on the same
    synthetic dispatch set: per-head exact (each of the (folds+1) x 56
    fits re-sorting its own rows, the pre-unification path) and unified
    hist (one shared :class:`BinnedDataset`, fold refits reusing row
    subsets of its codes).  Asserts both halves of the tentpole claim:

    * **speed** -- unified-hist must never be slower than per-head exact;
      the full run enforces the >= 3x end-to-end locator-fit speedup.
    * **fidelity** -- on the quantised dataset both backends scan the
      same candidate grids, so the flat margins must agree to
      float-summation noise and the *ranked disposition lists* -- the
      artefact handed to the technician -- must be identical row for row.
    """
    from repro.core.locator import CombinedLocator, LocatorConfig

    train = _synthetic_locator_dataset(rng, n_rows, n_features)
    eval_X = _synthetic_locator_dataset(
        rng, max(512, n_rows // 4), n_features
    ).features.matrix
    # max_split_points = n+1 keeps the exact candidate grid uncapped so
    # its thresholds coincide with the shared histogram edges; the hist
    # locator keeps the default cap on its row-count bin budget.
    exact_cfg = LocatorConfig(n_rounds=n_rounds, cv_folds=folds,
                              backend="exact", max_split_points=n_rows + 1)
    hist_cfg = LocatorConfig(n_rounds=n_rounds, cv_folds=folds,
                             backend="hist")

    # Warm both code paths (allocator, numpy dispatch) off the clock.
    warm = _synthetic_locator_dataset(rng, 256, 4)
    CombinedLocator(LocatorConfig(n_rounds=2, cv_folds=2,
                                  backend="exact")).fit(warm)
    CombinedLocator(LocatorConfig(n_rounds=2, cv_folds=2,
                                  backend="hist")).fit(warm)

    exact_time, exact_model = _timed(
        lambda: CombinedLocator(exact_cfg).fit(train)
    )
    hist_time, hist_model = _timed(
        lambda: CombinedLocator(hist_cfg).fit(train)
    )

    margin_max_diff = float(np.max(np.abs(
        exact_model.flat.decision_matrix(eval_X)
        - hist_model.flat.decision_matrix(eval_X)
    )))
    assert margin_max_diff < 1e-6, (
        f"unified-hist flat margins diverge from per-head exact by "
        f"{margin_max_diff:.2e}"
    )
    exact_rank = np.argsort(-exact_model.predict_proba(eval_X), axis=1,
                            kind="stable")
    hist_rank = np.argsort(-hist_model.predict_proba(eval_X), axis=1,
                           kind="stable")
    ranked_lists_identical = bool(np.array_equal(exact_rank, hist_rank))
    assert ranked_lists_identical, (
        "unified-hist locator ranks dispositions differently from "
        f"per-head exact on {np.sum(np.any(exact_rank != hist_rank, axis=1))}"
        f"/{eval_X.shape[0]} held-out rows"
    )

    speedup = exact_time / hist_time
    min_speedup = 1.0 if quick else 3.0
    assert speedup >= min_speedup, (
        f"unified-hist locator fit only {speedup:.2f}x vs per-head exact "
        f"({hist_time:.2f}s vs {exact_time:.2f}s); required >= "
        f"{min_speedup:.1f}x at {n_rows} rows x {n_rounds} rounds "
        f"x {folds} folds"
    )
    return {
        "n_rows": n_rows,
        "n_rounds": n_rounds,
        "n_features": n_features,
        "cv_folds": folds,
        "n_heads_trained": len(hist_model.flat.models_)
        + len(hist_model.location_models_),
        "exact_seconds": exact_time,
        "hist_seconds": hist_time,
        "speedup": speedup,
        "min_speedup": min_speedup,
        "margin_max_diff": margin_max_diff,
        "ranked_lists_identical": ranked_lists_identical,
        "workers": worker_count(),
    }


def _reference_single_feature_ap(train, y_train, test, y_test, n, n_rounds):
    """The pre-optimisation selection sweep, kept as the bench baseline.

    One ``BStump`` fit and one scalar tie-break + AP(N) pass per
    candidate column -- the shape of the loop before this repo vectorised
    the scoring stage and moved the fits into the sorted-domain sweep.
    (The per-column fits themselves already benefit from the current
    ``StumpSearch``, so the measured baseline *understates* the speedup
    over the original code.)
    """
    from repro.features.selection import (
        _break_ties_by_value,
        _fit_single_column_margin,
    )
    from repro.ml.metrics import top_n_average_precision

    config = BStumpConfig(n_rounds=n_rounds, calibrate=False)
    scores = np.zeros(train.n_features)
    for j in np.flatnonzero(_eligible_columns(train.matrix)):
        margin = _fit_single_column_margin(train, y_train, test, int(j), config)
        if not train.categorical[j]:
            margin = _break_ties_by_value(margin, test.matrix[:, j])
        scores[int(j)] = top_n_average_precision(y_test, n, margin)
    return scores


def bench_selection(rng, n_rows: int, n_features: int, n_rounds: int,
                    repeats: int):
    """Fig-4-shaped sweep: score every candidate with a tiny predictor."""
    X = _synthetic_matrix(rng, n_rows, n_features)
    y = (np.nansum(X[:, :8], axis=1) + rng.normal(scale=2.0, size=n_rows) > 1.5)
    y = y.astype(float)
    names = [f"f{i}" for i in range(n_features)]
    groups = ["default"] * n_features
    cat = np.zeros(n_features, dtype=bool)
    half = n_rows // 2
    train = FeatureSet(X[:half], names, groups, cat)
    test = FeatureSet(X[half:], names, groups, cat)
    capacity = max(10, n_rows // 8)

    baseline_time, baseline_scores = _timed(
        lambda: _reference_single_feature_ap(
            train, y[:half], test, y[half:], capacity, n_rounds
        ),
        repeats,
    )
    loop_time, loop_scores = _timed(
        lambda: single_feature_ap(
            train, y[:half], test, y[half:], n=capacity,
            n_rounds=n_rounds, batched=False,
        ),
        repeats,
    )
    batched_time, batched_scores = _timed(
        lambda: single_feature_ap(
            train, y[:half], test, y[half:], n=capacity,
            n_rounds=n_rounds, batched=True,
        ),
        repeats,
    )

    def top20(scores):
        return set(np.argsort(-scores, kind="stable")[:20].tolist())

    # The scoring stage alone, on the sweep's own margins.
    config = BStumpConfig(n_rounds=n_rounds, calibrate=False)
    eligible = np.flatnonzero(_eligible_columns(train.matrix))
    chunk = sweep_chunk_margins(
        train.matrix.T[eligible], BStump._canonical_labels(y[:half]),
        test.matrix.T[eligible], config.n_rounds,
        config.missing_policy, config.max_split_points,
    )
    margins = dict(zip(eligible.tolist(), chunk))
    scoring_peak = _traced_peak_bytes(lambda: _scores_from_margins(
        margins, train, test, y[half:], capacity, n_features
    ))

    return {
        "n_rows": n_rows,
        "n_features": n_features,
        "n_rounds": n_rounds,
        "baseline_seconds": baseline_time,
        "loop_seconds": loop_time,
        "batched_seconds": batched_time,
        "speedup": baseline_time / batched_time,
        "speedup_vs_loop": loop_time / batched_time,
        "scores_identical": bool(np.array_equal(batched_scores, loop_scores)),
        "scores_match_reference": bool(
            np.array_equal(batched_scores, baseline_scores)
        ),
        "selected_sets_identical": (
            top20(batched_scores) == top20(loop_scores) == top20(baseline_scores)
        ),
        "scoring_peak_bytes": scoring_peak,
        "workers": worker_count(),
    }


def _obs_overhead_reading(compiled, X, n_rows: int, n_samples: int) -> dict:
    """One in-situ reading of the disabled-mode wrap cost.

    Times ``n_samples`` wrapped calls, each timestamped just outside and
    just inside the instrumentation; the reading's overhead is the
    larger of the median paired difference (the typical call) and the
    top-2%-trimmed mean difference (charging the occasional slow call
    without letting multi-ms scheduler preemptions count), as a fraction
    of the median kernel time.
    """
    import statistics

    inner: list[float] = []
    outer: list[float] = []

    def instrumented():
        t_outer = time.perf_counter()
        with stage("bench.score_week", rows=n_rows):
            t_inner = time.perf_counter()
            compiled.decision_function(X)
            inner.append(time.perf_counter() - t_inner)
        outer.append(time.perf_counter() - t_outer)

    instrumented()  # warm the path (registers the stage metrics)
    inner.clear(), outer.clear()
    for _ in range(n_samples):
        instrumented()
    kernel_time = statistics.median(inner)
    diffs = sorted(o - i for o, i in zip(outer, inner))
    median_cost = statistics.median(diffs)
    kept = diffs[: max(1, int(len(diffs) * 0.98))]
    amortized_cost = sum(kept) / len(kept)
    return {
        "plain_seconds": kernel_time,
        "median_cost_seconds": median_cost,
        "amortized_cost_seconds": amortized_cost,
        "overhead_fraction": max(median_cost, amortized_cost) / kernel_time,
    }


def bench_obs_overhead(rng, n_rows: int, n_rounds: int, n_features: int,
                       repeats: int):
    """Guard: disabled-mode instrumentation must be ~free on the hot path.

    Wraps the compiled-ensemble scoring of one synthetic week exactly the
    way the serving path wraps it -- one :func:`stage` block, which
    feeds the (disabled) span and the per-call stage metrics -- and
    measures the wrap cost *in situ*: every call is timestamped just
    outside and just inside the instrumentation, and the overhead is the
    paired difference of the two windows on the same call.

    A differential design (separate plain vs wrapped runs compared by
    median) cannot enforce a 3% budget here: the heap state the wrappers
    leave behind shifts where numpy places its temporaries, which swings
    the kernel itself by +/-2-3% between processes -- a benchmark
    artifact larger than the budget.  The paired per-call difference is
    immune to kernel-time variance while still charging the wrappers
    their full post-workload price (syscalls and allocations right after
    a numpy kernel cost several times their warm price).

    One reading still moves with load on a shared host, so the harness
    takes ``OBS_OVERHEAD_READINGS`` readings (see
    :func:`_obs_overhead_reading`) and judges their median against
    ``MAX_OBS_OVERHEAD``.  Every reading is recorded, and each one above
    the budget is listed and printed.
    """
    del repeats  # sample count is derived from the call duration instead
    stumps = _synthetic_ensemble(rng, n_rounds, n_features)
    X = _synthetic_matrix(rng, n_rows, n_features)
    compiled = compile_stumps(stumps, n_features)

    once, _ = _timed(lambda: compiled.decision_function(X), 3)
    n_samples = max(101, min(1001, int(2.0 / max(once, 1e-9))))
    set_tracing(False)
    try:
        readings = [
            _obs_overhead_reading(compiled, X, n_rows, n_samples)
            for _ in range(OBS_OVERHEAD_READINGS)
        ]
    finally:
        set_tracing(None)

    fractions = [r["overhead_fraction"] for r in readings]
    overhead = float(np.median(fractions))
    over = [i for i, f in enumerate(fractions) if f >= MAX_OBS_OVERHEAD]
    for i in over:
        print(f"obs reading {i}: {fractions[i]:.2%} overhead, above the "
              f"{MAX_OBS_OVERHEAD:.0%} budget")
    assert overhead < MAX_OBS_OVERHEAD, (
        f"disabled-mode instrumentation overhead {overhead:.1%} (median of "
        f"{len(readings)} readings: "
        f"{', '.join(f'{f:.1%}' for f in fractions)}) exceeds the "
        f"{MAX_OBS_OVERHEAD:.0%} budget"
    )
    return {
        "n_rows": n_rows,
        "n_rounds": n_rounds,
        "n_samples": n_samples,
        "cpu_count": os.cpu_count(),
        "k_readings": len(readings),
        "readings": readings,  # in run order
        "readings_over_budget": over,
        "statistic": "median of readings' overhead_fraction",
        "overhead_fraction": overhead,
        "min_fraction": min(fractions),
        "max_fraction": max(fractions),
        "budget_fraction": MAX_OBS_OVERHEAD,
        "within_budget": True,
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--rows", type=int, default=100_000,
                        help="rows for the scoring benchmark")
    parser.add_argument("--rounds", type=int, default=400,
                        help="ensemble depth for the scoring benchmark")
    parser.add_argument("--features", type=int, default=40,
                        help="feature count for scoring/training benchmarks")
    parser.add_argument("--quick", action="store_true",
                        help="small sizes for a CI smoke run")
    parser.add_argument("--output", type=Path,
                        default=Path(__file__).resolve().parent.parent
                        / "BENCH_perf.json")
    args = parser.parse_args()

    if args.quick:
        score_rows, score_rounds, features = 5_000, 60, 20
        train_rows, train_rounds = 2_000, 40
        hist_rows, hist_rounds = 5_000, 60
        loc_rows, loc_rounds, loc_features, loc_folds = 1_200, 8, 12, 2
        sel_rows, sel_features, sel_rounds = 1_200, 30, 3
        repeats = 1
    else:
        score_rows, score_rounds, features = args.rows, args.rounds, args.features
        train_rows, train_rounds = 20_000, 150
        hist_rows, hist_rounds = 100_000, 400
        loc_rows, loc_rounds, loc_features, loc_folds = 12_000, 40, 24, 3
        sel_rows, sel_features, sel_rounds = 12_000, 83, 4
        repeats = 3

    rng = np.random.default_rng(20100801)
    report = {
        "quick": args.quick,
        "numpy": np.__version__,
        "python": platform.python_version(),
        "workers_env": os.environ.get("REPRO_WORKERS", ""),
        "score": bench_score(rng, score_rows, score_rounds, features, repeats),
        "train": bench_train(rng, train_rows, train_rounds, features),
        "train_hist": bench_train_hist(rng, hist_rows, hist_rounds, features,
                                       args.quick),
        "train_locator": bench_train_locator(rng, loc_rows, loc_rounds,
                                             loc_features, loc_folds,
                                             args.quick),
        "selection": bench_selection(rng, sel_rows, sel_features, sel_rounds,
                                     repeats),
        "obs_overhead": bench_obs_overhead(rng, score_rows, score_rounds,
                                           features, repeats),
    }
    report["resources"] = resource_section()
    args.output.write_text(json.dumps(report, indent=2) + "\n")

    score, sel = report["score"], report["selection"]
    print(f"score:     {score['speedup']:.1f}x compiled vs naive "
          f"({score['compiled_rows_per_sec']:.0f} rows/s vs "
          f"{score['naive_rows_per_sec']:.0f} rows/s)")
    train = report["train"]
    print(f"train:     {train['rows_per_sec']:.0f} rows/s "
          f"({train['n_rounds_trained']} rounds), exact fit peak "
          f"{train['peak_bytes_per_cell']:.1f} B/cell on "
          f"{train['wide_shape'][0]}x{train['wide_shape'][1]} "
          f"(bound {train['max_peak_bytes_per_cell']:.0f})")
    hist = report["train_hist"]
    print(f"train_hist: {hist['speedup']:.1f}x hist vs exact "
          f"({hist['hist_rows_per_sec']:.0f} rows/s vs "
          f"{hist['exact_rows_per_sec']:.0f} rows/s), "
          f"margin max diff {hist['margin_max_diff']:.1e}, "
          f"structural match: {hist['structural_match']}")
    loc = report["train_locator"]
    print(f"train_locator: {loc['speedup']:.1f}x unified-hist vs per-head "
          f"exact ({loc['hist_seconds']:.2f}s vs {loc['exact_seconds']:.2f}s "
          f"for {loc['n_heads_trained']} heads x {loc['cv_folds']}+1 fits), "
          f"margin max diff {loc['margin_max_diff']:.1e}, "
          f"ranked lists identical: {loc['ranked_lists_identical']}")
    print(f"selection: {sel['speedup']:.1f}x batched vs reference "
          f"({sel['speedup_vs_loop']:.1f}x vs current loop), "
          f"scores identical: {sel['scores_identical']}, "
          f"selected sets identical: {sel['selected_sets_identical']}, "
          f"scoring peak {sel['scoring_peak_bytes'] / 2**20:.2f} MB")
    obs = report["obs_overhead"]
    print(f"obs:       {obs['overhead_fraction']:+.2%} disabled-mode "
          f"instrumentation overhead, median of {obs['k_readings']} readings "
          f"({obs['min_fraction']:+.2%} .. {obs['max_fraction']:+.2%}; "
          f"budget {obs['budget_fraction']:.0%}, "
          f"{len(obs['readings_over_budget'])} readings above it)")
    print(f"wrote {args.output}")


if __name__ == "__main__":
    main()
