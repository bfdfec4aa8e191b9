"""Compiled scoring of stump ensembles.

The deployment in Fig. 3 of the paper scores *millions* of lines every
Saturday with an 800-round BStump.  The naive scorer walks the ensemble
round by round -- ``margin += stump_t.predict(X)`` -- which touches every
row T times and rebuilds per-row masks T times.  But a stump ensemble is
just a sum of one-dimensional step functions, so it can be *compiled* by
feature:

* group the fitted stumps by the feature they test;
* for a **continuous** feature with stump thresholds ``d_1 <= ... <= d_T``,
  a present value ``v`` falls into one of ``T + 1`` buckets (how many
  thresholds are ``<= v``), and every value in a bucket receives the same
  total score from that feature's stumps;
* for a **categorical** feature, a value either equals one of the tested
  category codes (one precomputed total per distinct code) or none of
  them (a single "no match" total);
* a missing (NaN) value receives the feature's precomputed total of
  ``s_miss`` scores.

Each group therefore compiles to one table of ``len(keys) + 2`` totals
-- the buckets (or the codes plus the no-match total), then the missing
total -- and :func:`_slots` maps a column to slots of that table, so a
group costs one slot pass plus one ``take``.  A fitted BStump's groups
are narrow (one or two thresholds each is typical), so the slot is the
count of ``v >= key`` over the few keys, in one-byte counters; only
wide groups and short batches (see :data:`SEARCHSORTED_MIN_KEYS`) pay
for ``np.searchsorted``.  Scoring costs ``O(n)`` per *used group* instead of
per *round*, and never materialises per-round intermediates.

Exactness: the slot tables are accumulated stump-by-stump **in round
order within each feature**, and the final margin folds the per-feature
totals in ascending feature order.  Both are plain IEEE-754 double
additions, so the compiled margin is *bit-identical* to a naive scorer
that sums ``Stump.predict`` outputs grouped the same way (see
``naive_grouped_margin``).  Against the historical round-interleaved sum
the result agrees to within a few ULPs (float addition is not
associative); ranking consumers are unaffected.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "CompiledEnsemble",
    "MultiHeadEnsemble",
    "compile_stumps",
    "compile_multihead",
    "naive_grouped_margin",
]


#: The narrow slot path runs one comparison pass per key, so it wins
#: only while a group has few keys (per-row work) *and* the batch has
#: enough rows to amortise a numpy call per key (per-call overhead).
#: Groups with at least ``SEARCHSORTED_MIN_KEYS`` keys, or fewer than
#: ``SLOT_ROWS_PER_KEY`` rows per key, use ``np.searchsorted`` instead.
#: Both crossovers were measured on this repo's shard shapes; see
#: DESIGN.md, "Compiled ensemble scoring".  The narrow path counts in
#: one-byte slots, so ``SEARCHSORTED_MIN_KEYS`` must stay <= 254.
SEARCHSORTED_MIN_KEYS = 64
SLOT_ROWS_PER_KEY = 256

#: Rows per tile of :meth:`MultiHeadEnsemble.decision_matrix`'s
#: head-major fold: the (heads, tile) accumulator stays cache-resident
#: across every merged group's gather-add, and one row and 20,000 rows
#: run the same loop.  Measured on the serving locator shape; see
#: DESIGN.md, "Compiled ensemble scoring".
MULTIHEAD_TILE_ROWS = 1024


def _slots(keys: np.ndarray, categorical: bool, col: np.ndarray) -> np.ndarray:
    """Each value's slot in a group's ``len(keys) + 2`` table.

    * continuous: the number of keys ``<= v`` (the count of ``v >= key``),
      ``0 .. len(keys)``;
    * categorical: the index of the key equal to ``v``, or ``len(keys)``
      when none matches;
    * NaN, either kind: ``len(keys) + 1``, the trailing missing slot.

    Returns an ``intp`` array shaped like ``col``.
    """
    size = keys.size
    missing = np.isnan(col)
    if size >= SEARCHSORTED_MIN_KEYS or col.size < size * SLOT_ROWS_PER_KEY:
        if categorical:
            idx = keys.searchsorted(col)
            np.minimum(idx, size - 1, out=idx)
            slot = np.where(keys[idx] == col, idx, size)
        else:
            slot = keys.searchsorted(col, side="right")
        # NaN sorts past every key, so it sits in slot ``size`` (the top
        # bucket, or no match) and steps up into the missing slot.
        slot += missing
        return slot
    # Narrow group: one comparison pass per key into one-byte slots,
    # widened once for the gather.
    slot = missing.view(np.uint8)
    hit = np.empty(col.shape, dtype=bool)
    if categorical:
        # Start every value at no-match (NaN one past it); a match with
        # code i steps down by ``size - i``.  Codes are distinct, so at
        # most one step lands per value.
        slot += size
        step = np.empty(col.shape, dtype=np.uint8)
        for i, code in enumerate(keys):
            np.equal(col, code, out=hit)
            np.multiply(hit, np.uint8(size - i), out=step)
            slot -= step
    else:
        slot *= size + 1
        for key in keys:
            np.greater_equal(col, key, out=hit)
            slot += hit
    return slot.astype(np.intp)


@dataclass(frozen=True)
class _FeatureGroup:
    """All stumps of one (feature, kind) compiled into one slot table.

    ``keys`` holds the sorted stump thresholds (continuous, duplicates
    kept) or the distinct tested category codes (categorical).
    ``table`` holds ``len(keys) + 2`` totals indexed by :func:`_slots`:
    the bucket totals (bucket ``k`` = exactly ``k`` thresholds ``<= v``)
    or the per-code totals followed by the no-match total, and last the
    group's ``s_miss`` total for NaN values.
    """

    feature: int
    categorical: bool
    keys: np.ndarray
    table: np.ndarray


def _compile_continuous(stumps: list) -> tuple[np.ndarray, np.ndarray]:
    """Sorted thresholds and the slot table of one continuous group.

    The table is accumulated one stump at a time in the order given (round
    order), so each entry is the exact left-fold of that slot's branch
    scores -- the property the bit-identity tests rely on.
    """
    thresholds = np.array([s.threshold for s in stumps], dtype=float)
    order = np.argsort(thresholds, kind="stable")
    # rank[i] = position of stump i's threshold in the sorted array.
    rank = np.empty(len(stumps), dtype=np.intp)
    rank[order] = np.arange(len(stumps))
    buckets = np.arange(len(stumps) + 1)
    table = np.zeros(len(stumps) + 2)
    totals = table[:-1]
    miss = 0.0
    for i, stump in enumerate(stumps):
        # Bucket k counts thresholds <= v; stump i fires "high" iff its
        # threshold is among them, i.e. iff its sorted rank is < k.
        totals += np.where(buckets > rank[i], stump.s_hi, stump.s_lo)
        miss += stump.s_miss
    table[-1] = miss
    return thresholds[order], table


def _compile_categorical(stumps: list) -> tuple[np.ndarray, np.ndarray]:
    """Distinct codes and the slot table of one categorical group."""
    values = np.unique(np.array([s.threshold for s in stumps], dtype=float))
    table = np.zeros(values.size + 2)
    totals = table[:-2]
    no_match = miss = 0.0
    for stump in stumps:
        totals += np.where(values == stump.threshold, stump.s_hi, stump.s_lo)
        no_match += stump.s_lo
        miss += stump.s_miss
    table[-2:] = no_match, miss
    return values, table


def compile_stumps(stumps: list, n_features: int) -> "CompiledEnsemble":
    """Compile a list of fitted :class:`~repro.ml.stumps.Stump` learners.

    Args:
        stumps: the ensemble's stumps in round order.
        n_features: width of the feature matrices the ensemble scores.

    Returns:
        A :class:`CompiledEnsemble` ready to score.
    """
    if n_features <= 0:
        raise ValueError("n_features must be positive")
    by_group: dict[tuple[int, bool], list] = {}
    for stump in stumps:
        if not 0 <= stump.feature < n_features:
            raise ValueError(
                f"stump feature {stump.feature} out of range for "
                f"{n_features}-column input"
            )
        by_group.setdefault((stump.feature, bool(stump.categorical)), []).append(stump)

    groups: list[_FeatureGroup] = []
    for (feature, categorical) in sorted(by_group):
        members = by_group[(feature, categorical)]
        compile_group = _compile_categorical if categorical else _compile_continuous
        keys, table = compile_group(members)
        groups.append(_FeatureGroup(feature, categorical, keys, table))
    return CompiledEnsemble(n_features=n_features, groups=tuple(groups))


@dataclass(frozen=True)
class CompiledEnsemble:
    """A stump ensemble compiled to per-feature slot tables.

    Build with :func:`compile_stumps` (or ``BStump.compiled()``).  Scoring
    runs one :func:`_slots` pass plus one table ``take`` per group and is
    independent of the number of boosting rounds.
    """

    n_features: int
    groups: tuple[_FeatureGroup, ...]

    @property
    def n_used_features(self) -> int:
        """How many distinct feature columns the ensemble actually reads."""
        return len({g.feature for g in self.groups})

    def decision_function(self, X: np.ndarray) -> np.ndarray:
        """Additive margin ``f(x) = sum_t h_t(x)`` for each row of ``X``.

        Each used column is copied out contiguously once, so a group's
        slot passes stream over adjacent doubles instead of touching one
        cache line per row of a C-order matrix.
        """
        X = np.asarray(X, dtype=float)
        if X.ndim != 2 or X.shape[1] != self.n_features:
            raise ValueError(
                f"X must be 2-D with {self.n_features} columns, got {X.shape}"
            )
        return self.decision_function_columns(
            lambda j: np.ascontiguousarray(X[:, j]), X.shape[0]
        )

    def decision_function_columns(self, column, n_rows: int) -> np.ndarray:
        """Additive margin from a columnar feature source.

        ``column(j)`` must return the length-``n_rows`` values of feature
        column ``j``.  Only the ensemble's *used* features are requested,
        each once, so a columnar store (or a lazy derived-feature
        provider) never materialises columns the model does not read.
        Groups fold in ascending (feature, kind) order, so the margins
        are bit-identical to :func:`naive_grouped_margin`.

        Args:
            column: callable mapping a feature index to its column.
            n_rows: number of rows being scored.

        Returns:
            The (n_rows,) margin vector.
        """
        if n_rows < 0:
            raise ValueError(f"n_rows must be >= 0, got {n_rows}")
        margin = np.zeros(n_rows)
        feature, col = -1, None
        for group in self.groups:
            if group.feature != feature:
                feature = group.feature
                col = np.asarray(column(feature), dtype=float)
                if col.shape != (n_rows,):
                    raise ValueError(
                        f"column {feature} must have shape ({n_rows},), "
                        f"got {col.shape}"
                    )
            margin += group.table.take(_slots(group.keys, group.categorical, col))
        return margin


# ----- stacked multi-head scoring -----------------------------------------


@dataclass(frozen=True)
class _MergedGroup:
    """One (feature, kind) column shared by several compiled heads.

    ``keys`` is the union of the participating heads' keys (sorted
    thresholds for a continuous column, distinct category codes for a
    categorical one).  Each head's slot table is *expanded* onto the
    merged key grid so one :func:`_slots` pass over the column serves
    every head; ``tables[h]`` has ``len(keys) + 2`` entries in the same
    layout as a :class:`_FeatureGroup` table.  The expansion is a pure
    gather of each head's own totals, so the per-head contributions are
    the exact doubles that head's :class:`CompiledEnsemble` adds.
    """

    feature: int
    categorical: bool
    keys: np.ndarray
    head_positions: np.ndarray
    tables: np.ndarray


def _expand(group: _FeatureGroup, merged: np.ndarray) -> np.ndarray:
    """One head's slot table re-indexed by slot of the merged key grid."""
    size = group.keys.size
    own = _slots(group.keys, group.categorical, merged)
    if group.categorical:
        # Merged code i -> the head's slot for that code (its own index,
        # or its no-match slot); then no-match and missing map across.
        slots = np.concatenate([own, [size, size + 1]])
    else:
        # Merged bucket i >= 1 means the largest merged key <= v is
        # merged[i - 1]; the head's bucket is then the number of *its*
        # thresholds <= merged[i - 1] (its keys are a subset of the
        # merged grid, so none lie strictly between merged[i - 1] and v).
        slots = np.concatenate([[0], own, [size + 1]])
    return group.table[slots]


def compile_multihead(
    heads: dict[int, CompiledEnsemble], n_heads: int, n_features: int
) -> "MultiHeadEnsemble":
    """Stack several compiled heads into one multi-head scorer.

    Args:
        heads: mapping from output column (0..n_heads-1) to that head's
            compiled ensemble; all heads must score the same feature
            width.
        n_heads: width of the stacked margin matrix.
        n_features: width of the feature matrices being scored.

    Returns:
        A :class:`MultiHeadEnsemble` whose per-head margins are
        bit-identical to each head's own ``decision_function``.
    """
    if n_heads <= 0:
        raise ValueError("n_heads must be positive")
    if n_features <= 0:
        raise ValueError("n_features must be positive")
    columns = np.array(sorted(heads), dtype=np.intp)
    if columns.size and (columns[0] < 0 or columns[-1] >= n_heads):
        raise ValueError("head column out of range")
    position = {int(col): pos for pos, col in enumerate(columns)}

    by_key: dict[tuple[int, bool], list[tuple[int, _FeatureGroup]]] = {}
    for col in columns:
        head = heads[int(col)]
        if head.n_features != n_features:
            raise ValueError(
                f"head {int(col)} scores {head.n_features} features, "
                f"expected {n_features}"
            )
        for group in head.groups:
            by_key.setdefault((group.feature, group.categorical), []).append(
                (position[int(col)], group)
            )

    merged_groups: list[_MergedGroup] = []
    for (feature, categorical) in sorted(by_key):
        members = by_key[(feature, categorical)]
        merged = np.unique(np.concatenate([g.keys for _, g in members]))
        merged_groups.append(
            _MergedGroup(
                feature=feature,
                categorical=categorical,
                keys=merged,
                head_positions=np.array([p for p, _ in members], dtype=np.intp),
                tables=np.stack([_expand(g, merged) for _, g in members]),
            )
        )
    return MultiHeadEnsemble(
        n_features=n_features,
        n_heads=n_heads,
        head_columns=columns,
        groups=tuple(merged_groups),
    )


@dataclass(frozen=True)
class MultiHeadEnsemble:
    """Many compiled stump ensembles scored in one pass over the columns.

    Build with :func:`compile_multihead`.  Where the naive path walks
    each head separately -- 52 ``decision_function`` calls for the
    trouble locator, each re-reading its feature columns -- this scorer
    visits every *merged* (feature, kind) column once: one
    :func:`_slots` pass per column, then one gather-add of the
    participating heads' tables into a head-major accumulator.  Heads
    usually share their most informative features, so the per-column
    bucketing cost is paid once instead of per head.

    Exactness: each head's expanded tables hold the same slot-total
    doubles as its own :class:`CompiledEnsemble`, a head occurs at most
    once per merged group, and a head's groups are accumulated in the
    same ascending (feature, kind) order, so every margin column is
    *bit-identical* to that head's ``decision_function``.
    """

    n_features: int
    n_heads: int
    head_columns: np.ndarray
    groups: tuple[_MergedGroup, ...]

    def decision_matrix(
        self, X: np.ndarray, out: np.ndarray | None = None
    ) -> np.ndarray:
        """The stacked (n, n_heads) margin matrix.

        Rows are folded in tiles of :data:`MULTIHEAD_TILE_ROWS`, each
        into a (heads, tile) accumulator, so a single ``/locate`` row and
        a 20,000-row batch run the same loop.

        Args:
            X: (n, n_features) rows to score.
            out: optional (n, n_heads) matrix to write into; columns
                without a head are left untouched (callers pre-fill
                prior log-odds there), head columns are overwritten.

        Returns:
            ``out`` (or a fresh zero-initialised matrix).
        """
        X = np.asarray(X, dtype=float)
        if X.ndim != 2 or X.shape[1] != self.n_features:
            raise ValueError(
                f"X must be 2-D with {self.n_features} columns, got {X.shape}"
            )
        n = X.shape[0]
        if out is None:
            out = np.zeros((n, self.n_heads))
        elif out.shape != (n, self.n_heads):
            raise ValueError(
                f"out must have shape ({n}, {self.n_heads}), got {out.shape}"
            )
        if not self.head_columns.size:
            return out
        acc = np.empty((self.head_columns.size, min(n, MULTIHEAD_TILE_ROWS)))
        for start in range(0, n, MULTIHEAD_TILE_ROWS):
            tile = X[start:start + MULTIHEAD_TILE_ROWS]
            block = acc[:, :tile.shape[0]]
            block.fill(0.0)
            for group in self.groups:
                col = np.ascontiguousarray(tile[:, group.feature])
                slot = _slots(group.keys, group.categorical, col)
                # Each head occurs at most once per merged group, so this
                # is one addition per (head, row), as in the solo fold.
                block[group.head_positions] += group.tables.take(slot, axis=1)
            out[start:start + tile.shape[0], self.head_columns] = block.T
        return out


def naive_grouped_margin(stumps: list, X: np.ndarray, n_features: int) -> np.ndarray:
    """Reference scorer: per-stump ``predict`` summed in compiled order.

    Sums each (feature, kind) group's ``Stump.predict`` outputs in round
    order, then folds the group subtotals in ascending (feature, kind)
    order -- the exact addition sequence :class:`CompiledEnsemble` encodes
    in its tables.  Used by the equivalence tests to assert bit-identity;
    O(rounds) per row, so keep it out of hot paths.
    """
    X = np.asarray(X, dtype=float)
    by_group: dict[tuple[int, bool], list] = {}
    for stump in stumps:
        by_group.setdefault((stump.feature, bool(stump.categorical)), []).append(stump)
    del n_features  # shape is taken from X; kept for signature symmetry
    margin = np.zeros(X.shape[0])
    for key in sorted(by_group):
        subtotal = np.zeros(X.shape[0])
        for stump in by_group[key]:
            subtotal += stump.predict(X)
        margin += subtotal
    return margin
