"""Exact per-feature attribution of compiled stump-ensemble margins.

A stump ensemble is additive over (feature, kind) groups: the compiled
scorer (:mod:`repro.ml.ensemble_scoring`) folds one slot-table gather
per group into the margin, in ascending ``(feature, categorical)`` order.
That makes the margin *exactly* decomposable -- each group's gathered
table entry IS that feature's total vote, and re-summing the votes in the
same left-fold order reproduces ``decision_function`` bit-identically
(every addition is the same IEEE-754 double addition the scorer performs).
No sampling, no surrogate model, no approximation tolerance.

One batch kernel, :func:`attribute_rows`, decomposes many rows at once:
one slot pass and one table ``take`` per group give a (rows x groups)
vote matrix, the margins fold column by column, and
:meth:`BatchAttribution.top` keeps each row's largest votes.  The
one-row entry points are calls of the same kernel:

* :func:`attribute_ensemble` -- one :class:`CompiledEnsemble` (the ticket
  predictor's margin);
* :func:`attribute_head` -- one head of a :class:`MultiHeadEnsemble` (a
  locator disposition/location head), whose expanded per-head tables hold
  the exact doubles of that head's own compiled ensemble.

Each :class:`FeatureContribution` also carries the evidence a technician
needs: the raw measured value, how many of the ensemble's thresholds it
crossed (and which one it crossed last), the sign and magnitude of the
vote, and -- after :meth:`MarginAttribution.ranked` -- its rank among the
contributors.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.ml.ensemble_scoring import (
    CompiledEnsemble,
    MultiHeadEnsemble,
    _slots,
)

__all__ = [
    "BatchAttribution",
    "FeatureContribution",
    "MarginAttribution",
    "attribute_rows",
    "attribute_ensemble",
    "attribute_head",
    "assemble_model_row",
]


@dataclass(frozen=True)
class FeatureContribution:
    """One feature group's exact vote on one row.

    Attributes:
        feature: model-input column index the group reads.
        name: column name when the caller supplied one, else ``None``.
        categorical: stump kind of the group.
        value: the raw measured value fed to the group (NaN if missing).
        missing: whether the value was missing (the vote is then the
            group's accumulated ``s_miss`` total).
        contribution: the exact double the scorer adds for this group.
        thresholds_crossed: continuous -- how many of the group's stump
            thresholds are ``<= value``; categorical -- 1 if the value
            matched a tested category code, else 0.
        n_thresholds: size of the group's threshold/code table.
        threshold: the last threshold crossed (continuous) or the matched
            category code; NaN when none was crossed/matched.
        rank: 1-based rank by |contribution| (0 until ranked).
    """

    feature: int
    name: str | None
    categorical: bool
    value: float
    missing: bool
    contribution: float
    thresholds_crossed: int
    n_thresholds: int
    threshold: float
    rank: int = 0

    @property
    def evidence(self) -> str:
        """One-line human-readable account of why this vote fired."""
        if self.missing:
            return "value missing -- the ensemble's missing-value vote applies"
        if self.categorical:
            if self.thresholds_crossed:
                return f"matched tested category {self.value:g}"
            return (
                f"value {self.value:g} matches none of the "
                f"{self.n_thresholds} tested categories"
            )
        if self.thresholds_crossed == 0:
            return f"below all {self.n_thresholds} learned thresholds"
        return (
            f"crossed {self.thresholds_crossed}/{self.n_thresholds} "
            f"learned thresholds (last: {self.threshold:g})"
        )

    def to_dict(self) -> dict:
        """A JSON-ready representation."""
        return {
            "rank": int(self.rank),
            "feature": int(self.feature),
            "name": self.name,
            "categorical": bool(self.categorical),
            "value": None if self.missing else float(self.value),
            "missing": bool(self.missing),
            "contribution": float(self.contribution),
            "thresholds_crossed": int(self.thresholds_crossed),
            "n_thresholds": int(self.n_thresholds),
            "threshold": (
                None if np.isnan(self.threshold) else float(self.threshold)
            ),
            "evidence": self.evidence,
        }


@dataclass(frozen=True)
class MarginAttribution:
    """A margin decomposed into its exact per-feature votes.

    ``contributions`` is kept in the scorer's fold order (ascending
    ``(feature, categorical)``), so :meth:`reconstructed` -- a plain
    left-fold -- repeats the scorer's addition sequence and equals
    ``margin`` bit-for-bit.
    """

    margin: float
    contributions: tuple[FeatureContribution, ...]

    def reconstructed(self) -> float:
        """Left-fold of the votes; bit-identical to ``margin``."""
        total = 0.0
        for c in self.contributions:
            total += c.contribution
        return total

    def ranked(self) -> list[FeatureContribution]:
        """Votes ordered by |contribution| descending, ranks filled in.

        Ties keep fold order (stable sort), so equal-magnitude votes rank
        deterministically.
        """
        order = sorted(
            range(len(self.contributions)),
            key=lambda i: -abs(self.contributions[i].contribution),
        )
        return [
            replace(self.contributions[i], rank=rank + 1)
            for rank, i in enumerate(order)
        ]

    def top(self, k: int) -> list[FeatureContribution]:
        """The ``k`` largest-magnitude votes, ranks filled in."""
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        return self.ranked()[:k]


def _name_of(names, feature: int) -> str | None:
    # Tolerate absent or short name lists (e.g. synthetic bench bundles
    # never name their columns): the name is cosmetic, never load-bearing.
    if names is None or feature >= len(names):
        return None
    return names[feature]


@dataclass(frozen=True)
class BatchAttribution:
    """Many rows' margins decomposed into exact per-group votes.

    Column ``j`` of ``votes``, ``slots`` and ``values`` belongs to
    ``groups[j]``, in the scorer's fold order, and ``margins`` is the
    column-by-column left-fold of ``votes``: every row gets the same
    double additions, in the same order, as the compiled scorer.
    :class:`FeatureContribution` objects are built on demand, only for
    the votes a caller keeps.

    Attributes:
        groups: the voting groups (``feature``, ``categorical``,
            ``keys``), in fold order.
        values: (rows, groups) raw value each group read.
        slots: (rows, groups) each value's slot in its group's table.
        votes: (rows, groups) the exact doubles the scorer adds.
        margins: (rows,) the folded margins.
        names: optional per-column feature names.
    """

    groups: tuple
    values: np.ndarray
    slots: np.ndarray
    votes: np.ndarray
    margins: np.ndarray
    names: list[str] | None = None

    def reconstructed(self, row: int) -> float:
        """Python left-fold of one row's votes; equals ``margins[row]``."""
        total = 0.0
        for vote in self.votes[row].tolist():
            total += vote
        return total

    def attribution(self, row: int) -> MarginAttribution:
        """One row's every vote, in fold order, as a
        :class:`MarginAttribution`."""
        return MarginAttribution(
            margin=float(self.margins[row]),
            contributions=tuple(
                self._contribution(row, j, 0) for j in range(len(self.groups))
            ),
        )

    def top(self, k: int) -> list[list[FeatureContribution]]:
        """Each row's ``k`` largest-magnitude votes, ranks filled in.

        One stable argsort of ``-|vote|`` per row: ties keep fold order,
        the rule of :meth:`MarginAttribution.ranked`.
        """
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        order = np.argsort(-np.abs(self.votes), axis=1, kind="stable")[:, :k]
        return [
            [
                self._contribution(row, j, rank + 1)
                for rank, j in enumerate(kept)
            ]
            for row, kept in enumerate(order.tolist())
        ]

    def _contribution(
        self, row: int, j: int, rank: int
    ) -> FeatureContribution:
        group = self.groups[j]
        size = group.keys.size
        value = float(self.values[row, j])
        slot = int(self.slots[row, j])
        missing = slot == size + 1
        if missing:
            crossed, threshold = 0, float("nan")
        elif group.categorical:
            crossed = int(slot < size)
            threshold = value if crossed else float("nan")
        else:
            crossed = slot
            threshold = float(group.keys[slot - 1]) if slot else float("nan")
        return FeatureContribution(
            feature=group.feature,
            name=_name_of(self.names, group.feature),
            categorical=group.categorical,
            value=value,
            missing=missing,
            contribution=float(self.votes[row, j]),
            thresholds_crossed=crossed,
            n_thresholds=int(size),
            threshold=threshold,
            rank=rank,
        )


def _attribute(groups, tables, X: np.ndarray, names) -> BatchAttribution:
    """The batch kernel: one slot pass and one ``take`` per group."""
    n = X.shape[0]
    shape = (n, len(groups))
    values = np.empty(shape)
    slots = np.empty(shape, dtype=np.intp)
    votes = np.empty(shape)
    margins = np.zeros(n)
    for j, (group, table) in enumerate(zip(groups, tables)):
        col = np.ascontiguousarray(X[:, group.feature])
        slot = _slots(group.keys, group.categorical, col)
        vote = table.take(slot)
        margins += vote
        values[:, j] = col
        slots[:, j] = slot
        votes[:, j] = vote
    return BatchAttribution(
        groups=tuple(groups), values=values, slots=slots, votes=votes,
        margins=margins, names=names,
    )


def _row(row: np.ndarray, n_features: int) -> np.ndarray:
    row = np.asarray(row, dtype=float)
    if row.shape != (n_features,):
        raise ValueError(
            f"row must have shape ({n_features},), got {row.shape}"
        )
    return row[None, :]


def attribute_rows(
    compiled: CompiledEnsemble,
    X: np.ndarray,
    names: list[str] | None = None,
) -> BatchAttribution:
    """Decompose every row's margin into exact per-feature votes.

    Args:
        compiled: the compiled ensemble that scored the rows.
        X: the (rows, n_features) model-input rows it scored.
        names: optional per-column names (e.g.
            ``TicketPredictor.feature_names``) copied onto the votes.

    Returns:
        A :class:`BatchAttribution` whose ``margins`` equal
        ``compiled.decision_function(X)`` bit-identically.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != compiled.n_features:
        raise ValueError(
            f"rows must be 2-D with {compiled.n_features} columns, "
            f"got {X.shape}"
        )
    return _attribute(
        compiled.groups, [g.table for g in compiled.groups], X, names
    )


def attribute_ensemble(
    compiled: CompiledEnsemble,
    row: np.ndarray,
    names: list[str] | None = None,
) -> MarginAttribution:
    """Decompose one row's margin: the one-row call of :func:`attribute_rows`.

    Returns:
        A :class:`MarginAttribution` whose vote fold reproduces
        ``compiled.decision_function(row[None])[0]`` bit-identically.
    """
    X = _row(row, compiled.n_features)
    return attribute_rows(compiled, X, names).attribution(0)


def attribute_head(
    multi: MultiHeadEnsemble,
    row: np.ndarray,
    head: int,
    names: list[str] | None = None,
) -> MarginAttribution:
    """Decompose one head's margin of a stacked multi-head ensemble.

    The merged groups store each head's bucket totals *expanded* onto the
    merged key grid -- the exact doubles of that head's own compiled
    ensemble -- and a head's groups appear in the same ascending
    ``(feature, kind)`` order as in its solo compilation, so the vote
    fold equals both ``decision_matrix(row[None])[0, head]`` and the solo
    head's ``decision_function`` bit-identically.  The votes come from
    the same batch kernel as :func:`attribute_rows`, over the merged
    groups the head takes part in and its row of their tables.

    Args:
        multi: the stacked ensemble.
        row: the (n_features,) row it scored.
        head: the output column to attribute (must have a head).
        names: optional per-column feature names.
    """
    X = _row(row, multi.n_features)
    matches = np.flatnonzero(multi.head_columns == head)
    if not matches.size:
        raise KeyError(f"no head at output column {head}")
    pos = int(matches[0])
    groups, tables = [], []
    for group in multi.groups:
        members = np.flatnonzero(group.head_positions == pos)
        if members.size:
            groups.append(group)
            tables.append(group.tables[int(members[0])])
    return _attribute(groups, tables, X, names).attribution(0)


def assemble_model_row(base_row: np.ndarray, recipes) -> np.ndarray:
    """One line's model-input row from its base-feature row.

    Goes through the serving path's column provider
    (``recipes.columns``), so the assembled doubles -- and therefore the
    attribution margin -- are the ones the served scoring run folded.
    """
    return recipes.columns(np.asarray(base_row, dtype=float)[None, :]).rows()[0]
