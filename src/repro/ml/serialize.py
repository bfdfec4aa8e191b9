"""Model serialization: save and load trained NEVERMIND models as JSON.

An operational deployment (Fig. 3) trains weekly-or-less but scores every
Saturday, usually on different machines; models therefore need a stable
on-disk form.  Everything in this reproduction serialises to plain JSON --
a BStump is just a list of stumps plus two calibration scalars, which is
also pleasantly auditable by operations staff.

Serving guarantees (used by :mod:`repro.serve`):

* every payload carries a ``checksum`` (SHA-256 over the canonical JSON
  of the model content) that the loader verifies, so a corrupted or
  hand-edited bundle fails loudly instead of scoring garbage;
* nested payloads are checksummed at every level (each model, the
  locator that holds them, the bundle that holds both), but inside one
  :func:`checksum_pass` each dict is encoded once: the canonical JSON is
  built bottom-up and each child's string is spliced into its parent's;
* a loaded :class:`BStump` is compiled eagerly
  (:meth:`~repro.ml.boostexter.BStump.compiled`), so a save/load round
  trip hands back a model whose :class:`CompiledEnsemble` scorer produces
  margins *bit-identical* to the original's -- JSON floats round-trip
  exactly (``repr`` shortest form), the stumps are restored in round
  order, and compilation is deterministic;
* the Section-6 trouble locator (52 one-vs-rest models + 4 location
  models + the Eq.-2 blend) round-trips through
  :func:`combined_locator_to_dict` / :func:`combined_locator_from_dict`
  so a registry bundle can serve disposition rankings.
"""

from __future__ import annotations

import hashlib
import json
from contextlib import contextmanager
from contextvars import ContextVar
from pathlib import Path
from typing import Any, Iterator

from repro.durable import atomic_write
from repro.ml.boostexter import BStump, BStumpConfig, WeakLearner
from repro.ml.calibration import PlattCalibrator
from repro.ml.stumps import Stump

__all__ = [
    "payload_checksum",
    "checksum_pass",
    "bstump_to_dict",
    "bstump_from_dict",
    "save_bstump",
    "load_bstump",
    "combined_locator_to_dict",
    "combined_locator_from_dict",
]

_FORMAT_VERSION = 1
_LOCATOR_FORMAT_VERSION = 1
_CHECKSUM_FIELD = "checksum"


#: ``json.dumps(value, sort_keys=True, separators=(",", ":"))``.
_dumps = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode

#: The active :func:`checksum_pass` memo, None outside a pass:
#: ``id(dict)`` -> ``[dict, members, digest]`` (see :func:`_encoded`).
_PASS: ContextVar[dict[int, list] | None] = ContextVar("checksum_pass",
                                                       default=None)


@contextmanager
def checksum_pass() -> Iterator[None]:
    """Encode each dict at most once across the checksums in the block.

    Verifying a bundle checksums the bundle, then its locator, then each
    model; writing one checksums them in the reverse order.  Inside a
    pass a dict's canonical JSON is kept (by identity) until its parent
    splices it in, and a checksummed dict's digest is kept to the end, so
    no level is encoded twice.  Payloads must not change inside the
    block, except that a dict's own ``checksum`` member may be set after
    it was hashed.  Nested passes share the outermost one's memo.  Also
    usable as a decorator, ``@checksum_pass()``.
    """
    if _PASS.get() is not None:
        yield
        return
    token = _PASS.set({})
    try:
        yield
    finally:
        _PASS.reset(token)


def _encoded(payload: dict, memo: dict[int, list]) -> list:
    """The memo entry of a str-keyed dict, with its members encoded.

    ``members`` is the canonical JSON of every member but the checksum,
    as ``(head, tail)``: the members that sort before and after where
    the checksum member goes.
    """
    entry = memo.setdefault(id(payload), [payload, None, None])
    if entry[1] is None:
        head: list[str] = []
        tail: list[str] = []
        for key in sorted(payload):
            if key != _CHECKSUM_FIELD:
                member = f"{_dumps(key)}:{_canonical(payload[key], memo)}"
                (head if key < _CHECKSUM_FIELD else tail).append(member)
        entry[1] = (",".join(head), ",".join(tail))
    return entry


def _digest(entry: list) -> str:
    """The SHA-256 of an encoded memo entry's content, computed once."""
    if entry[2] is None:
        blob = "{" + ",".join(part for part in entry[1] if part) + "}"
        entry[2] = hashlib.sha256(blob.encode()).hexdigest()
    return entry[2]


def _canonical(value: Any, memo: dict[int, list]) -> str:
    """``_dumps(value)``, built bottom-up through str-keyed dicts."""
    if not isinstance(value, dict) or not all(isinstance(k, str) for k in value):
        return _dumps(value)
    entry = _encoded(value, memo)
    head, tail = entry[1]
    if _CHECKSUM_FIELD in value:
        _digest(entry)  # for the dict's own verification
        checksum = f'"{_CHECKSUM_FIELD}":{_dumps(value[_CHECKSUM_FIELD])}'
        head = f"{head},{checksum}" if head else checksum
    entry[1] = None  # spliced into the parent: no longer needed
    return "{" + ",".join(part for part in (head, tail) if part) + "}"


def payload_checksum(payload: dict[str, Any]) -> str:
    """SHA-256 over the canonical JSON of ``payload`` (checksum excluded).

    Canonical form is sorted keys with compact separators, so the digest
    is independent of insertion order and whitespace.  Inside a
    :func:`checksum_pass` the encoding is shared with every other
    checksum of the pass.
    """
    if not all(isinstance(k, str) for k in payload):
        content = {k: v for k, v in payload.items() if k != _CHECKSUM_FIELD}
        return hashlib.sha256(_dumps(content).encode()).hexdigest()
    memo = _PASS.get()
    if memo is None:
        memo = {}
    entry = memo.get(id(payload))
    if entry is None or entry[2] is None:
        entry = _encoded(payload, memo)
        _digest(entry)
        if _CHECKSUM_FIELD in payload:
            # Being verified, not sealed: no parent will splice it in.
            entry[1] = None
    return entry[2]


def _verify_checksum(payload: dict[str, Any], what: str) -> None:
    """Validate an embedded checksum when one is present."""
    stored = payload.get(_CHECKSUM_FIELD)
    if stored is None:
        return  # pre-checksum payloads stay loadable
    actual = payload_checksum(payload)
    if stored != actual:
        raise ValueError(
            f"{what} checksum mismatch: payload says {stored[:12]}..., "
            f"content hashes to {actual[:12]}... (corrupted or edited file)"
        )


def bstump_to_dict(model: BStump) -> dict[str, Any]:
    """Serialise a fitted BStump (with its calibrator) to plain data."""
    if not model.learners:
        raise ValueError("cannot serialise an unfitted model")
    payload: dict[str, Any] = {
        "format_version": _FORMAT_VERSION,
        "config": {
            "n_rounds": model.config.n_rounds,
            "early_stop_z": model.config.early_stop_z,
            "calibrate": model.config.calibrate,
            "missing_policy": model.config.missing_policy,
            "max_split_points": model.config.max_split_points,
            # Training provenance: a promoted model's bundle records which
            # backend and bin budget produced it, so a retrain can
            # reproduce it.  Payloads written before these fields existed
            # load as backend="exact" via the dataclass defaults.
            "backend": model.config.backend,
            "n_bins": model.config.n_bins,
        },
        "n_features": model.n_features_,
        "learners": [
            {
                "feature": learner.stump.feature,
                "threshold": learner.stump.threshold,
                "s_lo": learner.stump.s_lo,
                "s_hi": learner.stump.s_hi,
                "s_miss": learner.stump.s_miss,
                "categorical": learner.stump.categorical,
                "z": learner.stump.z,
                "round_index": learner.round_index,
            }
            for learner in model.learners
        ],
    }
    if model.calibrator is not None:
        payload["calibrator"] = {"a": model.calibrator.a, "b": model.calibrator.b}
    payload[_CHECKSUM_FIELD] = payload_checksum(payload)
    return payload


def bstump_from_dict(payload: dict[str, Any]) -> BStump:
    """Rebuild a BStump from :func:`bstump_to_dict` output.

    Verifies the embedded checksum (when present) and compiles the
    ensemble eagerly, so the returned model round-trips with its
    :class:`~repro.ml.ensemble_scoring.CompiledEnsemble` scorer attached
    and produces bit-identical margins to the model that was saved.
    """
    version = payload.get("format_version")
    if version != _FORMAT_VERSION:
        raise ValueError(f"unsupported model format version: {version!r}")
    _verify_checksum(payload, "model")
    config = BStumpConfig(**payload["config"])
    model = BStump(config)
    model.n_features_ = int(payload["n_features"])
    model.learners = [
        WeakLearner(
            stump=Stump(
                feature=int(entry["feature"]),
                threshold=float(entry["threshold"]),
                s_lo=float(entry["s_lo"]),
                s_hi=float(entry["s_hi"]),
                s_miss=float(entry["s_miss"]),
                categorical=bool(entry["categorical"]),
                z=float(entry["z"]),
            ),
            round_index=int(entry["round_index"]),
            z=float(entry["z"]),
        )
        for entry in payload["learners"]
    ]
    model.train_z_ = [learner.z for learner in model.learners]
    if "calibrator" in payload:
        calibrator = PlattCalibrator()
        calibrator.a = float(payload["calibrator"]["a"])
        calibrator.b = float(payload["calibrator"]["b"])
        calibrator.fitted_ = True
        model.calibrator = calibrator
    model.compiled()  # eager compile: loading yields a scoring-ready model
    return model


def save_bstump(model: BStump, path: str | Path) -> None:
    """Write a fitted model to a JSON file, atomically replacing any old one."""
    atomic_write(path, json.dumps(bstump_to_dict(model)).encode())


def load_bstump(path: str | Path) -> BStump:
    """Read a model previously written by :func:`save_bstump`."""
    return bstump_from_dict(json.loads(Path(path).read_text()))


# ----- trouble locator ------------------------------------------------------


@checksum_pass()
def combined_locator_to_dict(model) -> dict[str, Any]:
    """Serialise a fitted :class:`~repro.core.locator.CombinedLocator`.

    Captures everything ``predict_proba`` needs: the flat model's prior,
    per-disposition ensembles and Platt calibrators, the four
    major-location ensembles, and the Eq.-2 blend coefficients.  The
    out-of-fold training margins are fit-time scaffolding and are not
    persisted.
    """
    flat = model.flat
    if flat.prior_ is None:
        raise ValueError("cannot serialise an unfitted locator")
    payload: dict[str, Any] = {
        "format_version": _LOCATOR_FORMAT_VERSION,
        "config": {
            "n_rounds": model.config.n_rounds,
            "min_positive": model.config.min_positive,
            "prior_smoothing": model.config.prior_smoothing,
            "cv_folds": model.config.cv_folds,
            "cv_seed": model.config.cv_seed,
            "backend": model.config.backend,
            "n_bins": model.config.n_bins,
            "max_split_points": model.config.max_split_points,
        },
        "prior": [float(p) for p in flat.prior_],
        "disposition_models": {
            str(code): bstump_to_dict(m) for code, m in sorted(flat.models_.items())
        },
        "calibrators": {
            str(code): {"a": cal.a, "b": cal.b}
            for code, cal in sorted(flat.calibrators_.items())
        },
        "location_models": {
            str(loc): bstump_to_dict(m)
            for loc, m in sorted(model.location_models_.items())
        },
        "blend": {
            str(code): [float(g) for g in gammas]
            for code, gammas in sorted(model.blend_.items())
        },
    }
    payload[_CHECKSUM_FIELD] = payload_checksum(payload)
    return payload


@checksum_pass()
def combined_locator_from_dict(payload: dict[str, Any]):
    """Rebuild a CombinedLocator from :func:`combined_locator_to_dict`."""
    from repro.core.locator import CombinedLocator, LocatorConfig

    import numpy as np

    version = payload.get("format_version")
    if version != _LOCATOR_FORMAT_VERSION:
        raise ValueError(f"unsupported locator format version: {version!r}")
    _verify_checksum(payload, "locator")
    config = dict(payload["config"])
    # Payloads written before the locator rode the shared-binning fabric
    # carry no backend knobs; those models were trained exact, and the
    # per-head BStump payloads (which record their own backend) agree.
    config.setdefault("backend", "exact")
    config.setdefault("n_bins", 256)
    config.setdefault("max_split_points", 256)
    model = CombinedLocator(LocatorConfig(**config))
    flat = model.flat
    flat.prior_ = np.asarray(payload["prior"], dtype=float)
    flat.models_ = {
        int(code): bstump_from_dict(entry)
        for code, entry in payload["disposition_models"].items()
    }
    flat.calibrators_ = {}
    for code, entry in payload["calibrators"].items():
        calibrator = PlattCalibrator()
        calibrator.a = float(entry["a"])
        calibrator.b = float(entry["b"])
        calibrator.fitted_ = True
        flat.calibrators_[int(code)] = calibrator
    model.location_models_ = {
        int(loc): bstump_from_dict(entry)
        for loc, entry in payload["location_models"].items()
    }
    model.blend_ = {
        int(code): (float(g[0]), float(g[1]), float(g[2]))
        for code, g in payload["blend"].items()
    }
    return model
