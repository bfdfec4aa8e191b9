"""The model registry: versioned, checksummed on-disk model bundles.

The operational loop (Fig. 3) retrains weekly-or-less but scores every
Saturday; the model that scores must be *pinned* -- a known version with
a verified checksum -- and a bad rollout must be reversible before the
next campaign.  A registry is a directory of immutable version bundles
plus a manifest naming the active one::

    registry_root/
      MANIFEST.json            # versions, checksums, active, history
      v0001/bundle.json        # predictor (+ optional locator) payload
      v0002/bundle.json

A *bundle* is the full serving unit: the ticket predictor (feature
recipes + encoder spec + BStump + Platt calibrator, via
``TicketPredictor.to_dict``), optionally the Section-6 combined trouble
locator, and free-form metadata (training week, population size, ...).
Bundles are immutable once published; ``activate``/``rollback`` only move
the manifest pointer.  Every load verifies the bundle checksum, and the
loaded predictor's ensemble arrives pre-compiled
(:mod:`repro.ml.serialize` compiles on load), so serving starts at full
scoring speed with margins bit-identical to the trainer's.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.core.predictor import TicketPredictor
from repro.durable import atomic_write
from repro.ml.serialize import (
    checksum_pass,
    combined_locator_from_dict,
    combined_locator_to_dict,
    payload_checksum,
)
from repro.obs.log import get_logger, kv

__all__ = ["ModelBundle", "ModelRegistry", "RegistryError"]


class RegistryError(RuntimeError):
    """An invalid registry operation (e.g. rollback with no predecessor)."""

LOG = get_logger("serve.registry")

_MANIFEST = "MANIFEST.json"
_BUNDLE = "bundle.json"
_FORMAT_VERSION = 1


@dataclass
class ModelBundle:
    """Everything one registry version serves.

    Attributes:
        predictor: a fitted ticket predictor (model + recipes + encoder).
        locator: optional fitted combined trouble locator.
        meta: free-form JSON metadata (trained week, lines, notes...).
    """

    predictor: TicketPredictor
    locator: Any | None = None
    meta: dict[str, Any] = field(default_factory=dict)

    @checksum_pass()
    def to_dict(self) -> dict[str, Any]:
        payload: dict[str, Any] = {
            "format_version": _FORMAT_VERSION,
            "predictor": self.predictor.to_dict(),
            "locator": (
                combined_locator_to_dict(self.locator)
                if self.locator is not None
                else None
            ),
            "meta": self.meta,
        }
        payload["checksum"] = payload_checksum(payload)
        return payload

    @classmethod
    @checksum_pass()
    def from_dict(cls, payload: dict[str, Any]) -> "ModelBundle":
        version = payload.get("format_version")
        if version != _FORMAT_VERSION:
            raise ValueError(f"unsupported bundle format version: {version!r}")
        stored = payload.get("checksum")
        if stored is not None and stored != payload_checksum(payload):
            raise ValueError("bundle checksum mismatch (corrupted or edited)")
        locator_payload = payload.get("locator")
        return cls(
            predictor=TicketPredictor.from_dict(payload["predictor"]),
            locator=(
                combined_locator_from_dict(locator_payload)
                if locator_payload is not None
                else None
            ),
            meta=dict(payload.get("meta", {})),
        )


class ModelRegistry:
    """Versioned bundle storage with activate/rollback semantics."""

    def __init__(self, root: str | Path):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        # In-process observers of activation changes (e.g. the serving
        # cache); not persisted -- each registry instance has its own.
        self._listeners: list = []
        self._versions: dict[str, dict[str, Any]] = {}
        self._active: str | None = None
        self._history: list[str] = []
        self._events: list[dict[str, Any]] = []
        if (self.root / _MANIFEST).exists():
            self.refresh()
        else:
            self._write_manifest()

    # ----- manifest -------------------------------------------------------

    def refresh(self) -> None:
        """Re-read the manifest, picking up other handles' writes.

        Each handle keeps the manifest in memory, so a publish, activate
        or rollback made through another ``ModelRegistry`` on the same
        root (e.g. the lifecycle controller's) is invisible here until
        this is called.  Listeners are not notified.
        """
        manifest = self._read_manifest()
        version = manifest.get("format_version")
        if version != _FORMAT_VERSION:
            raise ValueError(f"unsupported registry format version: {version!r}")
        self._versions = manifest["versions"]
        self._active = manifest["active"]
        self._history = list(manifest.get("history", []))
        self._events = list(manifest.get("events", []))

    def _read_manifest(self) -> dict[str, Any]:
        return json.loads((self.root / _MANIFEST).read_text())

    def _write_manifest(self) -> None:
        manifest = {
            "format_version": _FORMAT_VERSION,
            "active": self._active,
            "history": self._history,
            "events": self._events,
            "versions": self._versions,
        }
        atomic_write(self.root / _MANIFEST, json.dumps(manifest, indent=1).encode())

    def _record_event(self, action: str, **details: Any) -> None:
        """Append one lifecycle event to the manifest's audit trail.

        The caller is responsible for the following ``_write_manifest``;
        events and the state change they describe land atomically.
        """
        self._events.append({"action": action, "at": time.time(), **details})

    # ----- activation listeners -------------------------------------------

    def add_listener(self, listener) -> None:
        """Register ``listener(action, version)`` for activation changes.

        Called after every ``activate`` and ``rollback`` with the action
        name and the now-active version, so serving-side caches can
        invalidate the moment the active model moves.  Listeners are
        in-process only and must not raise.
        """
        self._listeners.append(listener)

    def _notify(self, action: str, version: str | None) -> None:
        for listener in self._listeners:
            listener(action, version)

    # ----- write path -----------------------------------------------------

    def publish(self, bundle: ModelBundle, activate: bool = False) -> str:
        """Write a bundle as the next version; optionally activate it.

        Returns the new version tag (``v0001``, ``v0002``, ...).
        """
        version = f"v{len(self._versions) + 1:04d}"
        payload = bundle.to_dict()
        version_dir = self.root / version
        try:
            version_dir.mkdir(parents=True)
        except FileExistsError:
            # Left by a publish that crashed before its manifest commit
            # (reuse it) or published through another handle (refuse).
            if version in self._read_manifest()["versions"]:
                raise
        atomic_write(version_dir / _BUNDLE, json.dumps(payload).encode())
        self._versions[version] = {
            "checksum": payload["checksum"],
            "published_at": time.time(),
            "meta": bundle.meta,
        }
        self._record_event("publish", version=version)
        self._write_manifest()
        LOG.info(kv(
            "registry.publish",
            version=version,
            checksum=payload["checksum"][:12],
            activate=activate,
        ))
        if activate:
            self.activate(version)
        return version

    def activate(self, version: str) -> None:
        """Point serving at ``version`` (records the previous for rollback)."""
        if version not in self._versions:
            raise KeyError(f"unknown model version {version!r}")
        if version == self._active:
            return
        previous = self._active
        self._history.append(version)
        self._active = version
        self._record_event("activate", version=version, previous=previous)
        self._write_manifest()
        LOG.info(kv("registry.activate", version=version, previous=previous))
        self._notify("activate", version)

    def rollback(self) -> str:
        """Re-activate the previously active version; returns its tag.

        Raises:
            RegistryError: when there is no earlier activation to return
                to -- i.e. fewer than two versions have ever been
                activated, so the registry has no known-good predecessor.
        """
        if len(self._history) < 2:
            raise RegistryError(
                f"cannot roll back: {len(self._history)} version(s) have "
                "been activated and rollback needs a predecessor "
                "(activate at least two versions first)"
            )
        rolled_back = self._history.pop()
        self._active = self._history[-1]
        self._record_event(
            "rollback", version=self._active, rolled_back=rolled_back
        )
        self._write_manifest()
        LOG.warning(kv(
            "registry.rollback", version=self._active, rolled_back=rolled_back
        ))
        self._notify("rollback", self._active)
        return self._active

    # ----- read path ------------------------------------------------------

    @property
    def active(self) -> str | None:
        """The currently active version tag (None before first activate)."""
        return self._active

    @property
    def versions(self) -> list[str]:
        """All published version tags, in publish order."""
        return sorted(self._versions)

    @property
    def events(self) -> list[dict[str, Any]]:
        """The append-only publish/activate/rollback audit trail.

        Each event is ``{"action", "at", "version", ...}``; rollbacks also
        name the ``rolled_back`` version, so an external decision log can
        cite exactly which registry transition it caused.
        """
        return [dict(e) for e in self._events]

    def meta(self, version: str) -> dict[str, Any]:
        """Publish-time metadata of a version."""
        if version not in self._versions:
            raise KeyError(f"unknown model version {version!r}")
        return dict(self._versions[version]["meta"])

    @checksum_pass()
    def load(self, version: str | None = None) -> ModelBundle:
        """Load a bundle (the active one by default), verifying checksums.

        Both the manifest-recorded checksum and the bundle's embedded one
        must match the file content, so neither a tampered bundle nor a
        swapped manifest entry loads silently.
        """
        if version is None:
            version = self._active
        if version is None:
            raise RuntimeError("registry has no active model version")
        if version not in self._versions:
            raise KeyError(f"unknown model version {version!r}")
        payload = json.loads((self.root / version / _BUNDLE).read_text())
        actual = payload_checksum(payload)
        if actual != self._versions[version]["checksum"]:
            raise ValueError(
                f"bundle {version} does not match its manifest checksum "
                "(corrupted or edited)"
            )
        return ModelBundle.from_dict(payload)
