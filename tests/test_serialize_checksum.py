"""Serialization hardening: checksums, compile-on-load, locator round-trip."""

from __future__ import annotations

import copy
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.ml.boostexter import BStump, BStumpConfig
from repro.ml.serialize import (
    bstump_from_dict,
    bstump_to_dict,
    checksum_pass,
    combined_locator_from_dict,
    combined_locator_to_dict,
    payload_checksum,
)
from repro.serve import ModelBundle, ModelRegistry

DATA = Path(__file__).resolve().parent / "data"


def reference_checksum(payload: dict) -> str:
    """The checksum definition: SHA-256 of ``json.dumps(sort_keys=True)``."""
    content = {k: v for k, v in payload.items() if k != "checksum"}
    blob = json.dumps(content, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def checksummed_nodes(bundle: dict) -> list[tuple[str, dict]]:
    """Every checksummed payload of a bundle, in verification order."""
    nodes = [("bundle", bundle), ("model", bundle["predictor"]["model"])]
    locator = bundle.get("locator")
    if locator is not None:
        nodes.append(("locator", locator))
        for group in ("disposition_models", "location_models"):
            nodes.extend(("model", m) for m in locator[group].values())
    return nodes


def mismatch(what: str, payload: dict) -> str:
    """The ValueError message a model or locator checksum mismatch raises."""
    return (
        f"{what} checksum mismatch: payload says {payload['checksum'][:12]}..., "
        f"content hashes to {reference_checksum(payload)[:12]}... "
        "(corrupted or edited file)"
    )


@pytest.fixture(scope="module")
def fitted(rng_module):
    X = rng_module.normal(size=(400, 6))
    y = (X[:, 0] + 0.5 * X[:, 2] ** 2 > 0.3).astype(int) * 2 - 1
    return BStump(BStumpConfig(n_rounds=25)).fit(X, y), X


@pytest.fixture(scope="module")
def rng_module():
    return np.random.default_rng(7)


class TestChecksum:
    def test_payload_carries_a_checksum(self, fitted):
        payload = bstump_to_dict(fitted[0])
        assert payload["checksum"] == payload_checksum(payload)

    def test_checksum_ignores_key_order_and_itself(self, fitted):
        payload = bstump_to_dict(fitted[0])
        reordered = dict(reversed(list(payload.items())))
        assert payload_checksum(reordered) == payload["checksum"]

    def test_tampered_payload_is_rejected(self, fitted):
        payload = json.loads(json.dumps(bstump_to_dict(fitted[0])))
        payload["learners"][0]["threshold"] += 1e-9
        with pytest.raises(ValueError, match="checksum"):
            bstump_from_dict(payload)

    def test_pre_checksum_payloads_still_load(self, fitted):
        payload = bstump_to_dict(fitted[0])
        del payload["checksum"]
        model = bstump_from_dict(payload)
        assert len(model.learners) == len(fitted[0].learners)


class TestCompileOnLoad:
    def test_round_trip_margins_are_bit_identical(self, fitted):
        model, X = fitted
        loaded = bstump_from_dict(
            json.loads(json.dumps(bstump_to_dict(model)))
        )
        assert np.array_equal(
            loaded.decision_function(X), model.decision_function(X)
        )
        assert np.array_equal(
            loaded.predict_proba(X), model.predict_proba(X)
        )

    def test_loaded_model_is_precompiled(self, fitted):
        loaded = bstump_from_dict(bstump_to_dict(fitted[0]))
        compiled = loaded.compiled()
        assert compiled is loaded.compiled()  # cached, not rebuilt
        X = fitted[1]
        assert np.array_equal(
            compiled.decision_function(X), loaded.decision_function(X)
        )


class TestLocatorRoundTrip:
    def test_predict_proba_is_bit_identical(self, small_locator, rng_module):
        payload = json.loads(json.dumps(combined_locator_to_dict(small_locator)))
        loaded = combined_locator_from_dict(payload)
        n_features = next(iter(small_locator.flat.models_.values())).n_features_
        sample = rng_module.normal(size=(50, n_features))
        assert np.array_equal(
            loaded.predict_proba(sample), small_locator.predict_proba(sample)
        )

    def test_locator_tamper_detection(self, small_locator):
        payload = json.loads(json.dumps(combined_locator_to_dict(small_locator)))
        payload["prior"][0] += 1e-12
        with pytest.raises(ValueError, match="checksum"):
            combined_locator_from_dict(payload)

    def test_unfitted_locator_is_rejected(self):
        from repro.core.locator import CombinedLocator

        with pytest.raises(ValueError, match="unfitted"):
            combined_locator_to_dict(CombinedLocator())


@pytest.fixture(scope="module")
def bundle_payload(small_predictor, small_locator):
    bundle = ModelBundle(
        predictor=small_predictor, locator=small_locator,
        meta={"week": 12, "notes": {"checksum": "not ours", "a": [1, {"b": 2}]}},
    )
    return bundle.to_dict()


class TestOnePassChecksum:
    def test_every_level_matches_the_reference(self, bundle_payload):
        nodes = checksummed_nodes(bundle_payload)
        assert len(nodes) > 3
        for _, node in nodes:
            assert node["checksum"] == reference_checksum(node)
        loaded = json.loads(json.dumps(bundle_payload))
        for _, node in checksummed_nodes(loaded):
            assert payload_checksum(node) == reference_checksum(node)
        with checksum_pass():
            for _, node in checksummed_nodes(loaded):
                assert payload_checksum(node) == reference_checksum(node)

    @pytest.mark.parametrize("payload", [
        {},
        {"checksum": "x"},
        {"a": 1, "checksum": None, "z": [1, 2]},
        {"aa": {"checksum": "inner", "b": {}}, "zz": {"c": [{"y": 1, "x": 2}]}},
        {"check": 1, "checksum": 2, "checksums": 3, "Checksum": 4, "": 5},
        {"ü": "é", "\u2603": {"nested": {"deeper": [1.5, float("nan")]}}},
        {"ints": {3: "c", 10: "a", 2: "b"}, "floats": [0.1, 1e-300, -0.0]},
        {"numeric_strings": {"1": 1, "10": 2, "9": 3}},
        {"t": (1, 2, {"b": 1, "a": 2}), "u": True, "v": None},
    ])
    def test_matches_the_reference_on_odd_structures(self, payload):
        assert payload_checksum(payload) == reference_checksum(payload)
        with checksum_pass():
            first = payload_checksum(payload)
            assert payload_checksum(payload) == first
        assert first == reference_checksum(payload)

    def test_nested_checksum_written_after_hashing_reaches_the_parent(self):
        with checksum_pass():
            child = {"b": [1, 2], "a": "x"}
            child["checksum"] = payload_checksum(child)
            parent = {"child": child, "other": {"child": child}}
            digest = payload_checksum(parent)
        assert digest == reference_checksum(parent)

    def test_reencoding_the_loaded_bundle_is_byte_identical(self, bundle_payload):
        loaded = json.loads(json.dumps(bundle_payload))
        assert ModelBundle.from_dict(loaded).to_dict() == loaded


class TestTamperMessages:
    """Bundle, then locator, then model: the first failing level names itself."""

    def _tampered(self, bundle_payload):
        payload = copy.deepcopy(bundle_payload)
        locator = payload["locator"]
        model = next(iter(locator["disposition_models"].values()))
        model["learners"][0]["threshold"] += 1e-9
        first = next(iter(locator["blend"]))
        locator["blend"][first][0] += 1e-9
        payload["meta"]["week"] = 13
        return payload, locator, model

    def test_bundle_is_checked_first(self, bundle_payload):
        payload, _, _ = self._tampered(bundle_payload)
        with pytest.raises(ValueError) as info:
            ModelBundle.from_dict(payload)
        assert str(info.value) == "bundle checksum mismatch (corrupted or edited)"

    def test_then_the_locator(self, bundle_payload):
        payload, locator, _ = self._tampered(bundle_payload)
        payload["checksum"] = reference_checksum(payload)
        with pytest.raises(ValueError) as info:
            ModelBundle.from_dict(payload)
        assert str(info.value) == mismatch("locator", locator)

    def test_then_the_model(self, bundle_payload):
        payload, locator, model = self._tampered(bundle_payload)
        locator["checksum"] = reference_checksum(locator)
        payload["checksum"] = reference_checksum(payload)
        with pytest.raises(ValueError) as info:
            ModelBundle.from_dict(payload)
        assert str(info.value) == mismatch("model", model)
        with pytest.raises(ValueError) as info:
            bstump_from_dict(model)
        assert str(info.value) == mismatch("model", model)

    def test_registry_names_the_version(self, bundle_payload, tmp_path):
        registry = ModelRegistry(tmp_path / "registry")
        version = registry.publish(ModelBundle.from_dict(
            json.loads(json.dumps(bundle_payload))
        ))
        path = registry.root / version / "bundle.json"
        payload = json.loads(path.read_text())
        assert payload == json.loads(json.dumps(bundle_payload))
        payload["meta"]["week"] = 13
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError) as info:
            registry.load(version)
        assert str(info.value) == (
            f"bundle {version} does not match its manifest checksum "
            "(corrupted or edited)"
        )


class TestFormatV1Bundle:
    """``tests/data/bundle_v1.json`` was written by the serializer that
    re-encoded every nesting level; ``bundle_v1_outputs.json`` holds that
    code's locator posteriors and model margins on fixed inputs."""

    def test_loads_and_rewrites_unchanged(self):
        text = (DATA / "bundle_v1.json").read_text()
        payload = json.loads(text)
        for _, node in checksummed_nodes(payload):
            assert payload_checksum(node) == node["checksum"]
        bundle = ModelBundle.from_dict(payload)
        assert json.dumps(bundle.to_dict()) == text

    def test_outputs_are_bit_identical(self, tmp_path):
        registry = ModelRegistry(tmp_path / "registry")
        payload = json.loads((DATA / "bundle_v1.json").read_text())
        version = registry.publish(ModelBundle.from_dict(payload), activate=True)
        bundle = registry.load(version)
        expected = json.loads((DATA / "bundle_v1_outputs.json").read_text())
        width = next(iter(bundle.locator.flat.models_.values())).n_features_
        X = np.random.default_rng(0).normal(size=(6, width))
        model = bundle.predictor.model
        Xm = np.random.default_rng(1).normal(size=(6, model.n_features_))
        assert np.array_equal(
            bundle.locator.predict_proba(X), np.array(expected["locator_proba"])
        )
        assert np.array_equal(
            model.decision_function(Xm), np.array(expected["model_margin"])
        )
        assert np.array_equal(
            model.predict_proba(Xm), np.array(expected["model_proba"])
        )
