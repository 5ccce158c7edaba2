"""Tests for the versioned warm model registry."""

import json
import threading
import time

import pytest

from repro.errors import ModelError
from repro.ml.persistence import verify_manifest, write_manifest
from repro.serve import ModelRegistry, load_bundle, publish_bundle

pytestmark = pytest.mark.usefixtures("watchdog")


@pytest.fixture
def registry_root(tmp_path, serve_model):
    tagger, dictionary = serve_model
    publish_bundle(tmp_path, "v1", tagger, dictionary, "ja")
    return tmp_path


def test_publish_writes_manifest_and_dictionary(registry_root):
    bundle_dir = registry_root / "v1"
    assert (bundle_dir / "MANIFEST.json").exists()
    assert (bundle_dir / "dictionary.json").exists()
    # Manifest verifies cleanly right after publishing.
    digest = verify_manifest(bundle_dir)
    assert len(digest) == 64


def test_load_bundle_checksums_and_warm_up(registry_root):
    bundle = load_bundle(registry_root, "v1")
    assert bundle.version == "v1"
    assert bundle.locale == "ja"
    assert not bundle.warmed
    seconds = bundle.warm_up()
    assert bundle.warmed
    assert seconds >= 0
    assert "aka" in bundle.dictionary["iro"]


def test_tampered_weights_are_rejected(registry_root):
    weights = registry_root / "v1" / "weights.npz"
    corrupted = bytearray(weights.read_bytes())
    corrupted[len(corrupted) // 2] ^= 0xFF
    weights.write_bytes(bytes(corrupted))
    with pytest.raises(ModelError, match="checksum mismatch"):
        load_bundle(registry_root, "v1")


def test_tampered_dictionary_is_rejected(registry_root):
    (registry_root / "v1" / "dictionary.json").write_text("{}")
    with pytest.raises(ModelError):
        load_bundle(registry_root, "v1")


def test_missing_version_is_a_model_error(registry_root):
    with pytest.raises(ModelError, match="no published version"):
        load_bundle(registry_root, "v9")


def _rewrite_config(bundle_dir, **changes):
    """Edit the saved tagger config and re-seal the manifest."""
    meta_path = bundle_dir / "meta.json"
    meta = json.loads(meta_path.read_text())
    meta["config"].update(changes)
    meta_path.write_text(json.dumps(meta, ensure_ascii=False, indent=1))
    write_manifest(bundle_dir, extra_files=("dictionary.json",))


def test_bundle_with_retired_crf_keys_loads_and_tags_identically(
    registry_root, serve_model, ja
):
    from repro.config import CrfConfig
    from repro.ml.persistence import _RETIRED_CRF_KEYS
    from repro.types import Sentence

    # Bundles saved before the trainer and batching knobs were retired
    # carry all six keys; the loader drops them whatever their value.
    assert len(_RETIRED_CRF_KEYS) == 6
    assert not _RETIRED_CRF_KEYS & set(CrfConfig.__dataclass_fields__)
    tagger, _ = serve_model
    _rewrite_config(
        registry_root / "v1",
        **{key: "lbfgs" if key == "trainer" else 1
           for key in _RETIRED_CRF_KEYS},
    )
    bundle = load_bundle(registry_root, "v1")
    assert bundle.tagger.config == tagger.config
    sentences = [
        Sentence("p1", 0, ja.tokens("iro wa aka desu soshite juryo wa 2 kg")),
        Sentence("p2", 0, ja.tokens("juryo wa 3 kg desu")),
    ]
    assert bundle.tagger.tag(sentences) == tagger.tag(sentences)


def test_bundle_with_unknown_config_key_is_a_model_error(registry_root):
    _rewrite_config(registry_root / "v1", future_knob=3)
    with pytest.raises(ModelError, match="CrfConfig"):
        load_bundle(registry_root, "v1")


def test_bundle_with_out_of_range_config_is_a_model_error(registry_root):
    _rewrite_config(registry_root / "v1", window=-1)
    with pytest.raises(ModelError, match="window"):
        load_bundle(registry_root, "v1")


def test_activate_marks_bundle_live_and_warm(registry_root):
    registry = ModelRegistry(registry_root)
    assert registry.versions() == ["v1"]
    bundle = registry.activate_latest()
    assert bundle.warmed
    assert registry.active is bundle
    assert registry.previous is None
    assert registry.last_warmup_seconds is not None


def test_lease_yields_none_for_empty_rung(registry_root):
    registry = ModelRegistry(registry_root)
    registry.activate("v1")
    with registry.lease(1) as bundle:
        assert bundle is None


def test_hot_swap_keeps_previous_as_ladder_rung(
    registry_root, serve_model
):
    tagger, dictionary = serve_model
    publish_bundle(registry_root, "v2", tagger, dictionary, "ja")
    registry = ModelRegistry(registry_root)
    registry.activate("v1")
    registry.activate("v2")
    assert registry.active.version == "v2"
    assert registry.previous.version == "v1"
    with registry.lease(1) as bundle:
        assert bundle.version == "v1"


def test_hot_swap_drains_in_flight_leases(registry_root, serve_model):
    """A swap waits for the outgoing version's in-flight requests.

    Satellite: registry hot-swap during in-flight requests — the old
    version drains before activate() returns, and the in-flight lease
    observes one consistent bundle throughout.
    """
    tagger, dictionary = serve_model
    publish_bundle(registry_root, "v2", tagger, dictionary, "ja")
    registry = ModelRegistry(registry_root, drain_timeout_seconds=10.0)
    registry.activate("v1")

    lease_entered = threading.Event()
    release_lease = threading.Event()
    observed = {}

    def in_flight_request():
        with registry.lease(0) as bundle:
            observed["before"] = bundle.version
            lease_entered.set()
            release_lease.wait(timeout=10)
            # Still the same bundle object: no half-swapped model.
            observed["after"] = bundle.version
            observed["tagger"] = bundle.tagger

    worker = threading.Thread(target=in_flight_request)
    worker.start()
    assert lease_entered.wait(timeout=10)

    swap_done = threading.Event()

    def swap():
        registry.activate("v2")
        swap_done.set()

    swapper = threading.Thread(target=swap)
    swapper.start()
    # The swap itself is immediate (new requests get v2) but activate()
    # must still be draining the old version while the lease is held.
    deadline = time.monotonic() + 5
    while registry.active is None or registry.active.version != "v2":
        assert time.monotonic() < deadline
        time.sleep(0.01)
    with registry.lease(0) as bundle:
        assert bundle.version == "v2"
    assert not swap_done.is_set()  # drain still waiting on the lease

    release_lease.set()
    worker.join(timeout=10)
    assert swap_done.wait(timeout=10)
    swapper.join(timeout=10)

    assert observed["before"] == "v1"
    assert observed["after"] == "v1"
    assert registry.clean_drains == 1
    assert registry.drain_timeouts == 0


def test_drain_timeout_is_counted_not_fatal(registry_root, serve_model):
    tagger, dictionary = serve_model
    publish_bundle(registry_root, "v2", tagger, dictionary, "ja")
    registry = ModelRegistry(registry_root, drain_timeout_seconds=0.05)
    old = registry.activate("v1")
    old.acquire()  # a lease that never releases in time
    try:
        registry.activate("v2")
    finally:
        old.release()
    assert registry.drain_timeouts == 1
    assert registry.active.version == "v2"


def test_reactivating_live_version_keeps_previous(
    registry_root, serve_model
):
    tagger, dictionary = serve_model
    publish_bundle(registry_root, "v2", tagger, dictionary, "ja")
    registry = ModelRegistry(registry_root)
    registry.activate("v1")
    registry.activate("v2")
    registry.activate("v2")  # refresh, not a swap
    assert registry.active.version == "v2"
    assert registry.previous.version == "v1"


def test_manifest_detects_missing_file(tmp_path, serve_model):
    tagger, dictionary = serve_model
    publish_bundle(tmp_path, "v1", tagger, dictionary, "ja")
    (tmp_path / "v1" / "dictionary.json").unlink()
    with pytest.raises(ModelError, match="missing"):
        verify_manifest(tmp_path / "v1")


def test_write_manifest_requires_model_files(tmp_path):
    (tmp_path / "empty").mkdir()
    with pytest.raises(ModelError):
        write_manifest(tmp_path / "empty")
