"""Shared fixtures for the test suite."""

from __future__ import annotations

import json
import random
import signal
import socket

import pytest

from repro.corpus import Marketplace
from repro.nlp import get_locale
from repro.types import Sentence, TaggedSentence

#: Wall-clock budget (seconds) the ``watchdog`` fixture grants a test.
WATCHDOG_SECONDS = 90


@pytest.fixture
def watchdog():
    """Fail fast instead of wedging CI when a recovery path hangs.

    The chaos/resilience tests exercise timeout and retry machinery; a
    regression there can hang rather than fail. This fixture arms a
    SIGALRM that raises ``TimeoutError`` after ``WATCHDOG_SECONDS``, so
    a hung test dies loudly. Opt in per-module with
    ``pytestmark = pytest.mark.usefixtures("watchdog")``. No-op on
    platforms without SIGALRM.
    """
    if not hasattr(signal, "SIGALRM"):  # pragma: no cover - non-POSIX
        yield
        return

    def _expired(signum, frame):
        raise TimeoutError(
            f"watchdog: test exceeded {WATCHDOG_SECONDS}s wall-clock"
        )

    previous = signal.signal(signal.SIGALRM, _expired)
    signal.alarm(WATCHDOG_SECONDS)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture(scope="session")
def ja():
    """The Japanese-locale NLP bundle."""
    return get_locale("ja")


@pytest.fixture(scope="session")
def de():
    """The German-locale NLP bundle."""
    return get_locale("de")


@pytest.fixture
def make_sentence(ja):
    """Factory: text -> tokenized Sentence in the ja locale."""

    def _make(
        text: str, product_id: str = "p0", index: int = 0
    ) -> Sentence:
        return Sentence(product_id, index, ja.tokens(text))

    return _make


@pytest.fixture
def make_tagged(make_sentence):
    """Factory: (text, value, attribute) -> BIO-labelled sentence.

    Labels the first occurrence of ``value``'s token sequence.
    """

    def _make(
        text: str,
        value: str,
        attribute: str,
        product_id: str = "p0",
        index: int = 0,
    ) -> TaggedSentence:
        sentence = make_sentence(text, product_id, index)
        texts = list(sentence.texts())
        value_tokens = value.split(" ")
        labels = ["O"] * len(texts)
        for start in range(len(texts) - len(value_tokens) + 1):
            if texts[start:start + len(value_tokens)] == value_tokens:
                labels[start] = f"B-{attribute}"
                for offset in range(1, len(value_tokens)):
                    labels[start + offset] = f"I-{attribute}"
                break
        return TaggedSentence(sentence, tuple(labels))

    return _make


@pytest.fixture(scope="session")
def small_vacuum_dataset():
    """A small but non-trivial generated category (cached per session)."""
    return Marketplace(seed=11).generate("vacuum_cleaner", 80)


@pytest.fixture(scope="session")
def small_garden_dataset():
    """The noisy category at small scale (cached per session)."""
    return Marketplace(seed=11).generate("garden", 80)


@pytest.fixture
def rng():
    return random.Random(1234)


#: The serve suite's dictionary: attribute -> value keys.
SERVE_DICTIONARY = {
    "iro": ("aka", "ao", "shiro", "kuro", "midori"),
    "juryo": ("2 kg", "3 kg", "5 kg", "1 . 5 kg"),
}


@pytest.fixture(scope="session")
def serve_model(ja):
    """A trained CRF + its dictionary for serve tests (cached per session).

    Same tiny ja labelling task as the CRF model tests; returns
    ``(tagger, dictionary)`` ready for ``publish_bundle``.
    """
    from repro.config import CrfConfig
    from repro.ml import CrfTagger

    generator = random.Random(0)
    colors = list(SERVE_DICTIONARY["iro"])
    weights = list(SERVE_DICTIONARY["juryo"])
    data = []
    for index in range(150):
        color = generator.choice(colors)
        weight = generator.choice(weights)
        tokens = ja.tokens(
            f"iro wa {color} desu soshite juryo wa {weight} desu"
        )
        texts = [token.text for token in tokens]
        labels = ["O"] * len(tokens)
        labels[texts.index(color)] = "B-iro"
        weight_tokens = weight.split()
        for start in range(len(texts)):
            if texts[start:start + len(weight_tokens)] == weight_tokens:
                labels[start] = "B-juryo"
                for offset in range(1, len(weight_tokens)):
                    labels[start + offset] = "I-juryo"
                break
        data.append(
            TaggedSentence(Sentence(f"p{index}", 0, tokens), tuple(labels))
        )
    tagger = CrfTagger(CrfConfig(max_iterations=40)).train(data)
    return tagger, {
        attribute: list(values)
        for attribute, values in SERVE_DICTIONARY.items()
    }


@pytest.fixture
def raw_http():
    """Send raw bytes to a serve daemon, read until it closes the
    connection; returns ``(status, JSON body, raw head)``."""

    def _exchange(server, request: bytes) -> tuple[int, dict, bytes]:
        host, port = server.server_address[:2]
        with socket.create_connection((host, port), timeout=20) as sock:
            sock.sendall(request)
            chunks = []
            while chunk := sock.recv(65536):
                chunks.append(chunk)
        head, _, body = b"".join(chunks).partition(b"\r\n\r\n")
        return int(head.split(b" ", 2)[1]), json.loads(body), head

    return _exchange
