import json
import math
import random
import re
import zlib

import numpy as np
import pytest

from preference_chain.embedding import (
    HashEmbedder,
    RemoteEmbedder,
    _MIN_NORM,
    _norm,
    cosine_similarity,
    hash_embed,
    profile_to_text,
    similarity_weight,
)
from preference_chain.errors import (
    DimensionMismatch,
    EmptyText,
    ProviderError,
    ZeroVector,
)

from tests.conftest import make_profile


def test_cosine_hand_oracle():
    # dot = 32, |a| = sqrt(14), |b| = sqrt(77); 32/sqrt(1078) = 0.974631846...
    value = cosine_similarity(np.array([1.0, 2.0, 3.0]), np.array([4.0, 5.0, 6.0]))
    assert value == pytest.approx(0.9746318461970762, abs=1e-12)


def test_cosine_errors():
    with pytest.raises(DimensionMismatch):
        cosine_similarity(np.ones(3), np.ones(4))
    with pytest.raises(ZeroVector):
        cosine_similarity(np.zeros(3), np.ones(3))


def test_cosine_properties_random():
    rng = np.random.default_rng(5)
    for _ in range(50):
        a = rng.normal(size=16)
        b = rng.normal(size=16)
        c = cosine_similarity(a, b)
        assert -1.0 - 1e-12 <= c <= 1.0 + 1e-12
        assert c == pytest.approx(cosine_similarity(b, a))
        # invariant under positive rescaling, also where the norms would
        # overflow or underflow
        assert c == pytest.approx(cosine_similarity(3.7 * a, 0.2 * b))
        assert c == pytest.approx(cosine_similarity(1e300 * a, 1e-170 * b), abs=1e-12)
    assert cosine_similarity(a, a) == pytest.approx(1.0)
    assert cosine_similarity(a, -a) == pytest.approx(-1.0)


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_norm_is_bit_identical_to_numpy_two_norm():
    # sqrt(v . v) is how np.linalg.norm computes a 1-D float 2-norm, so the
    # two agree bit for bit, on the raw vector and on the rescaled one
    # that _norm returns, from underflowing to overflowing scales.
    rng = np.random.default_rng(21)
    mismatches = 0
    for exponent in np.linspace(-200, 153, 105):
        for _ in range(100):
            vec = rng.normal(size=int(rng.integers(1, 300))) * 10.0**exponent
            mismatches += math.sqrt(vec.dot(vec)) != float(np.linalg.norm(vec))
            out, norm = _norm(vec)
            expected = float(np.linalg.norm(vec))
            if not _MIN_NORM <= expected < math.inf:
                assert np.array_equal(out, vec / np.abs(vec).max())
                expected = float(np.linalg.norm(out))
            else:
                assert out is vec
            mismatches += norm != expected
    assert mismatches == 0


def test_similarity_weight_clamps_negative():
    assert similarity_weight(np.array([1.0, 0.0]), np.array([-1.0, 0.0])) == 0.0
    assert similarity_weight(np.array([1.0, 0.0]), np.array([1.0, 0.0])) == 1.0


def test_hash_embed_bucket_oracle():
    # expected vector built directly from the documented bucket rule
    text = "walk Walk bike"
    expected = np.zeros(256)
    expected[zlib.crc32(b"walk") % 256] += 2.0
    expected[zlib.crc32(b"bike") % 256] += 1.0
    expected /= np.linalg.norm(expected)
    np.testing.assert_allclose(hash_embed(text), expected, atol=1e-15)


def test_hash_embed_unit_norm_and_determinism():
    texts = [
        "age_group: 25-34; income_level: $50k-$100k",
        "purpose: work; start_time: 8",
        "one two three four five six",
    ]
    for text in texts:
        v1 = hash_embed(text)
        v2 = hash_embed(text)
        assert v1.shape == (256,)
        assert np.linalg.norm(v1) == pytest.approx(1.0)
        np.testing.assert_array_equal(v1, v2)


def test_hash_embed_case_and_punctuation_insensitive():
    np.testing.assert_array_equal(
        hash_embed("Work, at 8!"), hash_embed("work at 8")
    )


def test_hash_embed_rejects_bad_input():
    with pytest.raises(EmptyText):
        hash_embed("!!! ---")


def test_hash_embedder_caches_and_reuses():
    provider = HashEmbedder()
    v1 = provider.embed("shared text")
    v2 = provider.embed("shared text")
    assert v1 is v2
    assert provider.provider_id == "hash-256"


def _reference_hash_embed(text):
    """The documented bucket rule, one token at a time, then ``_norm``."""
    vec = np.zeros(256)
    for token in re.findall(r"[0-9a-z]+", text.lower()):
        vec[zlib.crc32(token.encode("utf-8")) % 256] += 1.0
    vec, norm = _norm(vec)
    return vec / norm


# "; " next to tokens, empty pieces, upper case, and the Kelvin sign and
# capital I with dot, which lowercase to ASCII letters (the latter plus a
# combining dot)
_TEXT_PARTS = ["; ", ";", " ", ";;", "Walk", "walk", "K", "\u212a", "\u0130", "\u00e4", "25-34", "$50k", "x;y", "9"]


def test_each_batch_row_is_the_bytes_of_hash_embed():
    rng = random.Random(32)
    collisions = 0  # texts in which two distinct tokens share a bucket
    for _ in range(300):
        # a piece repeated in one text and across texts, and an empty piece
        texts = ["walk; Walk; bike", "; ; x; ; walk", "\u212am; km; k"]
        while len(texts) < rng.randint(3, 9):
            text = "".join(rng.choices(_TEXT_PARTS + [chr(rng.randint(32, 0x2FF))], k=rng.randint(1, 12)))
            if re.search(r"[0-9a-z]", text.lower()):
                texts.append(text)
        rows = HashEmbedder().embed_batch(texts)
        assert rows.shape == (len(texts), 256)
        for text, row in zip(texts, rows):
            expected = _reference_hash_embed(text).tobytes()
            assert row.tobytes() == hash_embed(text).tobytes() == expected
            tokens = set(re.findall(r"[0-9a-z]+", text.lower()))
            collisions += len({zlib.crc32(t.encode("utf-8")) % 256 for t in tokens}) < len(tokens)
    assert collisions > 0


def test_a_batch_rejects_a_text_with_no_tokens():
    with pytest.raises(EmptyText):
        HashEmbedder().embed_batch(["walk", "; !!! ; ---"])
    assert HashEmbedder().embed_batch([]).shape == (0, 256)


def test_profile_to_text_schema_order():
    profile = make_profile()
    text = profile_to_text(profile)
    assert text.startswith("age_group: 25-34; ")
    assert "income_group: $50k-$100k" in text
    assert text.count(";") == 5


def test_profile_to_text_distinct_profiles_distinct_texts():
    a = profile_to_text(make_profile())
    b = profile_to_text(make_profile(age_group="65+"))
    assert a != b


class _FakeResponse:
    def __init__(self, payload):
        self._payload = payload

    def raise_for_status(self):
        return None

    def json(self):
        return self._payload


class _FakeSession:
    def __init__(self, payload):
        self.payload = payload
        self.calls = 0

    def post(self, url, json=None, timeout=None):
        self.calls += 1
        return _FakeResponse(self.payload)


class _FailingSession:
    def post(self, url, json=None, timeout=None):
        import requests

        raise requests.ConnectionError("refused")


def test_remote_embedder_parses_and_caches():
    session = _FakeSession({"embedding": [1.0, 2.0, 2.0]})
    provider = RemoteEmbedder("http://x/embed", "m", session=session)
    v1 = provider.embed("hello")
    v2 = provider.embed("hello")
    np.testing.assert_array_equal(v1, np.array([1.0, 2.0, 2.0]))
    assert session.calls == 1  # second call served from cache
    assert v1 is v2


def test_remote_embedder_bad_payload_raises():
    payloads = [
        {"nope": True},
        [1.0, 2.0],
        {"embedding": [[1.0, 2.0], [3.0, 4.0]]},
        # json.loads, like requests' Response.json, accepts these tokens
        json.loads('{"embedding": [1.0, NaN, 2.0]}'),
        json.loads('{"embedding": [Infinity, 1.0]}'),
        json.loads('{"embedding": [-Infinity, 1.0]}'),
    ]
    for payload in payloads:
        provider = RemoteEmbedder("http://x/embed", "m", session=_FakeSession(payload))
        with pytest.raises(ProviderError):
            provider.embed("hello")


class _HttpErrorResponse(_FakeResponse):
    def raise_for_status(self):
        import requests

        raise requests.HTTPError("500 Server Error")


class _NotJsonResponse(_FakeResponse):
    def json(self):
        import requests

        raise requests.JSONDecodeError("Expecting value", "<html>", 0)


class _ReplySession:
    """Answers every post with one response and counts the posts."""

    def __init__(self, response):
        self.response = response
        self.posts = 0

    def post(self, url, json=None, timeout=None):
        self.posts += 1
        return self.response


_BAD_REPLIES = {
    "http-error": _HttpErrorResponse({"embedding": [1.0, 2.0], "response": "ok"}),
    "not-json": _NotJsonResponse(None),
    "not-an-object": _FakeResponse([1.0, 2.0]),
    "no-field": _FakeResponse({"other": 1}),
    "string-entry": _FakeResponse({"embedding": ["1", 2]}),
    "bool-entry": _FakeResponse({"embedding": [True, 0.5]}),
    # a 401-digit integer literal, which no float can hold
    "huge-integer-entry": _FakeResponse(json.loads('{"embedding": [1' + "0" * 400 + ", 1.0]}")),
}


@pytest.mark.parametrize("reply", list(_BAD_REPLIES))
@pytest.mark.parametrize("provider", ["llm", "embed"])
def test_remote_providers_raise_provider_error_on_a_bad_reply(provider, reply):
    """Both providers send through ``post_json``; the LLM retries each failure."""
    from preference_chain.llm_remodel import GenerationParams, RemoteLlm

    session = _ReplySession(_BAD_REPLIES[reply])
    if provider == "llm":
        llm = RemoteLlm("http://x", "m", max_retries=2, retry_wait=0, session=session)
        with pytest.raises(ProviderError):
            llm.complete("p", GenerationParams())
        assert session.posts == llm.max_retries + 1
    else:
        with pytest.raises(ProviderError):
            RemoteEmbedder("http://x", "m", session=session).embed("hello")
        assert session.posts == 1


def test_remote_embedder_no_fallback_raises():
    provider = RemoteEmbedder("http://x/embed", "m", session=_FailingSession())
    with pytest.raises(ProviderError):
        provider.embed("hello")


def test_remote_embedder_rejects_blank_text_without_a_request():
    session = _FakeSession({"embedding": [1.0, 2.0]})
    provider = RemoteEmbedder("http://x/embed", "m", session=session)
    with pytest.raises(EmptyText):
        provider.embed("   ")
    assert session.calls == 0


def test_remote_embedder_id_names_model_and_url():
    a = RemoteEmbedder("http://a:1/api/embed", "m", session=_FailingSession())
    b = RemoteEmbedder("http://b:1/api/embed", "m", session=_FailingSession())
    assert a.provider_id != b.provider_id
    assert a.provider_id == "remote-embed:m@http://a:1/api/embed"
