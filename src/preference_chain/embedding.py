"""Text embeddings and similarity weights.

Profile and desire texts are embedded via a pluggable provider; clamped
cosine similarity between the vectors supplies the similar_to and want_to
edge weights. Two providers ship with the package:

  * HashEmbedder — deterministic offline token-hash bag of words in 256
    buckets (``HASH_DIMENSION``); the default and the tests' mock.
  * RemoteEmbedder — HTTP provider posting {"model", "prompt"} and reading
    a top-level "embedding" array from the JSON response.

``embed`` caches each text's vector per provider instance, so a remote
provider asks for a text once. ``HashEmbedder.embed_batch`` embeds many
texts at once, as one matrix, without caching them.
Only ``http_session`` imports ``requests``, when a remote provider is
built, so offline runs never load the HTTP stack.
"""

from __future__ import annotations

import math
import re
import threading
import zlib
from array import array
from typing import Protocol

import numpy as np

from .errors import DimensionMismatch, EmbeddingError, EmptyText, ProviderError, ZeroVector
from .schema import PROFILE_FIELDS, AgentProfile

_TOKEN_RE = re.compile(r"[0-9a-z]+")
HASH_DIMENSION = 256  # buckets of every hash vector

# Smallest L2 norm whose square is a normal float: below it the sum of
# squares has lost precision or underflowed to zero.
_MIN_NORM = math.sqrt(np.finfo(float).tiny)


class EmbeddingProvider(Protocol):
    provider_id: str

    def embed(self, text: str) -> np.ndarray: ...


def profile_to_text(profile: AgentProfile) -> str:
    """Canonical "key: value; ..." rendering of a profile, in schema order."""
    return "; ".join(f"{name}: {getattr(profile, name)}" for name in PROFILE_FIELDS)


def _norm(vec) -> tuple[np.ndarray, float]:
    """``vec`` as a float vector and its L2 norm, safe from overflow and underflow.

    A finite nonzero vector whose sum of squares leaves the normal float
    range (entries near 1e300 or 1e-170) is first divided by its largest
    absolute entry, which changes neither its direction nor any cosine.
    Every other vector comes back as it is, with the plain norm. The norm
    is ``sqrt(np.vdot(vec, vec))``, the BLAS dot ``np.linalg.norm`` takes
    for a 1-D float vector, without its dispatch or ``dot``'s overflow warning.
    Every embedding is compared through here, so here alone an array that
    is not a 1-D array of numbers, or holds a NaN or an infinity (its norm
    is then not finite), raises EmbeddingError.
    """
    try:
        vec = np.asarray(vec, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise EmbeddingError(f"embedding is not an array of numbers: {exc}") from None
    if vec.ndim != 1:
        raise EmbeddingError(f"embedding has shape {vec.shape}, not one axis")
    norm = math.sqrt(np.vdot(vec, vec))
    if not _MIN_NORM <= norm < math.inf and np.isfinite(vec).all() and vec.any():
        vec = vec / np.abs(vec).max()
        norm = math.sqrt(np.vdot(vec, vec))
    if not norm < math.inf:  # also NaN
        raise EmbeddingError("embedding holds a NaN or an infinite entry")
    return vec, norm


def _cosine(a: np.ndarray, norm_a: float, b: np.ndarray, norm_b: float) -> float:
    """Cosine of two ``_norm`` results."""
    if a.shape != b.shape:
        raise DimensionMismatch(f"dimensions {a.shape} vs {b.shape}")
    if norm_a == 0.0 or norm_b == 0.0:
        raise ZeroVector("cosine similarity undefined for the zero vector")
    return float(np.dot(a, b) / (norm_a * norm_b))


def cosine_similarity(a: np.ndarray, b: np.ndarray) -> float:
    """Plain cosine in [-1, 1]; rejects mismatched dimensions and zero vectors."""
    return _cosine(*_norm(a), *_norm(b))


def similarity_weight(a: np.ndarray, b: np.ndarray) -> float:
    """Cosine clamped to [0, 1] so it can serve as an edge weight."""
    return max(0.0, cosine_similarity(a, b))


def _buckets(text: str) -> list[int]:
    """The bucket of each token of a lowercased text (see ``hash_embed``)."""
    return [zlib.crc32(token.encode("utf-8")) % HASH_DIMENSION for token in _TOKEN_RE.findall(text)]


def hash_embed(text: str) -> np.ndarray:
    """Deterministic token-hash bag-of-words vector, L2-normalized.

    Tokens are lowercased runs of [0-9a-z]; each token increments the
    bucket crc32(token) % HASH_DIMENSION. crc32 is stable across processes
    and platforms, unlike the builtin hash().
    """
    buckets = _buckets(text.lower())
    if not buckets:
        raise EmptyText("cannot embed text with no alphanumeric tokens")
    vec = np.zeros(HASH_DIMENSION)
    for bucket in buckets:
        vec[bucket] += 1.0
    vec, norm = _norm(vec)
    return vec / norm


def http_session(session):
    """``session``, or a new ``requests.Session`` when none is given."""
    if session is None:
        import requests
        session = requests.Session()
    return session


def post_json(session, url: str, payload: dict, timeout: float, field: str):
    """POST ``payload`` as JSON to ``url`` and return ``field`` of the reply.

    Raises ProviderError when the request fails (a payload that is not
    valid JSON, such as a NaN, included) or the reply is not a JSON object
    holding ``field``. Both remote providers send their requests here.
    """
    try:
        response = session.post(url, json=payload, timeout=timeout)
        response.raise_for_status()
        body = response.json()
    except (OSError, ValueError) as exc:  # RequestException is an OSError; or not JSON
        raise ProviderError(f"request to {url} failed: {exc}") from exc
    if not isinstance(body, dict) or field not in body:
        raise ProviderError(f"reply from {url} is not a JSON object with a {field!r} field")
    return body[field]


class _CachedEmbedder:
    """``embed`` caches each text's vector per instance; subclasses supply
    ``_compute``, which embeds a text without touching the cache."""

    def __init__(self):
        self._cache: dict[str, np.ndarray] = {}
        self._lock = threading.Lock()

    def embed(self, text: str) -> np.ndarray:
        with self._lock:
            cached = self._cache.get(text)
        if cached is not None:
            return cached
        vec = self._compute(text)
        with self._lock:
            self._cache[text] = vec
        return vec


class HashEmbedder(_CachedEmbedder):
    """Offline provider around hash_embed."""

    provider_id = f"hash-{HASH_DIMENSION}"

    def embed_batch(self, texts: list[str]) -> np.ndarray:
        """The ``hash_embed`` vector of each of ``texts``, as the rows of one
        matrix, left out of the cache: it costs microseconds to compute again.

        Each distinct "; "-separated piece of the lowercased texts is hashed
        once; "; " holds no token character, so the pieces' tokens are the
        text's. The counts are small integers, so each row's sum of squares
        is exact and the row is divided by the norm ``hash_embed`` divides it by.
        """
        pieces: dict[str, array] = {}
        buckets, lengths = array("q"), array("q")
        for text in texts:
            start = len(buckets)
            for piece in text.lower().split("; "):
                if piece not in pieces:
                    pieces[piece] = array("q", _buckets(piece))
                buckets += pieces[piece]
            if len(buckets) == start:
                raise EmptyText("cannot embed text with no alphanumeric tokens")
            lengths.append(len(buckets) - start)
        rows = np.zeros((len(texts), HASH_DIMENSION))
        np.add.at(rows, (np.repeat(np.arange(len(texts)), lengths), buckets), 1.0)
        rows /= np.sqrt(np.einsum("ij,ij->i", rows, rows))[:, None]
        return rows

    def _compute(self, text: str) -> np.ndarray:
        return hash_embed(text)


class RemoteEmbedder(_CachedEmbedder):
    """HTTP embedding provider.

    POSTs {"model": ..., "prompt": text} to ``url`` and expects a JSON
    response with a top-level field "embedding" holding a non-empty array
    of finite numbers. A failed request or any other reply raises
    ProviderError. It has no ``embed_batch``, so a person index embeds
    through the cache and each text costs one request per instance.
    """

    def __init__(
        self,
        url: str,
        model: str,
        timeout: float = 30.0,
        session=None,
    ):
        super().__init__()
        # Cached person indexes are keyed by provider id, so the id names the
        # endpoint as well as the model.
        self.provider_id = f"remote-embed:{model}@{url}"
        self.url = url
        self.model = model
        self.timeout = timeout
        self._session = http_session(session)

    def _compute(self, text: str) -> np.ndarray:
        if not text.strip():
            raise EmptyText("cannot embed empty text")
        payload = {"model": self.model, "prompt": text}
        values = post_json(self._session, self.url, payload, self.timeout, "embedding")
        if not (isinstance(values, list) and values and all(type(v) in (int, float) for v in values)):
            raise ProviderError("embedding response lacks a non-empty 'embedding' array of numbers")
        try:
            vec = np.asarray(values, dtype=float)
        except OverflowError as exc:  # an integer too large for a float
            raise ProviderError(f"embedding array is not finite: {exc}") from exc
        if not np.isfinite(vec).all():
            raise ProviderError("embedding array is not finite")
        return vec
