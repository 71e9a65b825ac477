import json
import math
import random
import warnings

import numpy as np
import pytest

from preference_chain.behavior_graph import build_from_records
from preference_chain.embedding import hash_embed
from preference_chain.errors import EmbeddingError, ParseFailure, ProviderError
from preference_chain.llm_remodel import (
    PRIOR_JSON_MARKER,
    CalibrationSource,
    GenerationParams,
    IdentityMockLlm,
    RemoteLlm,
    ScriptedMockLlm,
    build_prompt,
    calibrate,
    json_blocks,
    parse_response,
)
from preference_chain.pipeline import PreferenceChain
from preference_chain.preference import PreferenceDistribution, uniform_distribution
from preference_chain.retrieval import QueryAgent
from preference_chain.schema import ChoiceCategorySet

from tests.conftest import make_profile, make_record

_MODES = ChoiceCategorySet("mode", ("walk", "bike", "drive"))


def _agent(context=""):
    return QueryAgent(make_profile(), "work", 8, context)


def _prior(walk=0.2, bike=0.3, drive=0.5):
    return PreferenceDistribution(_MODES, {"walk": walk, "bike": bike, "drive": drive})


# ----------------------------------------------------------------------
# prompt construction
# ----------------------------------------------------------------------


def test_prompt_is_deterministic_and_complete():
    prior = _prior()
    p1 = build_prompt(_agent("light rain"), prior)
    p2 = build_prompt(_agent("light rain"), prior)
    assert p1 == p2
    assert "age_group: 25-34" in p1
    assert "purpose: work; start_time: 8" in p1
    assert "Conditions: light rain" in p1
    for option in _MODES:
        assert f"- {option}: " in p1
    assert PRIOR_JSON_MARKER in p1


def test_prompt_embeds_full_precision_prior():
    prior = _prior(1 / 3, 1 / 3, 1 / 3)
    prompt = build_prompt(_agent(), prior)
    marker_line = next(
        line for line in prompt.splitlines() if line.startswith(PRIOR_JSON_MARKER)
    )
    embedded = json.loads(marker_line[len(PRIOR_JSON_MARKER):])
    assert embedded == prior.probabilities  # bit-exact floats survive the JSON trip


def test_prompt_empty_context_renders_none():
    prompt = build_prompt(_agent("   "), _prior())
    assert "Conditions: none" in prompt


# ----------------------------------------------------------------------
# response parsing
# ----------------------------------------------------------------------


def test_parse_plain_object():
    got = parse_response('{"walk": 0.5, "bike": 0.25, "drive": 0.25}', _MODES)
    assert got == {"walk": 0.5, "bike": 0.25, "drive": 0.25}


def test_parse_prose_wrapped_object():
    raw = 'Sure! Considering the rain:\n{"walk": 0.1, "bike": 0.1, "drive": 0.8}\nDone.'
    got = parse_response(raw, _MODES)
    assert got["drive"] == pytest.approx(0.8)


def test_parse_renormalizes_unnormalized_values():
    got = parse_response('{"walk": 2, "bike": 1, "drive": 1}', _MODES)
    assert got == pytest.approx({"walk": 0.5, "bike": 0.25, "drive": 0.25})


def test_parse_fills_missing_options_with_zero():
    got = parse_response('{"walk": 0.5, "drive": 0.5}', _MODES)
    assert got["bike"] == 0.0
    assert math.fsum(got.values()) == pytest.approx(1.0)


def test_parse_clamps_negatives():
    got = parse_response('{"walk": -0.5, "bike": 1.0, "drive": 1.0}', _MODES)
    assert got == pytest.approx({"walk": 0.0, "bike": 0.5, "drive": 0.5})


def test_parse_keeps_exactly_normalized_sum_untouched():
    # thirds do not re-round when the sum is already 1 within tolerance
    third = 1 / 3
    raw = json.dumps({"walk": third, "bike": third, "drive": 1 - 2 * third})
    got = parse_response(raw, _MODES)
    assert got["walk"] == third


def test_parse_skips_unparseable_then_succeeds():
    raw = '{"walk": broken} and then {"walk": 1.0, "bike": 0, "drive": 0}'
    got = parse_response(raw, _MODES)
    assert got["walk"] == 1.0


def test_parse_failures():
    with pytest.raises(ParseFailure):
        parse_response("no json here", _MODES)
    with pytest.raises(ParseFailure):
        parse_response('{"running": 1.0}', _MODES)  # unknown key
    with pytest.raises(ParseFailure):
        parse_response('{"walk": 0, "bike": 0, "drive": 0}', _MODES)
    with pytest.raises(ParseFailure):
        parse_response('{"walk": "high", "bike": 0, "drive": 0}', _MODES)
    with pytest.raises(ParseFailure):
        parse_response('{"walk": true, "bike": 0, "drive": 0}', _MODES)


def test_parse_handles_braces_inside_strings():
    raw = '{"walk": 0.5, "bike": 0.5, "drive": 0.0}'
    got = parse_response('prefix "{not json}" ' + raw, _MODES)
    assert got["walk"] == 0.5


def _scanned_blocks(text: str, brackets: str):
    """The character scanner ``json_blocks`` had before its decoder fast path.

    Kept as the oracle of ``test_json_blocks_equal_the_character_scanner``.
    """
    opening, closing = brackets
    depth = 0
    start = 0
    in_string = False
    escaped = False
    for i, ch in enumerate(text):
        if in_string:
            if escaped:
                escaped = False
            elif ch == "\\":
                escaped = True
            elif ch == '"':
                in_string = False
            continue
        if ch == '"':
            in_string = True
        elif ch == opening:
            if depth == 0:
                start = i
            depth += 1
        elif ch == closing and depth > 0:
            depth -= 1
            if depth == 0:
                try:
                    yield json.loads(text[start : i + 1])
                except ValueError:
                    pass


def _random_json_value(rng: random.Random, depth: int = 0):
    """A random JSON-able value whose strings hold brackets, quotes and escapes."""
    scalars = [
        lambda: rng.choice(["x", "{", "}", "[", "]", '"', "\\", '\\"', "{]", "a\nb", "é"])
        * rng.randint(0, 3),
        lambda: rng.uniform(-1e6, 1e6),
        lambda: rng.randint(-(10**30), 10**30),
        lambda: rng.choice([math.nan, math.inf, -math.inf, 0.0, -0.0, True, False, None]),
    ]
    if depth >= 3 or rng.random() < 0.4:
        return rng.choice(scalars)()
    if rng.random() < 0.5:
        return [_random_json_value(rng, depth + 1) for _ in range(rng.randint(0, 3))]
    return {
        str(_random_json_value(rng, 3)): _random_json_value(rng, depth + 1)
        for _ in range(rng.randint(0, 3))
    }


def _random_reply_text(rng: random.Random) -> str:
    """Prose mixed with valid and invalid blocks, stray brackets and quotes."""
    pieces = [
        lambda: rng.choice(["Sure: ", "here you go ", "\n", " thinking... ", "done."]),
        lambda: json.dumps(_random_json_value(rng), indent=rng.choice([None, 1])),
        lambda: rng.choice(['{"walk": broken}', "{'a': 1}", '{"a" 1}', "[1,]", "{,}", "[}", "{]"]),
        lambda: rng.choice(["{", "}", "[", "]", '"', "\\", '\\"', '"{"', '"]"']),
        lambda: rng.choice(["NaN", "-Infinity", '{"walk": NaN}', "[NaN, Infinity]"]),
        lambda: rng.choice(['{"walk": ', "[", ""])
        + "1" + "0" * rng.choice([20, 400, 5000])
        + rng.choice(["}", "]", ""]),
        lambda: '"line\nbreak {"a": 1}"',
    ]
    return "".join(rng.choice(pieces)() for _ in range(rng.randint(0, 8)))


def test_json_blocks_equal_the_character_scanner():
    rng = random.Random(8080)
    yielded = {"{}": 0, "[]": 0}
    for _ in range(2500):
        text = _random_reply_text(rng)
        for brackets in yielded:
            got = list(json_blocks(text, brackets))
            # repr tells NaN, -0.0, 1 and 1.0 apart and equates NaN with NaN
            assert repr(got) == repr(list(_scanned_blocks(text, brackets))), (text, brackets)
            yielded[brackets] += len(got)
    assert min(yielded.values()) > 500, yielded


# ----------------------------------------------------------------------
# calibrate
# ----------------------------------------------------------------------


def test_identity_mock_is_exact_noop():
    prior = _prior(0.123456789012345, 0.2, 0.676543210987655)
    result = calibrate(_agent("sunny"), prior, IdentityMockLlm())
    assert result.source == CalibrationSource.LLM_ACCEPTED
    assert result.posterior.probabilities == prior.probabilities


def test_scripted_mock_overrides_prior():
    provider = ScriptedMockLlm(['{"walk": 0.8, "bike": 0.1, "drive": 0.1}'])
    result = calibrate(_agent(), _prior(), provider)
    assert result.source == CalibrationSource.LLM_ACCEPTED
    assert result.posterior.probabilities["walk"] == pytest.approx(0.8)
    assert len(provider.calls) == 1
    assert PRIOR_JSON_MARKER in provider.calls[0]


def test_garbage_response_falls_back_to_prior():
    prior = _prior()
    result = calibrate(_agent(), prior, ScriptedMockLlm(["word salad"]))
    assert result.source == CalibrationSource.FALLBACK_PRIOR
    assert result.posterior is prior
    assert result.raw_response == "word salad"


def test_provider_error_falls_back_to_prior():
    class Exploding:
        provider_id = "boom"

        def complete(self, prompt, params):
            raise ProviderError("down")

    prior = _prior()
    result = calibrate(_agent(), prior, Exploding())
    assert result.source == CalibrationSource.FALLBACK_PRIOR
    assert result.posterior is prior


def test_degenerate_prior_failure_reports_uniform_source():
    prior = uniform_distribution(_MODES, degenerate=True)
    result = calibrate(_agent(), prior, ScriptedMockLlm(["nope"]))
    assert result.source == CalibrationSource.DEGENERATE_UNIFORM
    assert result.posterior is prior


@pytest.mark.parametrize(
    "reply,source",
    [
        ('{"walk": Infinity}', CalibrationSource.FALLBACK_PRIOR),
        ('{"walk": NaN, "bike": 1}', CalibrationSource.FALLBACK_PRIOR),
        ('{"walk": 1e308, "bike": 1e308}', CalibrationSource.LLM_ACCEPTED),
        ('{"walk": 1' + "0" * 400 + "}", CalibrationSource.FALLBACK_PRIOR),
        ('{"walk": 1' + "0" * 5000 + "}", CalibrationSource.FALLBACK_PRIOR),
        ('{"a":' * 1000 + "1" + "}" * 1000, CalibrationSource.FALLBACK_PRIOR),
        ('{"walk": ' + "[" * 1000 + "1" + "]" * 1000 + "}", CalibrationSource.FALLBACK_PRIOR),
        ('{"a":' * 1000 + "1" + "}" * 1000 + ' {"walk": 1}', CalibrationSource.LLM_ACCEPTED),
        # a plain sum is within the tolerance of 1 and the exact sum is not
        (
            '{"walk": 1.0000000009999999, "bike": 8.326672684688674e-17,'
            ' "drive": 8.326672684688674e-17}',
            CalibrationSource.LLM_ACCEPTED,
        ),
    ],
    ids=[
        "infinity",
        "nan",
        "huge-sum",
        "int-beyond-float",
        "int-too-long",
        "nested-object",
        "nested-array",
        "nested-then-valid",
        "sum-at-tolerance",
    ],
)
def test_hostile_reply_never_breaks_calibration(reply, source):
    prior = _prior()
    result = calibrate(_agent(), prior, ScriptedMockLlm([reply]))
    values = list(result.posterior.probabilities.values())
    assert all(math.isfinite(v) for v in values)
    assert math.fsum(values) == pytest.approx(1.0, abs=1e-9)
    assert result.source == source
    assert result.prior is prior


class _GarbledEmbedder:
    """Hash vectors, garbled for every text, or for person or desire texts only."""

    provider_id = "garbled"

    def __init__(self, garble, texts):
        self.garble, self.texts = garble, texts

    def embed(self, text):
        vec = hash_embed(text)
        kind = "desire" if text.startswith("purpose:") else "person"
        return self.garble(vec) if self.texts in ("every", kind) else vec


def _with_last_entry(value):
    return lambda vec: np.concatenate([vec[:-1], [value]])


@pytest.mark.parametrize(
    "garble,texts",
    [
        (_with_last_entry(math.nan), "every"),
        (_with_last_entry(math.inf), "every"),
        (lambda vec: np.stack([vec, vec]), "person"),
        (lambda vec: np.stack([vec, vec]), "desire"),
        (lambda vec: ["x"] * len(vec), "every"),
    ],
    ids=["nan", "infinity", "2d-person", "2d-desire", "strings"],
)
def test_garbled_embedding_raises_embedding_error(garble, texts):
    """As ``PreferenceChain.predict`` documents: no bare numpy error, no warning."""
    graph = build_from_records([make_record(), make_record(trip_purpose="shop", start_time=17)])
    chain = PreferenceChain(graph, embed_provider=_GarbledEmbedder(garble, texts))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(EmbeddingError):
            chain.predict_all(_agent())


def _random_hostile_reply(rng: random.Random) -> str:
    """A reply of hostile values, duplicate and unknown keys, and stray text."""
    values = [
        "NaN", "Infinity", "-Infinity", "1e308", "-1e308", "5e-324", "0", "-0.0", "-3",
        "1" + "0" * rng.randint(401, 450), '{"walk": 1}', "[0.5]", '"0.5"', "true", "null",
        repr(rng.random()), repr(rng.uniform(-1e308, 1e308)), str(rng.randint(-9, 9)),
    ]
    keys = ["walk", "bike", "drive"] * 3 + ["run"]
    entries = [f'"{rng.choice(keys)}": {rng.choice(values)}' for _ in range(rng.randint(0, 5))]
    prefix = rng.choice(["", "Sure: ", "{", "[", '"'])
    suffix = rng.choice(["", ' {"walk": 1}', '{"bike": NaN}', "{", "]", " done"])
    return prefix + "{" + ", ".join(entries) + "}" + suffix


def test_random_hostile_replies_never_break_calibration():
    rng = random.Random(20250)
    priors = [_prior(), _prior(0.0, 0.0, 1.0), uniform_distribution(_MODES, degenerate=True)]
    sources = set()
    for _ in range(1500):
        reply = _random_hostile_reply(rng)
        for prior in priors:
            for blend in (1.0, rng.random()):
                result = calibrate(_agent(), prior, ScriptedMockLlm([reply]), blend=blend)
                values = list(result.posterior.probabilities.values())
                assert all(math.isfinite(v) and v >= 0.0 for v in values), reply
                assert abs(math.fsum(values) - 1.0) <= 1e-9, reply
                sources.add(result.source)
    assert sources == set(CalibrationSource)


def _two_pass_parse(raw, choice_set):
    """``parse_response`` as two passes over the first object, kept as its oracle."""
    for obj in json_blocks(raw):
        unknown = [k for k in obj if k not in choice_set.options]
        if unknown:
            raise ParseFailure(f"unknown option keys {unknown}")
        values = {}
        for option in choice_set.options:
            v = obj.get(option, 0.0)
            if not isinstance(v, (int, float)) or isinstance(v, bool):
                raise ParseFailure(f"non-numeric probability for {option!r}: {v!r}")
            try:
                v = float(v)
            except OverflowError:
                v = math.inf
            if not math.isfinite(v):
                raise ParseFailure(f"non-finite probability for {option!r}: {v!r}")
            values[option] = max(0.0, v)
        if math.isinf(sum(values.values())):
            peak = max(values.values())
            values = {o: v / peak for o, v in values.items()}
        total = math.fsum(values.values())
        if total <= 0.0:
            raise ParseFailure("all probabilities zero after clamping")
        if abs(total - 1.0) > 1e-9:
            values = {o: v / total for o, v in values.items()}
        return values
    raise ParseFailure("no JSON object found in response")


def _parsed_or_error(parse, raw):
    try:
        return repr(parse(raw, _MODES))
    except ParseFailure as exc:
        return f"ParseFailure: {exc}"


def test_one_pass_parse_equals_the_two_pass_oracle():
    rng = random.Random(41)
    kinds = (
        "unknown option keys",
        "non-numeric probability",
        "non-finite probability",
        "all probabilities zero",
        "no JSON object",
    )
    outcomes = set()
    for _ in range(3000):
        reply = _random_hostile_reply(rng)
        got = _parsed_or_error(parse_response, reply)
        assert got == _parsed_or_error(_two_pass_parse, reply), reply
        outcomes.add(next((kind for kind in kinds if kind in got), "parsed"))
    assert outcomes == {*kinds, "parsed"}  # every way to fail, and success, occurred


def test_blend_mixes_prior_and_response():
    prior = _prior(0.2, 0.3, 0.5)
    provider = ScriptedMockLlm(['{"walk": 1.0, "bike": 0.0, "drive": 0.0}'])
    result = calibrate(_agent(), prior, provider, blend=0.5)
    assert result.posterior.probabilities["walk"] == pytest.approx(0.6)
    assert result.posterior.probabilities["bike"] == pytest.approx(0.15)
    assert result.posterior.probabilities["drive"] == pytest.approx(0.25)


def test_scripted_mock_repeats_last_response():
    provider = ScriptedMockLlm(["a", "b"])
    params = GenerationParams()
    assert provider.complete("x", params) == "a"
    assert provider.complete("x", params) == "b"
    assert provider.complete("x", params) == "b"


# ----------------------------------------------------------------------
# RemoteLlm
# ----------------------------------------------------------------------


class _FakeResponse:
    def __init__(self, payload):
        self._payload = payload

    def raise_for_status(self):
        return None

    def json(self):
        return self._payload


class _FlakySession:
    """Fails ``failures`` times, then answers."""

    def __init__(self, failures, payload):
        self.failures = failures
        self.payload = payload
        self.posts = []

    def post(self, url, json=None, timeout=None):
        import requests

        self.posts.append(json)
        if len(self.posts) <= self.failures:
            raise requests.ConnectionError("refused")
        return _FakeResponse(self.payload)


def test_remote_llm_payload_carries_generation_params():
    session = _FlakySession(0, {"response": "ok"})
    llm = RemoteLlm("http://x/generate", model="m", session=session, retry_wait=0)
    text = llm.complete("hello", GenerationParams(temperature=0.6, top_p=0.95, top_k=20))
    assert text == "ok"
    payload = session.posts[0]
    assert payload["model"] == "m"
    assert payload["stream"] is False
    assert payload["options"] == {
        "temperature": 0.6,
        "top_p": 0.95,
        "top_k": 20,
        "repeat_penalty": 1.0,
    }


def test_remote_llm_retries_then_succeeds():
    session = _FlakySession(2, {"response": "ok"})
    llm = RemoteLlm("http://x", model="m", session=session, max_retries=2, retry_wait=0)
    assert llm.complete("p", GenerationParams()) == "ok"
    assert len(session.posts) == 3


def test_remote_llm_exhausts_retries():
    session = _FlakySession(10, {"response": "ok"})
    llm = RemoteLlm("http://x", model="m", session=session, max_retries=2, retry_wait=0)
    with pytest.raises(ProviderError):
        llm.complete("p", GenerationParams())
    assert len(session.posts) == 3


@pytest.mark.parametrize("body", [[1, 2], "x", None, 3])
def test_remote_llm_non_object_body_falls_back_to_prior(body):
    from preference_chain.behavior_graph import GraphBuildConfig, build_from_records
    from preference_chain.ingest import default_synthetic_spec, generate_synthetic
    from preference_chain.pipeline import PreferenceChain

    llm = RemoteLlm(
        "http://x", model="m", session=_FlakySession(0, body), max_retries=0, retry_wait=0
    )
    with pytest.raises(ProviderError):
        llm.complete("p", GenerationParams())
    records = generate_synthetic(default_synthetic_spec(), size=30, seed=3)
    graph = build_from_records(
        records, GraphBuildConfig(intention_fields=("primary_mode", "duration_minutes"))
    )
    results = PreferenceChain(graph, llm_provider=llm).predict_all(_agent())
    assert set(results) == {"primary_mode", "duration_minutes"}
    for result in results.values():
        assert result.source == CalibrationSource.FALLBACK_PRIOR
        assert result.posterior.probabilities == result.prior.probabilities


def test_remote_llm_rejects_missing_text_field():
    session = _FlakySession(0, {"bad": 1})
    llm = RemoteLlm("http://x", model="m", session=session, max_retries=0, retry_wait=0)
    with pytest.raises(ProviderError):
        llm.complete("p", GenerationParams())

