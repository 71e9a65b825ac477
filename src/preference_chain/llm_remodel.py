"""Language-model calibration of the path-scoring prior.

The prior distribution is rendered into a prompt together with the agent's
profile, desire and any natural-language conditions (weather, city, ...);
the provider's reply is parsed back into a distribution that replaces the
prior. Every failure path (network, malformed output, unknown options)
falls back to the prior, so calibration never raises.

The prompt's profile text is ``QueryAgent.profile_text``; replies are
decoded by ``json_blocks``. ``RemoteLlm`` gets its HTTP session from
``embedding.http_session``, so ``requests`` loads only for a remote provider.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Protocol

from .embedding import http_session, post_json
from .errors import ParseFailure, ProviderError, check_config, not_booleans
from .preference import PreferenceDistribution, scaled_fsum
from .retrieval import QueryAgent
from .schema import SUM_TOLERANCE, ChoiceCategorySet

PRIOR_JSON_MARKER = "Prior probabilities (JSON): "

_DECODER = json.JSONDecoder()


@dataclass(frozen=True)
class GenerationParams:
    """The "generation" section of a run config, checked when built."""

    temperature: float = 0.6
    top_p: float = 0.95
    top_k: int = 20
    repeat_penalty: float = 1.0

    def __post_init__(self):
        check_config(lambda: [
            (0 <= self.temperature < math.inf, "generation.temperature must be >= 0 and finite"),
            (0 <= self.top_p <= 1, "generation.top_p must be in [0, 1]"),
            (self.top_k >= 0 and type(self.top_k) is int, "generation.top_k must be an integer >= 0"),
            (0 < self.repeat_penalty < math.inf, "generation.repeat_penalty must be finite and > 0"),
            *not_booleans("generation", self, ("temperature", "top_p", "repeat_penalty")),
        ])


class LlmProvider(Protocol):
    provider_id: str

    def complete(self, prompt: str, params: GenerationParams) -> str: ...


class CalibrationSource(Enum):
    LLM_ACCEPTED = "llm_accepted"
    FALLBACK_PRIOR = "fallback_prior"
    DEGENERATE_UNIFORM = "degenerate_uniform"


@dataclass
class CalibrationResult:
    posterior: PreferenceDistribution
    source: CalibrationSource
    raw_response: str
    prior: PreferenceDistribution  # the prior the posterior was calibrated from


def build_prompt(agent: QueryAgent, prior: PreferenceDistribution) -> str:
    """Deterministic calibration prompt.

    Contains the canonical profile text, the desire, every option with its
    prior rendered to 3 decimals, ``agent.context``, and a machine-readable
    full-precision copy of the prior (so an echoing mock is an exact
    no-op). The reply must be a single JSON object over the option keys.
    """
    options = prior.choice_set.options
    lines = [
        "You are simulating the travel choices of one person.",
        f"Profile: {agent.profile_text}",
        f"Desire: {agent.desire_text()}",
        f"Conditions: {agent.context.strip() or 'none'}",
        f"Based on similar people, the prior probabilities for {prior.choice_set.name} are:",
    ]
    for option in options:
        lines.append(f"  - {option}: {prior.probabilities[option]:.3f}")
    lines.append(PRIOR_JSON_MARKER + json.dumps(prior.probabilities, sort_keys=False))
    lines.append(
        "Adjust these probabilities for the person and conditions above. "
        "Reply with a single JSON object mapping every option key to its probability."
    )
    return "\n".join(lines)


def json_blocks(text: str, brackets: str = "{}"):
    """Yield the decoded balanced ``brackets`` blocks of ``text``, in order.

    ``brackets`` is the (open, close) pair: "{}" for objects, "[]" for
    arrays. Brackets inside JSON strings do not count, and blocks that are
    not valid JSON, or nest too deep to decode, are skipped.

    At each opening bracket outside a block and outside a string, the C
    decoder tries to read a whole JSON value there. A valid value ends at
    its balancing bracket, so it is the balanced block, and scanning
    resumes after it. When the decoder fails, the block is not valid JSON,
    and the scanner below only walks past it one character at a time.
    """
    opening, closing = brackets
    depth = 0
    in_string = False
    escaped = False
    i, size = 0, len(text)
    while i < size:
        ch = text[i]
        if in_string:
            if escaped:
                escaped = False
            elif ch == "\\":
                escaped = True
            elif ch == '"':
                in_string = False
        elif ch == '"':
            in_string = True
        elif ch == opening:
            if depth == 0:
                try:
                    block, end = _DECODER.raw_decode(text, i)
                except (ValueError, RecursionError):  # also an integer too long to convert
                    pass
                else:
                    yield block
                    i = end
                    continue
            depth += 1
        elif ch == closing and depth > 0:
            depth -= 1
        i += 1


def parse_response(raw: str, choice_set: ChoiceCategorySet) -> dict[str, float]:
    """Extract the first JSON object and normalize it into a distribution.

    Keys must be a subset of the choice set; missing options are filled
    with 0 and negative values clamped to 0. Non-finite values are
    rejected. The result is renormalized unless its ``math.fsum`` is 1
    within ``SUM_TOLERANCE``, the test ``PreferenceDistribution`` applies
    (keeping an echoed prior bit-exact); values whose sum overflows are
    scaled down by their maximum first. Raises ParseFailure when nothing
    usable is found: unknown keys first, then the first bad value in option
    order.
    """
    members = choice_set.members
    for obj in json_blocks(raw):
        values = dict.fromkeys(choice_set.options, 0.0)
        unknown, bad = [], {}
        for option, v in obj.items():
            if option not in members:
                unknown.append(option)
                continue
            if type(v) is not float:  # the decoder makes no float subclass
                if not isinstance(v, int) or isinstance(v, bool):
                    bad[option] = f"non-numeric probability for {option!r}: {v!r}"
                    continue
                try:
                    v = float(v)
                except OverflowError:  # an integer beyond the float range
                    v = math.inf
            if not math.isfinite(v):
                bad[option] = f"non-finite probability for {option!r}: {v!r}"
            elif v > 0.0:
                values[option] = v
        if unknown:
            raise ParseFailure(f"unknown option keys {unknown}")
        if bad:
            raise ParseFailure(next(bad[o] for o in choice_set.options if o in bad))
        values, total = scaled_fsum(values)
        if total <= 0.0:
            raise ParseFailure("all probabilities zero after clamping")
        if abs(total - 1.0) > SUM_TOLERANCE:
            values = {o: v / total for o, v in values.items()}
        return values
    raise ParseFailure("no JSON object found in response")


def calibrate(
    agent: QueryAgent,
    prior: PreferenceDistribution,
    provider: LlmProvider,
    params: GenerationParams = GenerationParams(),
    blend: float = 1.0,
) -> CalibrationResult:
    """Run one calibration round; absorbs every failure into the prior.

    ``blend`` mixes posterior = blend * llm + (1 - blend) * prior; the
    default 1.0 replaces the prior wholesale. A degenerate prior is still
    sent to the provider (rendered uniform by construction).
    """
    prompt = build_prompt(agent, prior)
    raw = ""
    try:
        raw = provider.complete(prompt, params)
        parsed = parse_response(raw, prior.choice_set)
    except (ProviderError, ParseFailure):
        source = (
            CalibrationSource.DEGENERATE_UNIFORM
            if prior.degenerate
            else CalibrationSource.FALLBACK_PRIOR
        )
        return CalibrationResult(prior, source, raw, prior)

    if blend == 1.0:
        probabilities = parsed
    else:
        mixed = {
            o: blend * parsed[o] + (1.0 - blend) * prior.probabilities[o]
            for o in prior.choice_set.options
        }
        total = sum(mixed.values())
        probabilities = {o: v / total for o, v in mixed.items()}
    posterior = PreferenceDistribution(prior.choice_set, probabilities)
    return CalibrationResult(posterior, CalibrationSource.LLM_ACCEPTED, raw, prior)


# ----------------------------------------------------------------------
# Providers
# ----------------------------------------------------------------------


class IdentityMockLlm:
    """Echoes back the full-precision prior embedded in the prompt.

    It reads the last line that starts with the prior marker: that is the
    prompt's own, since ``agent.context`` comes before it. On prompts
    without the marker (POI selection, schedules) it returns an empty
    string so callers exercise their fallback paths. Deterministic by
    construction.
    """

    provider_id = "mock-identity"

    def complete(self, prompt: str, params: GenerationParams) -> str:
        for line in reversed(prompt.splitlines()):
            if line.startswith(PRIOR_JSON_MARKER):
                return line[len(PRIOR_JSON_MARKER):]
        return ""


class ScriptedMockLlm:
    """Returns canned responses in order, repeating the last one."""

    def __init__(self, responses: list[str], provider_id: str = "mock-scripted"):
        if not responses:
            raise ValueError("need at least one response")
        self.responses = responses
        self.provider_id = provider_id
        self.calls: list[str] = []

    def complete(self, prompt: str, params: GenerationParams) -> str:
        self.calls.append(prompt)
        idx = min(len(self.calls) - 1, len(self.responses) - 1)
        return self.responses[idx]


class RemoteLlm:
    """HTTP completion provider with bounded retries.

    POSTs {"model", "prompt", "options": {...}, "stream": false} and reads
    a top-level text field "response". Raises ProviderError after
    ``max_retries`` additional attempts fail.
    """

    def __init__(
        self,
        url: str,
        model: str,
        timeout: float = 120.0,
        max_retries: int = 2,
        retry_wait: float = 0.5,
        session=None,
    ):
        self.url = url
        self.model = model
        self.timeout = timeout
        self.max_retries = max_retries
        self.retry_wait = retry_wait
        self.provider_id = f"remote-llm:{model}"
        self._session = http_session(session)

    def complete(self, prompt: str, params: GenerationParams) -> str:
        payload = {
            "model": self.model,
            "prompt": prompt,
            "options": {
                "temperature": params.temperature,
                "top_p": params.top_p,
                "top_k": params.top_k,
                "repeat_penalty": params.repeat_penalty,
            },
            "stream": False,
        }
        last_error: Optional[Exception] = None
        for attempt in range(self.max_retries + 1):
            try:
                text = post_json(self._session, self.url, payload, self.timeout, "response")
                if not isinstance(text, str):
                    raise ProviderError("completion response lacks a text field 'response'")
                return text
            except ProviderError as exc:
                last_error = exc
            if attempt < self.max_retries and self.retry_wait > 0:
                time.sleep(self.retry_wait)
        raise ProviderError(f"completion failed after {self.max_retries + 1} attempts: {last_error}")
