"""Provider-agnostic completion client with retries, caching, and mocks.

Every request is one sample, which :meth:`Gateway.complete` answers from the
cache or the provider.  A stage's ``Gateway(config, out_dir)`` owns its
provider state: the one pool, of ``max_in_flight`` threads, that callers
submit requests to, the counters, behind a lock, and the completion log in
``out_dir/cache``, placed here alone.  Pool threads only read the log; the
thread that settles answers appends them (:meth:`Gateway.append_paid`).

Which hosted models back each pipeline role is configuration, not code:
bind a provider + model id per role.  The mock providers below are test
scaffolding only; their behavior is documented where it matters (the
back-translation mock echoes a canonical normal form of the formal text,
the judge mock answers by normalized-string containment).
"""

from __future__ import annotations

import hashlib
import os
import queue
import re
import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import TYPE_CHECKING, ClassVar, Protocol

from .datastore import KeyedLog, check_shape, parse_json
from .errors import BudgetExceeded, ProviderError, ProviderExhausted, SchemaError

if TYPE_CHECKING:  # config imports this module
    from .config import PipelineConfig

# Section markers used by prompt builders; the mocks parse them back out.
TRANSLATE_MARKER = "INFORMAL STATEMENT:"
BACK_TRANSLATE_MARKER = "FORMAL STATEMENT:"
NLI_ORIGINAL_MARKER = "ORIGINAL STATEMENT:"
NLI_CANDIDATE_MARKER = "BACK-TRANSLATED STATEMENT:"
STRATEGY_MARKER = "REWRITE STRATEGY:"
STRATEGY_TEXT_MARKER = "STATEMENT TO REWRITE:"

# Bound on ``pass_k`` and on validate's ``--k``: the most samples drawn per item.
SAMPLE_CAP = 256


def digest(prompt_text: str) -> str:
    """Stable 256-bit content hash, hex-encoded."""
    return hashlib.sha256(prompt_text.encode("utf-8")).hexdigest()


def normalize_text(text: str) -> str:
    """Canonical normal form used by the mocks: lowercase, collapsed spaces."""
    return " ".join(text.lower().split())


class FinishReason(str, Enum):
    STOP = "stop"
    LENGTH = "length"


@dataclass(frozen=True, slots=True)
class Completion:
    text: str
    finish_reason: FinishReason = FinishReason.STOP
    provider_meta: dict[str, str] = field(default_factory=dict)


@dataclass(frozen=True, slots=True)
class CompletionRequest:
    """One sample of ``prompt_text``: the one numbered ``sample_index``."""

    # Not a field: every request is one sample.  perfbench's tracer still
    # reads it for its ``gateway.samples`` count.
    sample_count: ClassVar[int] = 1

    prompt_text: str
    temperature: float = 1.0
    max_output_tokens: int = 2048
    model_id: str = "mock"
    sample_index: int = 0


class CompletionProvider(Protocol):
    name: str

    def generate(self, request: CompletionRequest, sample_index: int) -> Completion: ...


@dataclass(frozen=True)
class Role:
    """Binding of a pipeline role to a provider and sampling parameters."""

    provider: CompletionProvider
    model_id: str
    temperature: float = 1.0
    max_output_tokens: int = 2048


# A completion-log entry's fields after its key; ``json`` writes a ``str``
# enum as its value.
_COMPLETION = {"text": str, "finish_reason": str, "provider_meta": dict}


def _completion(obj: dict) -> Completion:
    row = {key: obj[key] for key in _COMPLETION}
    row["finish_reason"] = FinishReason(obj["finish_reason"])
    return Completion(**row)


def _cache_key(request: CompletionRequest, provider: CompletionProvider) -> str:
    """One entry per sample, keyed on every request field and the provider."""
    key = "|".join((
        digest(request.prompt_text),
        request.model_id,
        repr(request.temperature),
        str(request.max_output_tokens),
        provider.name,
        str(request.sample_index),
    ))
    return hashlib.sha256(key.encode()).hexdigest()


class Gateway:
    """Answers one-sample requests through a pool of ``max_in_flight`` threads.

    It reads its knobs from ``config``, a checked :class:`PipelineConfig`,
    and keeps its log in ``cache_dir``, always ``out_dir/cache``.  ``stats``
    counts provider calls (retries included), retries, cache hits, and the
    truncated (``length``) completions the provider returned.
    """

    def __init__(self, config: PipelineConfig, out_dir: Path):
        self.config = config
        self.cache_dir = Path(out_dir) / "cache"
        # Starts no thread until the first submit.
        self._executor = ThreadPoolExecutor(max_workers=config.max_in_flight)
        self._lock = threading.Lock()
        # ``cache/completions.jsonl``, one entry per sample paid for, read
        # now, so a malformed cache fails before any call is paid for.
        self._log = KeyedLog(self.cache_dir / "completions.jsonl",
                             _COMPLETION, _completion, "cache entry")
        # (key, completion) of each cacheable answer not yet in the log.
        self._paid: queue.SimpleQueue = queue.SimpleQueue()
        self.stats = {
            "provider_calls": 0,
            "retries": 0,
            "cache_hits": 0,
            "truncated": 0,
        }

    def append_paid(self) -> None:
        """Append each answer paid for since the last call to the completion
        log, one flushed line each.  Only the thread that submits and settles
        calls this, before each settle, so no pool thread writes a file."""
        while not self._paid.empty():
            self._log.add(*self._paid.get())

    def close(self) -> None:
        """Wait for the pool, append what it paid for, then close and sort
        the completion log, so an answer still running at an error is kept,
        and a run that asks for nothing still sorts what a killed run left."""
        self._executor.shutdown(wait=True)
        self.append_paid()
        self._log.close()

    def submit_role(self, role: Role, prompt_text: str, sample_index: int = 0) -> Future:
        """Sample ``sample_index`` of ``prompt_text`` on the pool, without
        waiting: a ``Future[Completion]`` that runs :meth:`complete`, which
        every stage hands to its ``pipeline._OrderedDispatch``; the dispatch
        appends the paid answer to the log before it settles the future, and
        its one window bounds how many are pending.  Pool threads never wait
        on other pool futures, so no submission can deadlock the pool.
        """
        request = CompletionRequest(
            prompt_text=prompt_text,
            temperature=role.temperature,
            max_output_tokens=role.max_output_tokens,
            model_id=role.model_id,
            sample_index=sample_index,
        )
        return self._executor.submit(self.complete, request, role.provider)

    def complete(self, request: CompletionRequest, provider: CompletionProvider) -> Completion:
        """The sample ``request`` names, from the cache or from ``provider``.

        A transient provider error is retried up to ``retry_limit`` times with
        exponential backoff; every call, retries included, counts against the
        request budget.  A paid answer is queued for :meth:`append_paid`, so
        a twin sent before it is appended pays too.
        """
        key = _cache_key(request, provider)
        cached = self._log.get(key)
        if cached is not None:
            with self._lock:
                self.stats["cache_hits"] += 1
            return cached

        for attempt in range(self.config.retry_limit + 1):
            with self._lock:
                budget = self.config.request_budget
                if budget is not None and self.stats["provider_calls"] >= budget:
                    raise BudgetExceeded(
                        f"request budget of {budget} provider calls spent"
                    )
                self.stats["provider_calls"] += 1
                if attempt > 0:
                    self.stats["retries"] += 1
            try:
                completion = provider.generate(request, request.sample_index)
                break
            except ProviderError as exc:
                if not exc.transient or attempt == self.config.retry_limit:
                    if exc.transient:
                        raise ProviderExhausted(
                            f"{self.config.retry_limit} retries spent on {provider.name}"
                        ) from exc
                    raise
                time.sleep(self.config.backoff_base_ms * (2**attempt) / 1000.0)

        # A truncated or blank completion is not cached: a rerun asks again.
        if completion.finish_reason == FinishReason.LENGTH:
            with self._lock:
                self.stats["truncated"] += 1
        elif completion.text.strip():
            self._paid.put((key, completion))
        return completion


# --- providers -----------------------------------------------------------


def _section_after(prompt: str, marker: str) -> str:
    """Text following the last occurrence of ``marker``, up to the next marker line."""
    idx = prompt.rfind(marker)
    if idx == -1:
        return ""
    tail = prompt[idx + len(marker) :]
    cut = len(tail)
    for other in (
        TRANSLATE_MARKER,
        BACK_TRANSLATE_MARKER,
        NLI_ORIGINAL_MARKER,
        NLI_CANDIDATE_MARKER,
        STRATEGY_MARKER,
        STRATEGY_TEXT_MARKER,
    ):
        if other == marker:
            continue
        pos = tail.find(other)
        if pos != -1:
            cut = min(cut, pos)
    return tail[:cut].strip()


class MockChatProvider:
    """Pure function of (prompt digest, sample index, model id)."""

    name = "mock-chat"

    def generate(self, request: CompletionRequest, sample_index: int) -> Completion:
        h = digest(request.prompt_text)
        subject = _section_after(request.prompt_text, TRANSLATE_MARKER)
        if subject:
            text = f"theorem mock_{h[:12]}_{sample_index} : True := trivial  -- {subject[:40]}"
        else:
            text = f"[{request.model_id}#{sample_index}] deterministic text for {h[:16]}"
        return Completion(text=text)


class MockInformalizer:
    """Deterministic stand-in for the statement/proof informalization role."""

    name = "mock-informalizer"

    def generate(self, request: CompletionRequest, sample_index: int) -> Completion:
        h = digest(request.prompt_text)
        return Completion(
            text=f"Informal rendering {h[:16]} (sample {sample_index}) of the given statement."
        )


class MockBackTranslator:
    """Echoes the canonical normal form of the formal statement in the prompt."""

    name = "mock-back-translator"

    def generate(self, request: CompletionRequest, sample_index: int) -> Completion:
        payload = _section_after(request.prompt_text, BACK_TRANSLATE_MARKER)
        if not payload:
            return Completion(text=f"(no formal payload in prompt {digest(request.prompt_text)[:8]})")
        return Completion(text=normalize_text(payload))


class MockNliJudge:
    """ACCEPT iff one normalized statement contains the other."""

    name = "mock-nli-judge"

    def generate(self, request: CompletionRequest, sample_index: int) -> Completion:
        original = normalize_text(_section_after(request.prompt_text, NLI_ORIGINAL_MARKER))
        candidate = normalize_text(_section_after(request.prompt_text, NLI_CANDIDATE_MARKER))
        if original and candidate and (original in candidate or candidate in original):
            return Completion(text="ACCEPT")
        return Completion(text="REJECT")


_IF_THEN_RE = re.compile(r"^\s*if\s+(.+?),\s*then\s+(.+?)\s*\.?\s*$", re.IGNORECASE | re.DOTALL)
_INVERTIBLE_RE = re.compile(
    r"there exists a matrix\s+(\S+)\s*,?\s*such that.*=\s*i", re.IGNORECASE | re.DOTALL
)


class MockAugmenter:
    """Rule-based stand-in for the informal augmentation role.

    Handles the canonical shapes deterministically and falls back to a
    strategy-tagged copy so the non-identity check still passes.
    """

    name = "mock-augmenter"

    def generate(self, request: CompletionRequest, sample_index: int) -> Completion:
        strategy = _section_after(request.prompt_text, STRATEGY_MARKER)
        text = _section_after(request.prompt_text, STRATEGY_TEXT_MARKER)
        key = strategy.split()[0] if strategy else ""

        if key == "logical_equivalence_rewriting":
            m = _IF_THEN_RE.match(text)
            if m:
                return Completion(text=f"{m.group(2)} holds given {m.group(1)}.")
            return Completion(text=f"Equivalently: {text}")
        if key == "abstract_concept_substitution":
            if _INVERTIBLE_RE.search(text):
                subject = text.split()[3].rstrip(",$") if len(text.split()) > 3 else "A"
                return Completion(text=f"${subject}$ is non-degenerate.")
            return Completion(text=f"In abstract terms: {text}")
        if key == "omission_of_implicit_condition":
            reduced = re.sub(r"\s*\([^)]*\)", "", text, count=1)
            if normalize_text(reduced) != normalize_text(text) and reduced.strip():
                return Completion(text=reduced.strip())
            return Completion(text=f"Without the routine hypotheses: {text}")
        if key == "multi_linguistic_translation":
            lang = strategy.split()[1] if len(strategy.split()) > 1 else "zh"
            return Completion(text=f"[{lang}] {text}")
        return Completion(text=f"Variant of: {text}")


# What herald reads of a chat completion body; other keys are not checked.
_CHAT_REPLY = {"choices": [{"message": {"content": (str, type(None))}}]}


class HttpChatProvider:
    """OpenAI-compatible chat endpoint; auth from HERALD_API_KEY_<ROLE>; a
    request that takes more than ``TIMEOUT_S`` seconds is a transient error."""

    TIMEOUT_S = 120.0

    def __init__(self, base_url: str, role_name: str, session=None):
        self.name = f"http:{role_name}"
        self.base_url = base_url.rstrip("/")
        self.role_name = role_name
        if session is None:
            import requests

            session = requests.Session()
        self._session = session

    def _api_key(self) -> str:
        var = f"HERALD_API_KEY_{self.role_name.upper()}"
        key = os.environ.get(var)
        if not key:
            raise ProviderError(self.name, f"environment variable {var} not set")
        return key

    def generate(self, request: CompletionRequest, sample_index: int) -> Completion:
        import requests

        payload = {
            "model": request.model_id,
            "messages": [{"role": "user", "content": request.prompt_text}],
            "temperature": request.temperature,
            "max_tokens": request.max_output_tokens,
            "n": 1,
        }
        try:
            resp = self._session.post(
                f"{self.base_url}/chat/completions",
                json=payload,
                headers={"Authorization": f"Bearer {self._api_key()}"},
                timeout=self.TIMEOUT_S,
            )
        except requests.RequestException as exc:
            raise ProviderError(self.name, str(exc), transient=True) from exc
        if resp.status_code == 429 or resp.status_code >= 500:
            raise ProviderError(self.name, f"HTTP {resp.status_code}", transient=True)
        if resp.status_code >= 400:
            raise ProviderError(self.name, f"HTTP {resp.status_code}: {resp.text[:200]}")
        try:
            body = parse_json(resp.content)
            check_shape(body, _CHAT_REPLY)
            if not body["choices"]:
                raise SchemaError("must hold at least one choice, got []", "$.choices")
        except SchemaError as exc:
            raise ProviderError(self.name, f"malformed response: {exc}") from exc
        choice = body["choices"][0]
        reason = choice.get("finish_reason")
        finish = FinishReason.LENGTH if reason == "length" else FinishReason.STOP
        # A null content (a refusal) is a blank answer, which is never cached.
        return Completion(text=choice["message"]["content"] or "", finish_reason=finish,
                          provider_meta={"http_status": str(resp.status_code)})
