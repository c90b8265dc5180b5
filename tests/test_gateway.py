"""Gateway behavior: determinism, retries, caching, concurrency bounds."""

from __future__ import annotations

import json
import random
import sys
import threading
from contextlib import closing

import pytest
from conftest import cache_keys

from herald.config import PipelineConfig
from herald.errors import (
    BudgetExceeded,
    ProviderError,
    ProviderExhausted,
    SchemaError,
)
from herald.gateway import (
    BACK_TRANSLATE_MARKER,
    NLI_CANDIDATE_MARKER,
    NLI_ORIGINAL_MARKER,
    Completion,
    CompletionRequest,
    FinishReason,
    Gateway,
    MockAugmenter,
    MockBackTranslator,
    MockChatProvider,
    MockNliJudge,
    Role,
    digest,
    normalize_text,
)

SHA256_EMPTY = "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"


def chat_role(provider=None) -> Role:
    return Role(provider=provider or MockChatProvider(), model_id="mock")


def samples(gw: Gateway, role: Role, prompt_text: str, k: int) -> list[Completion]:
    """Samples ``0..k-1`` of ``prompt_text``, submitted together, in index order."""
    futures = [gw.submit_role(role, prompt_text, sample_index=i) for i in range(k)]
    return [f.result(timeout=30) for f in futures]


class FlakyProvider:
    """Fails with transient errors a fixed number of times, then succeeds."""

    name = "flaky"

    def __init__(self, failures: int):
        self.failures = failures
        self.calls = 0

    def generate(self, request, sample_index):
        self.calls += 1
        if self.calls <= self.failures:
            raise ProviderError(self.name, "429 too many requests", transient=True)
        return Completion(text=f"ok after {self.calls} calls")


class InstrumentedProvider:
    """Tracks the maximum number of concurrently executing generate calls."""

    name = "instrumented"

    def __init__(self):
        self._lock = threading.Lock()
        self.live = 0
        self.max_live = 0

    def generate(self, request, sample_index):
        with self._lock:
            self.live += 1
            self.max_live = max(self.max_live, self.live)
        threading.Event().wait(0.002)
        with self._lock:
            self.live -= 1
        return Completion(text=f"sample {sample_index}")


class TestDigest:
    def test_empty_string_constant(self):
        assert digest("") == SHA256_EMPTY
        assert len(digest("")) == 64

    def test_equal_inputs_equal_digests(self):
        assert digest("παράδειγμα") == digest("παράδειγμα")

    def test_single_byte_flips_change_digest(self):
        # oracle: 1000 random pairs differing in exactly one character
        rng = random.Random(0)
        for _ in range(1000):
            n = rng.randint(1, 64)
            base = "".join(chr(rng.randint(33, 126)) for _ in range(n))
            pos = rng.randrange(n)
            replacement = chr(33 + (ord(base[pos]) - 32) % 94)
            mutated = base[:pos] + replacement + base[pos + 1 :]
            assert mutated != base
            assert digest(mutated) != digest(base)


class TestComplete:
    def test_mock_determinism(self, tmp_path):
        gw = Gateway(PipelineConfig(max_in_flight=4), tmp_path)
        first = [c.text for c in samples(gw, chat_role(), "translate this", 3)]
        second = [c.text for c in samples(gw, chat_role(), "translate this", 3)]
        gw.close()
        assert first == second
        assert len(first) == 3
        assert len(set(first)) == 3  # samples differ by index

    def test_sample_index_reaches_the_provider(self, tmp_path):
        gw = Gateway(PipelineConfig(), tmp_path)
        for i in (0, 5):
            completion = gw.complete(CompletionRequest(prompt_text="x", sample_index=i),
                                     MockChatProvider())
            assert completion == MockChatProvider().generate(CompletionRequest(prompt_text="x"), i)

    def test_retry_then_success(self, tmp_path):
        gw = Gateway(PipelineConfig(retry_limit=3, backoff_base_ms=1), tmp_path)
        provider = FlakyProvider(failures=2)
        completion = gw.complete(CompletionRequest(prompt_text="x"), provider)
        assert "ok" in completion.text
        assert gw.stats["retries"] == 2

    def test_retries_exhausted(self, tmp_path):
        gw = Gateway(PipelineConfig(retry_limit=2, backoff_base_ms=1), tmp_path)
        with pytest.raises(ProviderExhausted):
            gw.complete(CompletionRequest(prompt_text="x"), FlakyProvider(failures=10))
        assert gw.stats["provider_calls"] == 3  # initial try + 2 retries

    def test_fatal_error_not_retried(self, tmp_path):
        class Fatal:
            name = "fatal"
            calls = 0

            def generate(self, request, sample_index):
                Fatal.calls += 1
                raise ProviderError(self.name, "400 bad request", transient=False)

        gw = Gateway(PipelineConfig(retry_limit=5, backoff_base_ms=1), tmp_path)
        with pytest.raises(ProviderError):
            gw.complete(CompletionRequest(prompt_text="x"), Fatal())
        assert Fatal.calls == 1

    def test_128_samples_bounded_concurrency(self, tmp_path):
        provider = InstrumentedProvider()
        gw = Gateway(PipelineConfig(max_in_flight=8), tmp_path)
        completions = samples(gw, chat_role(provider), "q", 128)
        gw.close()
        assert len(completions) == 128
        assert [c.text for c in completions] == [f"sample {i}" for i in range(128)]
        assert provider.max_live <= 8

    def test_stress_in_flight_cap(self, tmp_path):
        provider = InstrumentedProvider()
        gw = Gateway(PipelineConfig(max_in_flight=4), tmp_path)
        results: dict[int, list[Completion]] = {}
        errors: list[Exception] = []

        def submitter(i: int) -> None:
            try:
                results[i] = samples(gw, chat_role(provider), f"p{i}", 10)
            except Exception as exc:  # re-raised in the test thread below
                errors.append(exc)

        threads = [threading.Thread(target=submitter, args=(i,)) for i in range(4)]
        for t in threads:  # 40 submissions from 4 threads, 10x the cap
            t.start()
        for t in threads:
            t.join(timeout=30)
        gw.close()
        assert not any(t.is_alive() for t in threads)
        if errors:
            raise errors[0]
        assert sorted(results) == [0, 1, 2, 3]
        assert all(len(batch) == 10 for batch in results.values())
        assert provider.max_live <= 4

    def test_submit_never_waits_on_the_gateway_lock(self, tmp_path):
        gw = Gateway(PipelineConfig(), tmp_path)
        submitted: list = []
        submitter = threading.Thread(
            target=lambda: submitted.append(gw.submit_role(chat_role(), "p"))
        )
        with gw._lock:  # as a pool thread does while it reads the cache
            submitter.start()
            submitter.join(timeout=2)
        try:
            assert not submitter.is_alive(), "submit_role waited on the gateway lock"
            assert submitted[0].result(timeout=10).text
        finally:
            submitter.join(timeout=10)
            gw.close()

    def test_budget_guard(self, tmp_path):
        gw = Gateway(PipelineConfig(request_budget=2), tmp_path)
        gw.complete(CompletionRequest(prompt_text="a"), MockChatProvider())
        gw.complete(CompletionRequest(prompt_text="b"), MockChatProvider())
        with pytest.raises(BudgetExceeded):
            gw.complete(CompletionRequest(prompt_text="c"), MockChatProvider())


class TestCache:
    def test_cache_hit_is_byte_identical(self, tmp_path):
        config = PipelineConfig()
        gw1 = Gateway(config, tmp_path)
        first = samples(gw1, chat_role(), "cached?", 2)
        gw1.close()

        class Exploding:
            name = MockChatProvider.name  # the provider is part of the cache key

            def generate(self, request, sample_index):
                raise AssertionError("cache should have answered")

        gw2 = Gateway(config, tmp_path)
        second = samples(gw2, chat_role(Exploding()), "cached?", 2)
        gw2.close()
        assert [c.text for c in first] == [c.text for c in second]
        assert gw2.stats["cache_hits"] == 2
        assert gw2.stats["provider_calls"] == 0

    def test_cache_distinguishes_temperature(self, tmp_path):
        config = PipelineConfig()
        gw = Gateway(config, tmp_path)
        gw.complete(CompletionRequest(prompt_text="p", temperature=0.0), MockChatProvider())
        gw.complete(CompletionRequest(prompt_text="p", temperature=1.0), MockChatProvider())
        gw.close()
        assert gw.stats["provider_calls"] == 2

    def test_cache_distinguishes_max_output_tokens(self, tmp_path):
        gw = Gateway(PipelineConfig(), tmp_path)
        for tokens in (256, 2048, 256):
            gw.complete(
                CompletionRequest(prompt_text="p", max_output_tokens=tokens), MockChatProvider()
            )
            gw.append_paid()  # as the dispatch does before it settles an answer
        gw.close()
        assert gw.stats["provider_calls"] == 2
        assert gw.stats["cache_hits"] == 1

    def test_cache_distinguishes_provider(self, tmp_path):
        class OtherChat(MockChatProvider):
            name = "other-chat"

        gw = Gateway(PipelineConfig(), tmp_path)
        req = CompletionRequest(prompt_text="p")
        for provider in (MockChatProvider(), OtherChat(), MockChatProvider()):
            gw.complete(req, provider)
            gw.append_paid()
        gw.close()
        assert gw.stats["provider_calls"] == 2
        assert gw.stats["cache_hits"] == 1
        assert len(cache_keys(tmp_path / "cache")) == 2

    def test_cache_directory_made_once_on_first_write(self, tmp_path, monkeypatch):
        import pathlib

        made = []
        real_mkdir = pathlib.Path.mkdir

        def counting_mkdir(self, *args, **kwargs):
            made.append(self)
            return real_mkdir(self, *args, **kwargs)

        monkeypatch.setattr(pathlib.Path, "mkdir", counting_mkdir)
        cache = tmp_path / "cache"
        gw = Gateway(PipelineConfig(max_in_flight=16), tmp_path)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # pool threads interleave; only this thread writes the log
        try:
            samples(gw, chat_role(), "p", 64)
            gw.complete(CompletionRequest(prompt_text="q"), MockChatProvider())
        finally:
            sys.setswitchinterval(interval)
            gw.close()
        assert gw.stats["provider_calls"] == 65
        assert made == [cache]
        assert len(cache_keys(cache)) == 65

    def test_no_cache_directory_without_a_write(self, tmp_path):
        class Fatal:
            name = "fatal"

            def generate(self, request, sample_index):
                raise ProviderError(self.name, "401 unauthorized")

        gw = Gateway(PipelineConfig(), tmp_path)
        with pytest.raises(ProviderError):
            gw.complete(CompletionRequest(prompt_text="p"), Fatal())
        gw.close()
        assert not (tmp_path / "cache").exists()

    def test_truncated_completion_is_not_cached(self, tmp_path):
        class Cut:
            name = "cut"

            def generate(self, request, sample_index):
                return Completion(text="theorem t : 1 =", finish_reason=FinishReason.LENGTH)

        gw = Gateway(PipelineConfig(), tmp_path)
        req = CompletionRequest(prompt_text="p")
        for _ in range(2):
            assert gw.complete(req, Cut()).finish_reason == FinishReason.LENGTH
        gw.close()
        assert gw.stats["provider_calls"] == 2
        assert gw.stats["cache_hits"] == 0
        assert not (tmp_path / "cache").exists()

    @pytest.mark.parametrize("text", ["", "  \n\t "])
    def test_blank_stop_completion_is_not_cached(self, tmp_path, text):
        class Blank:
            name = "blank"

            def generate(self, request, sample_index):
                return Completion(text=text)

        gw = Gateway(PipelineConfig(), tmp_path)
        req = CompletionRequest(prompt_text="p")
        for _ in range(2):
            assert gw.complete(req, Blank()).text == text
        gw.close()
        assert gw.stats["provider_calls"] == 2
        assert gw.stats["cache_hits"] == 0
        assert not (tmp_path / "cache").exists()

    def test_truncated_completions_are_counted(self, tmp_path):
        class Mixed:
            name = "mixed"

            def generate(self, request, sample_index):
                if sample_index % 3 == 1:
                    return Completion(text="theorem t :", finish_reason=FinishReason.LENGTH)
                return Completion(text="ok")

        with closing(Gateway(PipelineConfig(), tmp_path)) as gw:
            samples(gw, chat_role(Mixed()), "p", 7)
        assert gw.stats == {"provider_calls": 7, "retries": 0, "cache_hits": 0,
                            "truncated": 2}

    def test_submitted_sample_shares_the_key_of_its_index(self, tmp_path):
        config = PipelineConfig()
        with closing(Gateway(config, tmp_path)) as gw:
            batch = [gw.complete(CompletionRequest(prompt_text="p", sample_index=i),
                                 MockChatProvider()) for i in range(3)]

        class Exploding:
            name = MockChatProvider.name

            def generate(self, request, sample_index):
                raise AssertionError("cache should have answered")

        role = Role(provider=Exploding(), model_id="mock", temperature=1.0,
                    max_output_tokens=2048)
        with closing(Gateway(config, tmp_path)) as gw:
            single = [gw.submit_role(role, "p", sample_index=i).result() for i in range(3)]
        assert single == batch
        assert gw.stats["cache_hits"] == 3

    def test_cache_key_is_pinned(self, tmp_path):
        # Completion logs written by earlier versions must keep answering.
        role = Role(provider=MockChatProvider(), model_id="m", temperature=0.5,
                    max_output_tokens=64)
        with closing(Gateway(PipelineConfig(), tmp_path)) as gw:
            gw.submit_role(role, "pinned prompt", sample_index=3).result(timeout=10)
        assert cache_keys(tmp_path / "cache") == [
            "75f83d4c37049d29f269921ebdcbc2e5c67b47252dc916ba426087233420bbf2"
        ]

    def test_cache_hits_do_not_consume_budget(self, tmp_path):
        config = PipelineConfig(request_budget=1)
        gw = Gateway(config, tmp_path)
        req = CompletionRequest(prompt_text="only once")
        gw.complete(req, MockChatProvider())
        gw.append_paid()
        gw.complete(req, MockChatProvider())  # second time from cache
        gw.close()
        assert gw.stats["cache_hits"] == 1

        # A budget of 0 is valid: the run is answered from the cache alone.
        with closing(Gateway(PipelineConfig(request_budget=0), tmp_path)) as gw:
            gw.complete(req, MockChatProvider())
            with pytest.raises(BudgetExceeded):
                gw.complete(CompletionRequest(prompt_text="never asked"), MockChatProvider())
        assert gw.stats["cache_hits"] == 1
        assert gw.stats["provider_calls"] == 0

    def test_malformed_cache_fails_before_any_call(self, tmp_path):
        cache = tmp_path / "cache"
        cache.mkdir()
        (cache / "completions.jsonl").write_text('{"key\n{"key": "k"}\n', encoding="utf-8")
        with pytest.raises(SchemaError, match="line 1"):
            Gateway(PipelineConfig(), tmp_path)

    def test_cache_entry_of_an_unknown_finish_reason_fails_before_any_call(self, tmp_path):
        # No provider finishes with "error", so no cache holds one.
        cache = tmp_path / "cache"
        cache.mkdir()
        entry = {"key": "k", "text": "", "finish_reason": "error", "provider_meta": {}}
        (cache / "completions.jsonl").write_text(json.dumps(entry) + "\n", encoding="utf-8")
        with pytest.raises(SchemaError, match="line 1: bad cache entry: 'error'"):
            Gateway(PipelineConfig(), tmp_path)


class TestMockProviders:
    def test_back_translator_echoes_normal_form(self):
        prompt = f"Translate back.\n\n{BACK_TRANSLATE_MARKER}\nTheorem  Foo :  A   =\nB\n"
        completion = MockBackTranslator().generate(
            CompletionRequest(prompt_text=prompt), 0
        )
        assert completion.text == "theorem foo : a = b"

    def test_nli_accepts_containment_both_ways(self):
        judge = MockNliJudge()
        for a, b in (("p holds", "P   HOLDS"), ("p holds", "clearly p holds today")):
            prompt = f"{NLI_ORIGINAL_MARKER}\n{a}\n\n{NLI_CANDIDATE_MARKER}\n{b}\n"
            assert judge.generate(CompletionRequest(prompt_text=prompt), 0).text == "ACCEPT"

    def test_nli_rejects_disjoint(self):
        prompt = f"{NLI_ORIGINAL_MARKER}\nalpha\n\n{NLI_CANDIDATE_MARKER}\nomega\n"
        assert (
            MockNliJudge().generate(CompletionRequest(prompt_text=prompt), 0).text == "REJECT"
        )

    def test_normalize(self):
        assert normalize_text("  A \t B\nc ") == "a b c"

    def test_chat_mock_is_pure_in_digest_index_model(self):
        base = CompletionRequest(prompt_text="any prompt", model_id="m", temperature=0.2)
        hot = CompletionRequest(prompt_text="any prompt", model_id="m", temperature=1.7)
        assert (
            MockChatProvider().generate(base, 3).text
            == MockChatProvider().generate(hot, 3).text
        )
        other_model = CompletionRequest(prompt_text="any prompt", model_id="m2")
        assert (
            MockChatProvider().generate(base, 0).text
            != MockChatProvider().generate(other_model, 0).text
        )

    def test_augmenter_is_deterministic(self):
        from herald.gateway import STRATEGY_MARKER, STRATEGY_TEXT_MARKER

        prompt = (
            f"{STRATEGY_MARKER} multi_linguistic_translation zh\n"
            f"{STRATEGY_TEXT_MARKER}\nEvery group is a monoid.\n"
        )
        one = MockAugmenter().generate(CompletionRequest(prompt_text=prompt), 0).text
        two = MockAugmenter().generate(CompletionRequest(prompt_text=prompt), 0).text
        assert one == two == "[zh] Every group is a monoid."
