"""Provider latency for the benchmark, kept outside herald's own code.

``LatencyRoleConfig`` is a ``RoleConfig`` whose ``build()`` wraps the stock
mock provider of each role in a fixed sleep.  The wrapper counts the
completions the provider actually produced (cache hits never reach it) and,
in a traced run, records one span per completion.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field, replace

from herald.config import RoleConfig
from herald.gateway import Completion, CompletionRequest


class ProviderMeter:
    """Thread-safe count of produced completions, optionally traced."""

    def __init__(self, tracer=None):
        self.calls = 0
        self.tracer = tracer
        self._lock = threading.Lock()

    def record(self, request: CompletionRequest, start: float, end: float) -> None:
        with self._lock:
            self.calls += 1
        if self.tracer is not None:
            self.tracer.provider_span(request, start, end)


class SleepingProvider:
    """Sleeps ``latency_s``, then answers with the wrapped provider."""

    def __init__(self, inner, latency_s: float, meter: ProviderMeter):
        self.name = inner.name
        self._inner = inner
        self._latency_s = latency_s
        self._meter = meter

    def generate(self, request: CompletionRequest, sample_index: int) -> Completion:
        start = time.perf_counter()
        if self._latency_s > 0:
            time.sleep(self._latency_s)
        completion = self._inner.generate(request, sample_index)
        self._meter.record(request, start, time.perf_counter())
        return completion


@dataclass(frozen=True)
class LatencyRoleConfig(RoleConfig):
    latency_ms: float = 0.0
    meter: ProviderMeter = field(default_factory=ProviderMeter, compare=False)

    def build(self, role_name: str):
        role = super().build(role_name)
        return replace(
            role, provider=SleepingProvider(role.provider, self.latency_ms / 1000.0, self.meter)
        )
