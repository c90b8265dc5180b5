"""Exception types shared across the pipeline stages."""

from __future__ import annotations


class HeraldError(Exception):
    """Base class for all pipeline errors."""


class InvalidInput(HeraldError):
    """A caller violated an operation precondition."""


class SchemaError(HeraldError):
    """Malformed input document; carries the JSON path of the offending node."""

    def __init__(self, message: str, path: str = "$"):
        super().__init__(f"{path}: {message}")
        self.path = path


class CycleError(HeraldError):
    """The dependency graph contains a directed cycle.

    ``cycle`` is a witness in edge order with first element repeated last.
    """

    def __init__(self, cycle: list[str]):
        super().__init__("dependency cycle: " + " -> ".join(cycle))
        self.cycle = cycle


class DimensionMismatch(HeraldError):
    """Embedding dimensions disagree."""


class ZeroVector(HeraldError):
    """Cosine similarity is undefined for a zero-norm vector."""


class DuplicateId(HeraldError):
    """An id that must be unique appears more than once."""


class ProviderError(HeraldError):
    """A model provider failed; ``transient`` marks retryable failures."""

    def __init__(self, provider: str, message: str, transient: bool = False):
        super().__init__(f"provider '{provider}': {message}")
        self.provider = provider
        self.transient = transient


class ProviderExhausted(HeraldError):
    """All retries against a provider were spent."""


class BlankAnswer(ProviderExhausted):
    """A provider answered with blank text; it was not cached, so a rerun asks again."""


class BudgetExceeded(HeraldError):
    """The configured request budget guard tripped."""


class NoTemplate(HeraldError):
    """The template registry has no applicable template and no default."""


class BackendUnavailable(HeraldError):
    """The compiler backend cannot be reached; distinct from a candidate failing."""


class MixedK(HeraldError):
    """Reports being summarized disagree on k."""


class EmptyPool(HeraldError):
    """A mixture requested records from an empty pool."""
