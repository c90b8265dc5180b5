"""Four-step validation of formalization candidates with pass@k accounting.

Per candidate: compile check, then back-translation, then an LLM judge
comparing the back-translation against the original informal statement.
An item succeeds when any of its k candidates passes both checks.

Two compiler backends implement one interface: a subprocess driver speaking
line-delimited JSON to a proof-checker REPL, and a scriptable mock keyed by
statement digest so everything runs without a toolchain.  The stages keep the
REPL's outcomes in their ``cache/checks.jsonl`` (:func:`cache_checks`), so a
rerun pays for no check twice.
"""

from __future__ import annotations

import json
import queue
import subprocess
import threading
from concurrent.futures import Future
from dataclasses import asdict, dataclass, replace
from enum import Enum
from pathlib import Path
from typing import Callable, Iterable, Iterator, Protocol, Sequence

from .datastore import KeyedLog, check_shape, parse_json, read_jsonl
from .errors import BackendUnavailable, InvalidInput, MixedK, SchemaError
from .gateway import (
    BACK_TRANSLATE_MARKER,
    NLI_CANDIDATE_MARKER,
    NLI_ORIGINAL_MARKER,
    TRANSLATE_MARKER,
    Completion,
    Gateway,
    Role,
    digest,
)

DEFAULT_HEADER = "import Mathlib\n"
DEFAULT_TIMEOUT_MS = 60000
# The diagnostics of a check that ran out of time.
TIMEOUT = ("timeout",)


@dataclass(frozen=True)
class CompileOutcome:
    ok: bool
    diagnostics: tuple[str, ...] = ()


class CompilerBackend(Protocol):
    def check(self, source: str, timeout_ms: int) -> CompileOutcome: ...

    def close(self) -> None: ...


class MockCompilerBackend:
    """Scriptable backend keyed by the digest of the exact source checked."""

    def __init__(self, default_ok: bool = False):
        self.default_ok = default_ok
        self._outcomes: dict[str, CompileOutcome] = {}

    def script(self, source: str, ok: bool) -> None:
        self._outcomes[digest(source)] = CompileOutcome(ok)

    def check(self, source: str, timeout_ms: int) -> CompileOutcome:
        outcome = self._outcomes.get(digest(source))
        if outcome is not None:
            return outcome
        if self.default_ok:
            return CompileOutcome(True)
        return CompileOutcome(False, ("not in scripted pass set",))

    def close(self) -> None:
        pass


_REPLY = {"id": int, "ok": bool, "diagnostics": list}


class ReplBackend:
    """Line-delimited JSON driver for an external proof-checker REPL.

    Protocol: one request object per line, ``{"cmd": "check", "id": n,
    "source": ...}``; one response per line, ``{"id": n, "ok": bool,
    "diagnostics": [...]}``, ``diagnostics`` optional, in UTF-8.  Any other
    response is a :class:`BackendUnavailable`.  A request that exceeds its
    timeout, or whose process exits before it answers, is reported as
    ``fail("timeout")`` and the subprocess is restarted, since the stream
    is no longer in sync.  Until one well-formed response has come back, a
    process that exits before it answers is a :class:`BackendUnavailable`:
    a command that cannot check anything fails no candidate.
    """

    def __init__(self, command: Sequence[str]):
        self.command = list(command)
        self._proc: subprocess.Popen | None = None
        self._responses: queue.Queue = queue.Queue()
        self._next_id = 0
        self._answered = False  # a well-formed response has come back
        self._lock = threading.Lock()

    def _start(self) -> None:
        try:
            self._proc = subprocess.Popen(
                self.command,
                stdin=subprocess.PIPE,
                stdout=subprocess.PIPE,
                stderr=subprocess.DEVNULL,
            )
        except OSError as exc:
            raise BackendUnavailable(f"cannot start {self.command[0]}: {exc}") from exc
        # A reader keeps its own process's queue: a late line from a replaced
        # process must not answer a check sent to the new one.
        self._responses = responses = queue.Queue()
        threading.Thread(target=self._reader, args=(self._proc, responses), daemon=True).start()

    def _reader(self, proc: subprocess.Popen, responses: queue.Queue) -> None:
        """Queue each line ``proc`` writes, then None once its output closes."""
        assert proc.stdout is not None
        with proc.stdout:
            for line in proc.stdout:
                responses.put(line)
        responses.put(None)

    def close(self) -> None:
        if self._proc is not None:
            self._proc.kill()
            self._proc.wait()
            try:
                self._proc.stdin.close()
            except BrokenPipeError:
                pass  # a line the dead process never read; nothing to deliver
            self._proc = None

    def check(self, source: str, timeout_ms: int) -> CompileOutcome:
        with self._lock:
            if self._proc is None or self._proc.poll() is not None:
                self._start()
            assert self._proc is not None and self._proc.stdin is not None
            self._next_id += 1
            req_id = self._next_id
            try:
                self._proc.stdin.write(
                    json.dumps({"cmd": "check", "id": req_id, "source": source}).encode() + b"\n"
                )
                self._proc.stdin.flush()
            except (OSError, ValueError) as exc:
                self.close()
                raise BackendUnavailable(f"backend pipe broken: {exc}") from exc
            try:
                line = self._responses.get(timeout=timeout_ms / 1000.0)
            except queue.Empty:
                line = b""  # out of time, told apart from the end marker None
            if not line:
                self.close()
                if line is None and not self._answered:
                    raise BackendUnavailable(
                        f"{self.command[0]} exited before answering its first check")
                return CompileOutcome(False, TIMEOUT)
            try:
                reply = parse_json(line)
                check_shape(reply, dict)
                reply = {"diagnostics": [], **reply}
                check_shape(reply, _REPLY)
            except SchemaError as exc:
                self.close()
                raise BackendUnavailable(f"malformed backend response: {exc}") from exc
            if reply["id"] != req_id:
                self.close()
                raise BackendUnavailable(f"backend answered id {reply['id']}, expected {req_id}")
            self._answered = True
            return CompileOutcome(reply["ok"], tuple(map(str, reply["diagnostics"])))


# A check-log entry's fields after its key.
_OUTCOME = {"ok": bool, "diagnostics": list}


def _outcome(obj: dict) -> CompileOutcome:
    row = {key: obj[key] for key in _OUTCOME}
    row["diagnostics"] = tuple(map(str, obj["diagnostics"]))
    return CompileOutcome(**row)


class CachedChecks:
    """A process-backed checker whose outcomes are kept in ``cache/checks.jsonl``.

    An entry is keyed by the SHA-256 of the exact source checked, header
    included, so a rerun answers every check already paid for without a
    round trip to the process.  The checker's command is not in the key, nor
    in the config digest that claims the directory: an output directory is
    bound to one proof checker, as its ``reports.jsonl`` is, however its
    process is started.  A timeout is not kept, and a check that raises (the process gone or
    answering garbage) keeps nothing, so a rerun asks again.  ``stats``
    counts the checks sent to the process and those answered from the file.
    Checks come from one thread.
    """

    def __init__(self, backend: CompilerBackend, cache_dir: Path):
        self.backend = backend
        self.stats = {"compile_checks": 0, "check_cache_hits": 0}
        self._log = KeyedLog(cache_dir / "checks.jsonl", _OUTCOME, _outcome, "check entry")

    def check(self, source: str, timeout_ms: int) -> CompileOutcome:
        key = digest(source)
        outcome = self._log.get(key)
        if outcome is not None:
            self.stats["check_cache_hits"] += 1
            return outcome
        self.stats["compile_checks"] += 1
        outcome = self.backend.check(source, timeout_ms)
        if outcome.diagnostics != TIMEOUT:
            self._log.add(key, outcome)
        return outcome

    def close(self) -> None:
        try:
            self._log.close()
        finally:
            self.backend.close()


def cache_checks(backend: CompilerBackend, cache_dir: Path) -> CompilerBackend:
    """``backend``, its outcomes kept in ``cache_dir`` when it is a
    :class:`ReplBackend`; an in-process backend checks again for free and is
    returned as it is."""
    if isinstance(backend, ReplBackend):
        return CachedChecks(backend, cache_dir)
    return backend


def compose_source(statement_text: str, header: str = DEFAULT_HEADER) -> str:
    """Prepend the header prelude used for models that do not emit headers."""
    if not header:
        return statement_text
    if not header.endswith("\n"):
        header += "\n"
    return header + statement_text


def translation_prompt(informal: str) -> str:
    return (
        "Translate the following natural-language mathematical statement into a "
        "formal Lean 4 statement. Output only the Lean code.\n\n"
        f"{TRANSLATE_MARKER}\n{informal}\n"
    )


def back_translation_prompt(formal_text: str) -> str:
    return (
        "Translate the following formal Lean 4 statement back into natural "
        "language. Output only the translation.\n\n"
        f"{BACK_TRANSLATE_MARKER}\n{formal_text}\n"
    )


def nli_prompt(original_nl: str, back_nl: str) -> str:
    return (
        "Decide whether the two statements below express the same mathematical "
        "claim. Answer with exactly one token: ACCEPT if they match, REJECT "
        "otherwise.\n\n"
        f"{NLI_ORIGINAL_MARKER}\n{original_nl}\n\n"
        f"{NLI_CANDIDATE_MARKER}\n{back_nl}\n"
    )


class NliStatus(str, Enum):
    ACCEPT = "accept"
    REJECT = "reject"
    SKIPPED = "skipped"


@dataclass(frozen=True)
class NliOutcome:
    verdict: NliStatus
    parse_failure: bool = False


def back_translate(completion: Completion) -> str:
    """The back-translation a back-translator's completion holds.

    :meth:`ItemRun.settle` reads each one through this name, which stays a
    function of its own because ``perfbench/spans.py`` wraps it; once the
    spans read what a run records, it can be inlined.
    """
    return completion.text.strip()


def nli_check(completion: Completion) -> NliOutcome:
    """The verdict a judge's completion holds, by the constrained
    ACCEPT/REJECT token contract: the first of the two tokens decides.

    Free prose without either token counts as a reject and is flagged as a
    parse failure.  :meth:`ItemRun.settle` reads each verdict through this
    name, kept for ``perfbench/spans.py`` as :func:`back_translate` is.
    """
    for token in completion.text.split():
        if token == "ACCEPT":
            return NliOutcome(NliStatus.ACCEPT)
        if token == "REJECT":
            return NliOutcome(NliStatus.REJECT)
    return NliOutcome(NliStatus.REJECT, parse_failure=True)


class CompileStatus(str, Enum):
    PASS = "pass"
    FAIL = "fail"
    SKIPPED = "skipped"


@dataclass(frozen=True)
class CandidateResult:
    candidate_text: str
    compile: CompileStatus
    compile_diagnostic: str | None
    back_translation: str | None
    nli: NliStatus
    final: bool
    nli_parse_failure: bool = False

    def __post_init__(self):
        expected = self.compile == CompileStatus.PASS and self.nli == NliStatus.ACCEPT
        if self.final != expected:
            raise InvalidInput("final must equal (compile pass and nli accept)")
        if self.nli != NliStatus.SKIPPED and self.compile != CompileStatus.PASS:
            raise InvalidInput("nli may only be evaluated after a compile pass")


@dataclass(frozen=True)
class ValidationReport:
    item_id: str
    k: int
    candidates: tuple[CandidateResult, ...]
    success: bool
    short_circuit: bool = True

    def __post_init__(self):
        if len(self.candidates) > self.k:
            raise InvalidInput(f"{len(self.candidates)} candidates for k={self.k}")
        if self.success != any(c.final for c in self.candidates):
            raise InvalidInput("success must be the OR of candidate finals")


@dataclass(frozen=True)
class Roles:
    translator: Role
    back_translator: Role
    nli_judge: Role


def _evaluate_candidate(
    text: str, backend: CompilerBackend, header: str, timeout_ms: int
) -> CandidateResult:
    """First look at a candidate: skip a blank one, or compile-check it.

    A compiling candidate comes back with its verdict still ``SKIPPED``;
    :class:`ItemRun` fills in the back-translation and the judge's verdict.
    """
    if not text:
        return CandidateResult(
            candidate_text=text,
            compile=CompileStatus.SKIPPED,
            compile_diagnostic=None,
            back_translation=None,
            nli=NliStatus.SKIPPED,
            final=False,
        )
    outcome = backend.check(compose_source(text, header), timeout_ms)
    diagnostic = "; ".join(outcome.diagnostics) or "compile failed"
    return CandidateResult(
        candidate_text=text,
        compile=CompileStatus.PASS if outcome.ok else CompileStatus.FAIL,
        compile_diagnostic=None if outcome.ok else diagnostic,
        back_translation=None,
        nli=NliStatus.SKIPPED,
        final=False,
    )


class ItemRun:
    """One item's pass@k evaluation, advanced by completions as they return.

    This is herald's one validate path: :func:`validate_item` builds the run
    and :meth:`start` sends the k translate samples through the gateway
    pool, handing each future to ``track(future, tag)``; the driver passes
    every completion back to :meth:`settle` with its tag, in any order, on
    one thread.  Nothing here waits on a future.  Candidates are looked at
    strictly in sample order, each compile check on that thread through
    ``backend``; wrapped by :func:`cache_checks`, it answers a check an
    earlier run made from ``cache/checks.jsonl``.  A blank candidate is
    skipped.  A pass sends the back-translation, read by
    :func:`back_translate`; a blank one is a reject flagged as a parse
    failure, and any other sends the judge, whose verdict
    :func:`nli_check` reads.  With ``short_circuit``, candidate i+1 is
    looked at only after candidate i's verdict, and none after the first
    accepted one; otherwise every compiling candidate is judged.  Nothing
    else is sent, so the provider calls are the same whatever order
    completions return in.

    The report is ready once every request sent has returned, so an item
    whose report is written leaves no call unpaid behind it.
    """

    def __init__(
        self,
        informal: str,
        k: int,
        roles: Roles,
        backend: CompilerBackend,
        gateway: Gateway,
        track: Callable[[Future, tuple], None],
        *,
        item_id: str = "",
        header: str = DEFAULT_HEADER,
        timeout_ms: int = DEFAULT_TIMEOUT_MS,
        short_circuit: bool = True,
    ):
        self.informal = informal
        self.k = k
        self.roles = roles
        self.backend = backend
        self.gateway = gateway
        self.track = track
        self.item_id = item_id
        self.header = header
        self.timeout_ms = timeout_ms
        self.short_circuit = short_circuit
        self._samples: list[Completion | None] = [None] * k
        self._results: list[CandidateResult] = []
        self._outstanding = 0  # requests sent, not yet settled
        self._judging = 0  # compiled candidates still waiting for a verdict
        self._accepted = False

    def _send(self, role: Role, prompt_text: str, tag: tuple, sample_index: int = 0) -> None:
        self._outstanding += 1
        self.track(self.gateway.submit_role(role, prompt_text, sample_index), tag)

    def start(self) -> None:
        prompt = translation_prompt(self.informal)
        for i in range(self.k):
            self._send(self.roles.translator, prompt, ("sample", i), i)

    def settle(self, tag: tuple, completion: Completion) -> ValidationReport | None:
        """Take one returned completion; the report once the item is done."""
        self._outstanding -= 1
        kind, i = tag
        if kind == "sample":
            self._samples[i] = completion
        elif kind == "back":
            back_nl = back_translate(completion)
            if back_nl:
                self._results[i] = replace(self._results[i], back_translation=back_nl)
                self._send(self.roles.nli_judge, nli_prompt(self.informal, back_nl), ("judge", i))
            else:
                self._verdict(i, "", NliOutcome(NliStatus.REJECT, parse_failure=True))
        else:
            self._verdict(i, self._results[i].back_translation, nli_check(completion))
        self._advance()
        looked_at_all = len(self._results) == self.k or (self.short_circuit and self._accepted)
        if self._outstanding or self._judging or not looked_at_all:
            return None
        return ValidationReport(
            item_id=self.item_id,
            k=self.k,
            candidates=tuple(self._results),
            success=self._accepted,
            short_circuit=self.short_circuit,
        )

    def _verdict(self, i: int, back_nl: str, nli: NliOutcome) -> None:
        self._results[i] = replace(
            self._results[i],
            back_translation=back_nl,
            nli=nli.verdict,
            final=nli.verdict == NliStatus.ACCEPT,
            nli_parse_failure=nli.parse_failure,
        )
        self._judging -= 1
        self._accepted = self._accepted or self._results[i].final

    def _advance(self) -> None:
        """Look at every candidate whose turn has come and whose sample is in."""
        while len(self._results) < self.k:
            if self.short_circuit and (self._judging or self._accepted):
                return
            i = len(self._results)
            sample = self._samples[i]
            if sample is None:
                return
            result = _evaluate_candidate(
                sample.text.strip(), self.backend, self.header, self.timeout_ms
            )
            self._results.append(result)
            if result.compile == CompileStatus.PASS:
                self._judging += 1
                self._send(
                    self.roles.back_translator,
                    back_translation_prompt(result.candidate_text),
                    ("back", i),
                )


def validate_item(*args, **kwargs) -> ItemRun:
    """Open one item: the :class:`ItemRun` built from ``args`` and
    ``kwargs``, its k samples sent.

    ``run_validate`` opens each item through this name, which stays a
    function of its own because ``perfbench/spans.py`` wraps it.
    """
    run = ItemRun(*args, **kwargs)
    run.start()
    return run


@dataclass(frozen=True)
class BenchmarkSummary:
    dataset_name: str
    total: int
    succeeded: int
    accuracy: float
    k: int


def summarize(reports: Iterable[ValidationReport], dataset_name: str) -> BenchmarkSummary:
    """Aggregate pass@k over reports that share one k, in one pass."""
    ks: set[int] = set()
    total = succeeded = 0
    for report in reports:
        ks.add(report.k)
        total += 1
        succeeded += report.success
    if not total:
        raise InvalidInput("no reports to summarize")
    if len(ks) > 1:
        raise MixedK(f"reports mix k values {sorted(ks)}")
    return BenchmarkSummary(
        dataset_name=dataset_name,
        total=total,
        succeeded=succeeded,
        accuracy=succeeded / total,
        k=ks.pop(),
    )


def summary_to_json(summary: BenchmarkSummary) -> str:
    return json.dumps(asdict(summary), sort_keys=True)


def summary_table(summary: BenchmarkSummary) -> str:
    return (
        f"{'dataset':<24} {'k':>5} {'total':>7} {'passed':>7} {'accuracy':>9}\n"
        f"{summary.dataset_name:<24} {summary.k:>5} {summary.total:>7} "
        f"{summary.succeeded:>7} {summary.accuracy:>9.4f}"
    )


def report_line(report: ValidationReport) -> str:
    """One ``reports.jsonl`` line, newline included: the report's fields and
    each candidate's, keys sorted (the shape :func:`report_from_dict` reads)."""
    return json.dumps(asdict(report), ensure_ascii=False, sort_keys=True) + "\n"


_CANDIDATE = {"candidate_text": str, "compile": str, "compile_diagnostic": (str, type(None)),
              "back_translation": (str, type(None)), "nli": str, "final": bool,
              "nli_parse_failure": bool}
_REPORT = {"item_id": str, "k": int, "success": bool, "short_circuit": bool,
           "candidates": [_CANDIDATE]}


def report_from_dict(obj: dict) -> ValidationReport:
    check_shape(obj, _REPORT)
    candidates = []
    for c in obj["candidates"]:
        row = {key: c[key] for key in _CANDIDATE}
        row["compile"] = CompileStatus(c["compile"])
        row["nli"] = NliStatus(c["nli"])
        candidates.append(CandidateResult(**row))
    row = {key: obj[key] for key in _REPORT}
    row["candidates"] = tuple(candidates)
    return ValidationReport(**row)


def read_reports(path: str | Path) -> Iterator[ValidationReport]:
    """The reports of a ``reports.jsonl``, one at a time; a malformed line is a
    :class:`SchemaError` naming it."""
    return read_jsonl(path, report_from_dict, "report")
