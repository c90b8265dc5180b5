"""NL-FL pair persistence and training-mixture assembly.

Every record file herald reads, resumes or rewrites is JSONL, one record per
line.  This module holds the one reader (:func:`read_jsonl`), the torn-line
rule for resumable files (:func:`drop_torn_tail`), the one atomic replace
(:func:`replace_atomic`) and the one keyed cache log (:class:`KeyedLog`);
a pair row holds its fields in the order of its shape, ``_PAIR``.  Every
JSON document herald reads (the corpus export, the config, the template
registry, the tactic notes, each provider and REPL reply) is decoded by
:func:`parse_json` and type-checked by :func:`check_shape`, as is each
record row by its reader.
Mixtures realize the configured provenance ratio (default 1:2:1 over
original, tactic-augmented, informal-augmented pairs) and direction ratio
(default 2:2:1 over NL->FL, FL->NL, general instruction data) with
largest-remainder rounding; a manifest with the realized counts accompanies
every mixture.  The provenance ratio applies before direction mirroring.
"""

from __future__ import annotations

import json
import logging
import os
import random
from collections import Counter
from dataclasses import asdict, dataclass, field, replace
from enum import Enum
from pathlib import Path
from typing import Callable, Generic, Iterable, Iterator, TextIO, TypeVar

from .errors import EmptyPool, InvalidInput, SchemaError

logger = logging.getLogger(__name__)

T = TypeVar("T")


class Direction(str, Enum):
    NL_TO_FL = "nl_to_fl"
    FL_TO_NL = "fl_to_nl"


class Provenance(str, Enum):
    ORIGINAL = "original"
    TACTIC_AUG = "tactic_aug"
    INFORMAL_AUG = "informal_aug"
    GENERAL = "general"


@dataclass(frozen=True, slots=True)
class NLFLPair:
    """One aligned record; ``direction`` is None only for general
    instruction data, which has no formal side."""

    id: str
    formal_text: str
    informal_text: str
    direction: Direction | None
    provenance: Provenance
    source_name: str | None = None
    level: int | None = None
    record_type: str = "statement"

    def __post_init__(self):
        if not self.id:
            raise InvalidInput("empty pair id")
        if not self.informal_text:
            raise InvalidInput(f"pair {self.id}: informal_text must be non-empty")
        if self.direction is None:
            if self.provenance != Provenance.GENERAL:
                raise InvalidInput(f"pair {self.id}: only general pairs may omit direction")
        elif not self.formal_text:
            raise InvalidInput(f"pair {self.id}: formal_text must be non-empty")
        if self.record_type not in ("statement", "proof", "instruction"):
            raise InvalidInput(f"pair {self.id}: unknown record_type {self.record_type!r}")


_PAIR = {"id": str, "formal_text": str, "informal_text": str, "direction": (str, type(None)),
         "provenance": str, "source_name": (str, type(None)), "level": (int, type(None)),
         "record_type": str}
# The value a pair row's left-out field takes.
_PAIR_DEFAULTS = {"formal_text": "", "direction": None, "source_name": None, "level": None,
                  "record_type": "statement"}


def pair_to_dict(pair: NLFLPair) -> dict:
    """The pair's fields in ``_PAIR``'s order; ``json`` writes a ``str`` enum
    as its value."""
    return {key: getattr(pair, key) for key in _PAIR}


def pair_from_dict(obj: dict) -> NLFLPair:
    obj = {**_PAIR_DEFAULTS, **obj}
    check_shape(obj, _PAIR)
    row = {key: obj[key] for key in _PAIR}
    row["direction"] = Direction(obj["direction"]) if obj["direction"] else None
    row["provenance"] = Provenance(obj["provenance"])
    return NLFLPair(**row)


# ``json.dumps(..., ensure_ascii=False)`` builds an encoder per call.
_encode = json.JSONEncoder(ensure_ascii=False).encode


def pair_line(pair: NLFLPair) -> str:
    """One record-file line, newline included: fields in ``_PAIR``'s order, UTF-8."""
    return _encode(pair_to_dict(pair)) + "\n"


def _write_synced(path: str | Path, lines: Iterable[str]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(lines)
        fh.flush()
        os.fsync(fh.fileno())


def replace_atomic(path: str | Path, lines: Iterable[str]) -> None:
    """Replace ``path`` by ``lines``: write and fsync ``<stem>.tmp`` beside it,
    then rename it into place, so a kill leaves the old file or the new one."""
    tmp = Path(path).with_suffix(".tmp")
    _write_synced(tmp, lines)
    os.replace(tmp, path)


def write_pairs_atomic(pairs: list[NLFLPair], path: str | Path) -> int:
    replace_atomic(path, map(pair_line, pairs))
    return len(pairs)


def drop_torn_tail(path: Path) -> None:
    """Cut a final line that a kill mid-append left without its newline.

    Every record is written as one newline-terminated line, so only the last
    line of a file can be torn.  A malformed line before it stays an error
    for the reader.  The resumable files (the informalize level files and
    ``proofs.jsonl``, ``reports.jsonl``, the cache logs) pass through this
    before :func:`read_jsonl`; input files are read as they are.
    """
    data = path.read_bytes()
    keep = data.rfind(b"\n") + 1
    if keep < len(data):
        logger.warning("%s: dropping a torn final line (%d bytes)", path, len(data) - keep)
        os.truncate(path, keep)


def read_jsonl(path: str | Path, parse: Callable[[dict], T], what: str,
               unique: Callable[[T], str] | None = None) -> Iterator[T]:
    """``parse(json.loads(line))`` for each line of ``path``, lazily; blank
    lines are skipped.

    A line that is not UTF-8 JSON, or that ``parse`` fails on for a missing
    key, a wrong type or a rejected value, is a :class:`SchemaError` ``bad
    {what}`` located at ``{path}: line {n}``.  So is a record whose
    ``unique(record)``, a name such as ``id 'x'``, an earlier line's record
    had: ``bad {what}: id 'x' repeats line {m}``.
    """
    return _read_lines(path, lambda line: parse(json.loads(line)), what, unique)


def _read_lines(path: str | Path, parse: Callable[[str], T], what: str,
                unique: Callable[[T], str] | None = None) -> Iterator[T]:
    """:func:`read_jsonl` with ``parse`` given each line's text, newline included."""
    first: dict[str, int] = {}  # line of each name ``unique`` gave
    with open(path, "rb") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                record = parse(line.decode("utf-8"))
                if unique is not None:
                    name = unique(record)
                    if first.setdefault(name, lineno) != lineno:
                        raise ValueError(f"{name} repeats line {first[name]}")
            except (KeyError, TypeError, ValueError, InvalidInput, SchemaError) as exc:
                raise SchemaError(f"bad {what}: {exc}", f"{path}: line {lineno}") from exc
            yield record


def parse_json(raw: bytes | str, where: str = "$"):
    """``raw`` as one JSON document, bytes read as UTF-8; what does not decode
    is a :class:`SchemaError` at ``where``."""
    try:
        return json.loads(raw.decode("utf-8") if isinstance(raw, bytes) else raw)
    except (ValueError, RecursionError) as exc:
        raise SchemaError(f"not UTF-8 JSON: {exc}", where) from None


def check_shape(value, shape, where: str = "$") -> None:
    """Raise a :class:`SchemaError` at the JSON path (below ``where``) of the
    first node of the decoded JSON ``value`` that does not fit ``shape``,
    building the path only then.  A shape is

    * a type or a tuple of types, one of which is the node's exact ``type()``
      (a boolean is no integer; a number written either way is ``(float, int)``);
    * ``[shape]``: a list of that shape, named at the list for a type;
    * ``[type, type, ...]``: a list of exactly those types, one per item;
    * ``{key: shape, ...}``: an object holding each key, its value of that
      key's shape; keys the shape does not name are not checked;
    * ``{str: shape}``: an object whose every value is of that shape.

    Messages read ``must be an integer, got "2"`` or ``must be a string, but
    is missing``.
    """
    misfit = _misfit(value, shape)
    if misfit is not None:
        raise SchemaError(misfit[1], where + misfit[0])


def _misfit(value, shape) -> tuple[str, str] | None:
    """None when ``value`` fits ``shape``; else the path from ``value`` down
    to the first misfit, and its message."""
    if type(shape) is list and type(value) is list:
        item = shape[0]
        if len(shape) > 1:
            if list(map(type, value)) == shape:
                return None
        elif type(item) is type or type(item) is tuple:
            if set(item if type(item) is tuple else (item,)).issuperset(map(type, value)):
                return None
        else:
            for i, element in enumerate(value):
                if misfit := _misfit(element, item):
                    return f"[{i}]{misfit[0]}", misfit[1]
            return None
    elif type(shape) is dict and type(value) is dict:
        for key, item in ((k, shape[str]) for k in value) if str in shape else shape.items():
            if key not in value:
                return f".{key}", f"must be {_describe(item)}, but is missing"
            element = value[key]
            if type(element) is not item and (misfit := _misfit(element, item)):
                return (f"[{key!r}]" if str in shape else f".{key}") + misfit[0], misfit[1]
        return None
    elif type(value) is shape or type(shape) is tuple and type(value) in shape:
        return None
    got = json.dumps(value, default=repr)
    return "", f"must be {_describe(shape)}, got {got if len(got) <= 80 else got[:77] + '...'}"


_TYPE_NAMES = {int: "an integer", float: "a number", str: "a string", bool: "a boolean",
               type(None): "null", list: "a list", dict: "an object"}


def _describe(shape, many: bool = False) -> str:
    """``shape`` in words, as a plural noun if ``many`` (``lists of strings``)."""
    if type(shape) is tuple:
        return " or ".join(_describe(t, many) for t in shape)
    if type(shape) is list and len(shape) > 1:
        return f"[{', '.join(map(_describe, shape))}]"
    if type(shape) is list:
        return ("lists of " if many else "a list of ") + _describe(shape[0], True)
    name = _TYPE_NAMES[dict if type(shape) is dict else shape]
    return name.split()[-1] + "s" if many else name


class KeyedLog(Generic[T]):
    """An append-only JSONL file of ``{"key": ..., **fields}`` entries: a stage's
    cache of something paid for (``cache/completions.jsonl``,
    ``cache/checks.jsonl``).  ``fields`` is the shape of an entry's other
    keys, each the name of an attribute of the value kept.

    Read once, on construction, into a dict of each entry's line, so a hit
    never touches the disk; every entry is parsed then, so a malformed line
    is a :class:`SchemaError` naming it before anything is paid for, and a
    torn final line is dropped as for every resumable record file.  ``parse``
    turns a checked entry's object into its value, on each hit of
    :meth:`get`; :meth:`add` writes the value's ``fields``.  Each new entry
    is appended as one flushed line, the directory and the append handle
    made on the first.  :meth:`close` rewrites the file with the lines in key
    order with :func:`replace_atomic`, so a finished run leaves one sorted
    file whatever order the entries were added in.  One writing process per output
    directory is assumed, and one thread in it adds; other threads may only
    :meth:`get`, a dict lookup and the parse of one line.
    """

    def __init__(self, path: Path, fields: dict, parse: Callable[[dict], T], what: str):
        self._path = path
        self._fields = fields
        self._shape = {"key": str, **fields}
        self._parse = parse
        self._lines: dict[str, str] = {}
        self._handle: TextIO | None = None
        if path.exists():
            drop_torn_tail(path)
            self._lines = dict(_read_lines(path, self._entry, what))

    def _entry(self, line: str) -> tuple[str, str]:
        """The key of the entry on ``line``, and the line, once the entry is
        checked against the shape and parsed."""
        obj = json.loads(line)
        check_shape(obj, self._shape)
        self._parse(obj)
        return obj["key"], line

    def get(self, key: str) -> T | None:
        line = self._lines.get(key)
        return None if line is None else self._parse(json.loads(line))

    def add(self, key: str, value: T) -> None:
        row = {"key": key, **{name: getattr(value, name) for name in self._fields}}
        line = json.dumps(row, ensure_ascii=False, sort_keys=True) + "\n"
        self._lines[key] = line
        if self._handle is None:
            self._path.parent.mkdir(parents=True, exist_ok=True)
            self._handle = open(self._path, "a", encoding="utf-8")
        self._handle.write(line)
        self._handle.flush()

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None
        if self._lines:
            lines = self._lines
            replace_atomic(self._path, (lines[key] for key in sorted(lines)))


def read_pairs(path: str | Path) -> list[NLFLPair]:
    return list(read_jsonl(path, pair_from_dict, "pair record"))


def split_by_ratio(total: int, ratio: tuple[int, ...]) -> list[int]:
    """Largest-remainder split of ``total`` into parts proportional to ratio.

    Each realized count differs from the ideal share by at most 1.
    """
    if total < 0:
        raise InvalidInput(f"total must be >= 0, got {total}")
    if not ratio or any(r <= 0 or not isinstance(r, int) for r in ratio):
        raise InvalidInput(f"ratio components must be positive integers, got {ratio}")
    denom = sum(ratio)
    shares = [total * r / denom for r in ratio]
    counts = [int(s) for s in shares]
    remainder = total - sum(counts)
    by_frac = sorted(range(len(ratio)), key=lambda i: (-(shares[i] - counts[i]), i))
    for i in by_frac[:remainder]:
        counts[i] += 1
    return counts


@dataclass(frozen=True)
class MixManifest:
    counts: dict[str, int]
    direction_counts: dict[str, int]
    seed: int
    ratio_spec: str
    total: int
    scaled_down: bool = False

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)


def _sample_ordered(pool: list[NLFLPair], count: int, rng: random.Random) -> list[NLFLPair]:
    if count == len(pool):
        return list(pool)
    chosen = sorted(rng.sample(range(len(pool)), count))
    return [pool[i] for i in chosen]


def mix(
    original: list[NLFLPair],
    tactic_aug: list[NLFLPair],
    informal_aug: list[NLFLPair],
    general: list[NLFLPair],
    *,
    total: int,
    ratios: tuple[int, int, int] = (1, 2, 1),
    dirmix: tuple[int, int, int] = (2, 2, 1),
    seed: int = 0,
) -> tuple[list[NLFLPair], MixManifest]:
    """Assemble ``total`` records honoring both ratios, shuffled by seed.

    ``dirmix`` splits the total between NL->FL, FL->NL, and general records;
    ``ratios`` splits the combined pair portion by provenance.  Pools too
    small for their requested counts scale the whole request down
    proportionally (with a warning); an empty-but-required pool is an error.
    """
    rng = random.Random(seed)
    pools = {
        Provenance.ORIGINAL: original,
        Provenance.TACTIC_AUG: tactic_aug,
        Provenance.INFORMAL_AUG: informal_aug,
    }

    def plan(requested_total: int):
        n_nl, n_fl, n_gen = split_by_ratio(requested_total, dirmix)
        prov_counts = split_by_ratio(n_nl + n_fl, ratios)
        return (n_nl, n_fl, n_gen), dict(zip(pools, prov_counts))

    (n_nl, n_fl, n_gen), prov_counts = plan(total)
    scaled = False
    realized_total = total
    for _ in range(64):
        shortfall = [
            (len(pools[p]), c) for p, c in prov_counts.items() if c > len(pools[p])
        ] + ([(len(general), n_gen)] if n_gen > len(general) else [])
        if not shortfall:
            break
        for p, c in prov_counts.items():
            if c > 0 and not pools[p]:
                raise EmptyPool(f"provenance pool '{p.value}' is empty")
        if n_gen > 0 and not general:
            raise EmptyPool("general pool is empty")
        factor = min(have / want for have, want in shortfall)
        realized_total = min(realized_total - 1, int(realized_total * factor))
        scaled = True
        if realized_total <= 0:
            raise EmptyPool("pools cannot satisfy any mixture")
        (n_nl, n_fl, n_gen), prov_counts = plan(realized_total)
    else:
        raise InvalidInput("could not scale mixture to the available pools")
    if scaled:
        logger.warning(
            "pools too small for total=%d; scaled down to %d", total, realized_total
        )

    selected: list[NLFLPair] = []
    for prov, pool in pools.items():
        selected.extend(_sample_ordered(pool, prov_counts[prov], rng))

    rng.shuffle(selected)
    records: list[NLFLPair] = []
    for i, pair in enumerate(selected):
        if i < n_nl:
            records.append(replace(pair, direction=Direction.NL_TO_FL))
        else:
            records.append(
                replace(pair, id=pair.id + "_rev", direction=Direction.FL_TO_NL)
            )
    records.extend(_sample_ordered(general, n_gen, rng))
    rng.shuffle(records)

    counts: dict[str, int] = {p.value: 0 for p in Provenance}
    direction_counts = {d.value: 0 for d in Direction}
    direction_counts["general"] = 0
    for rec in records:
        counts[rec.provenance.value] += 1
        if rec.direction is None:
            direction_counts["general"] += 1
        else:
            direction_counts[rec.direction.value] += 1

    manifest = MixManifest(
        counts=counts,
        direction_counts=direction_counts,
        seed=seed,
        ratio_spec=f"{ratios[0]}:{ratios[1]}:{ratios[2]}|{dirmix[0]}:{dirmix[1]}:{dirmix[2]}",
        total=len(records),
        scaled_down=scaled,
    )
    return records, manifest


@dataclass(frozen=True)
class DatasetStats:
    total: int
    by_provenance: dict[str, int]
    by_direction: dict[str, int]
    by_record_type: dict[str, int]
    level_histogram: dict[int, int] = field(default_factory=dict)


def stats(dataset_path: str | Path) -> DatasetStats:
    """Counts by provenance, direction, record type, and a level histogram."""
    pairs = read_pairs(dataset_path)
    # Plain dicts: ``asdict`` would rebuild a ``Counter`` by counting its items.
    return DatasetStats(
        total=len(pairs),
        by_provenance=dict(Counter(p.provenance.value for p in pairs)),
        by_direction=dict(Counter(p.direction.value if p.direction else "general" for p in pairs)),
        by_record_type=dict(Counter(p.record_type for p in pairs)),
        level_histogram=dict(Counter(p.level for p in pairs if p.level is not None)),
    )


def stats_to_json(s: DatasetStats) -> str:
    histogram = {str(level): n for level, n in s.level_histogram.items()}
    return json.dumps({**asdict(s), "level_histogram": histogram}, sort_keys=True)


def stats_table(s: DatasetStats) -> str:
    lines = [f"{'total records':<24} {s.total:>8}", ""]
    for title, table in (
        ("by provenance", s.by_provenance),
        ("by direction", s.by_direction),
        ("by record type", s.by_record_type),
    ):
        lines.append(title)
        for key in sorted(table):
            lines.append(f"  {key:<22} {table[key]:>8}")
        lines.append("")
    if s.level_histogram:
        lines.append("by level")
        for level in sorted(s.level_histogram):
            lines.append(f"  {level:<22} {s.level_histogram[level]:>8}")
    return "\n".join(lines).rstrip() + "\n"
