"""Proof-checker REPL stub speaking herald's line-JSON ``ReplBackend`` protocol.

Each check sleeps a fixed delay, then answers.  A candidate from the mock
translator carries its sample index (``mock_<12 hex>_<index>``); the stub
rejects even indices, so the rejected subset is deterministic and the same
size for every seed.  Sources without an index compile.

Run: ``python3 perfbench/repl_stub.py --delay-ms 5``
"""

from __future__ import annotations

import argparse
import json
import re
import sys
import time

_SAMPLE_RE = re.compile(r"mock_[0-9a-f]{12}_(\d+)")


def accepts(sample_index: int) -> bool:
    return sample_index % 2 == 1


def check(source: str) -> bool:
    m = _SAMPLE_RE.search(source)
    return m is None or accepts(int(m.group(1)))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--delay-ms", type=float, default=0.0)
    delay = parser.parse_args().delay_ms / 1000.0
    for line in sys.stdin:
        if not line.strip():
            continue
        req = json.loads(line)
        if delay:
            time.sleep(delay)
        ok = check(req.get("source", ""))
        resp = {"id": req["id"], "ok": ok, "diagnostics": [] if ok else ["error: stub rejects"]}
        sys.stdout.write(json.dumps(resp) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
