"""Stand-in proof-checker REPL for driver tests.

Speaks the line-delimited JSON protocol: accepts sources containing the
token OK, rejects everything else with a diagnostic, stalls on SLEEP, and
emits garbage on GARBAGE.  With ``--log PATH`` it first appends each source
it receives to PATH, one JSON string per line, so a test can see every
check that reached a process.
"""

import json
import sys
import time

log_path = sys.argv[sys.argv.index("--log") + 1] if "--log" in sys.argv else None

for line in sys.stdin:
    if not line.strip():
        continue
    req = json.loads(line)
    source = req.get("source", "")
    if log_path is not None:
        with open(log_path, "a", encoding="utf-8") as log:
            log.write(json.dumps(source) + "\n")
    if "SLEEP" in source:
        time.sleep(5)
    if "GARBAGE" in source:
        sys.stdout.write("not json\n")
        sys.stdout.flush()
        continue
    ok = "OK" in source
    resp = {
        "id": req["id"],
        "ok": ok,
        "diagnostics": [] if ok else ["error: unexpected token"],
    }
    sys.stdout.write(json.dumps(resp) + "\n")
    sys.stdout.flush()
