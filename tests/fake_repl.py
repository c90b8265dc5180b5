"""Stand-in proof-checker REPL for driver tests.

Speaks the line-delimited JSON protocol: accepts sources containing the
token OK, rejects everything else with a diagnostic, stalls on SLEEP, emits
garbage on GARBAGE and a line that is not UTF-8 on NOT_UTF8, and exits
without answering on EXIT.  A source holding one of the tokens of
``MALFORMED`` gets that reply, which breaks the protocol's shape.  With
``--log PATH`` it first appends each source it receives to PATH, one JSON
string per line, so a test can see every check that reached a process.
"""

import json
import sys
import time

# Replies of the wrong shape, by the token that asks for one; each is built
# from the request's id, so only its shape is at fault.
MALFORMED = {
    "REPLY_LIST": lambda req_id: [req_id, True],
    "REPLY_OK_STRING": lambda req_id: {"id": req_id, "ok": "no", "diagnostics": []},
    "REPLY_DIAGNOSTICS_STRING": lambda req_id: {"id": req_id, "ok": False, "diagnostics": "x"},
}

log_path = sys.argv[sys.argv.index("--log") + 1] if "--log" in sys.argv else None

for line in sys.stdin:
    if not line.strip():
        continue
    req = json.loads(line)
    source = req.get("source", "")
    if log_path is not None:
        with open(log_path, "a", encoding="utf-8") as log:
            log.write(json.dumps(source) + "\n")
    if "EXIT" in source:
        sys.exit(0)
    if "SLEEP" in source:
        time.sleep(5)
    if "GARBAGE" in source:
        sys.stdout.write("not json\n")
        sys.stdout.flush()
        continue
    if "NOT_UTF8" in source:
        sys.stdout.buffer.write(b"\xff\n")
        sys.stdout.buffer.flush()
        continue
    ok = "OK" in source
    resp = {
        "id": req["id"],
        "ok": ok,
        "diagnostics": [] if ok else ["error: unexpected token"],
    }
    for token, reply in MALFORMED.items():
        if token in source:
            resp = reply(req["id"])
    sys.stdout.write(json.dumps(resp) + "\n")
    sys.stdout.flush()
