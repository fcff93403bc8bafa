#!/usr/bin/env python3
"""End-to-end smoke test of the tce_serve planning daemon over stdio.

Starts the daemon (path passed as argv[1], default the dune build
output), drives ~20 JSON-lines requests through every response class --
ok (cold and cache-hit), parse_error, invalid_request, worker_crashed,
overloaded, deadline_exceeded -- and finishes with a drain, checking the
process exits cleanly. Then checks that out-of-range and unknown flags
are usage errors (exit 124) that name the flag. Exits nonzero if any
check failed.
"""

import json
import subprocess
import sys
import threading
import time

BIN = sys.argv[1] if len(sys.argv) > 1 else "_build/default/bin/tce_serve.exe"

MATMUL = "extents a=%d, b=16, c=16\nC[a,c] = sum[b] A[a,b] * B[b,c]\n"
CCSD = (
    "extents a=480, b=480, c=480, d=480, e=64, f=64, i=32, j=32, k=32, l=32\n"
    "T1[b,c,d,f] = sum[e,l] B[b,e,f,l] * D[c,d,e,l]\n"
    "T2[b,c,j,k] = sum[d,f] T1[b,c,d,f] * C[d,f,j,k]\n"
    "S[a,b,i,j]  = sum[c,k] T2[b,c,j,k] * A[a,c,i,k]\n"
)

failures = []


def check(cond, what):
    if cond:
        print(f"ok: {what}")
    else:
        failures.append(what)
        print(f"FAIL: {what}")


proc = subprocess.Popen(
    [BIN, "--workers", "1", "--queue-cap", "1", "--degrade", "never",
     "--debug-ops"],
    stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, bufsize=1,
)

responses = {}  # id -> parsed response
unidentified = []  # responses with null id (parse errors)
resp_lock = threading.Lock()
resp_ready = threading.Condition(resp_lock)


def reader():
    for line in proc.stdout:
        line = line.strip()
        if not line:
            continue
        r = json.loads(line)
        with resp_ready:
            if r.get("id") is None:
                unidentified.append(r)
            else:
                responses[r["id"]] = r
            resp_ready.notify_all()


threading.Thread(target=reader, daemon=True).start()
sent = 0


def send(obj):
    global sent
    proc.stdin.write(json.dumps(obj) + "\n")
    proc.stdin.flush()
    sent += 1


def send_raw(text):
    global sent
    proc.stdin.write(text + "\n")
    proc.stdin.flush()
    sent += 1


def wait_for(rid, timeout=120):
    with resp_ready:
        deadline = time.time() + timeout
        while rid not in responses:
            left = deadline - time.time()
            if left <= 0:
                failures.append(f"timeout waiting for id {rid!r}")
                return {}
            resp_ready.wait(left)
        return responses[rid]


def wait_unidentified(n, timeout=30):
    with resp_ready:
        deadline = time.time() + timeout
        while len(unidentified) < n:
            left = deadline - time.time()
            if left <= 0:
                failures.append("timeout waiting for null-id response")
                return {}
            resp_ready.wait(left)
        return unidentified[n - 1]


# 1. health
send({"id": "health-1", "op": "health"})
r = wait_for("health-1")
check(r.get("status") == "ok" and r.get("healthy") is True, "health answers")

# 2-7. six cold optimizes (distinct extents -> distinct cache keys),
# sent serially: the daemon runs with --queue-cap 1, so a burst would
# (correctly) trip admission control -- that path is exercised below.
for k in range(6):
    send({"id": f"cold-{k}", "op": "optimize", "expr": MATMUL % (8 + k),
          "procs": 4})
    r = wait_for(f"cold-{k}")
    check(r.get("status") == "ok" and r.get("cached") is False,
          f"cold-{k} optimized uncached")

# 8. cache hit, byte-identical plan
send({"id": "hit-1", "op": "optimize", "expr": MATMUL % 8, "procs": 4})
r = wait_for("hit-1")
check(r.get("status") == "ok" and r.get("cached") is True, "cache hit")
check(r.get("plan") == responses["cold-0"].get("plan"),
      "cache-hit plan byte-identical to the cold search")

# 9-10. simulate and validate views
send({"id": "sim-1", "op": "simulate", "expr": MATMUL % 8, "procs": 4})
r = wait_for("sim-1")
check(r.get("status") == "ok" and "simulated" in r, "simulate view")
send({"id": "val-1", "op": "validate", "expr": MATMUL % 8, "procs": 4})
r = wait_for("val-1")
check(r.get("status") == "ok" and r.get("valid") is True, "validate view")

# 11. malformed line -> typed parse_error with null id
send_raw("this is not json")
r = wait_unidentified(1)
check(r.get("status") == "error"
      and r.get("error", {}).get("kind") == "parse_error",
      "garbage line gets typed parse_error")

# 12-13. invalid requests
send({"id": "bad-op", "op": "frobnicate"})
r = wait_for("bad-op")
check(r.get("error", {}).get("kind") == "invalid_request",
      "unknown op typed invalid_request")
send({"id": "bad-grid", "op": "optimize", "expr": MATMUL % 8, "procs": 3})
r = wait_for("bad-grid")
check(r.get("error", {}).get("kind") == "invalid_request",
      "non-square grid typed invalid_request")

# 14. injected worker crash -> typed error, daemon survives
send({"id": "boom", "op": "debug_crash"})
r = wait_for("boom")
check(r.get("error", {}).get("kind") == "worker_crashed",
      "injected crash typed worker_crashed")
send({"id": "health-2", "op": "health"})
r = wait_for("health-2")
check(r.get("status") == "ok" and r.get("healthy") is True,
      "daemon healthy after worker crash")

# 15-17. forced overload: pin the single worker, fill the queue of 1,
# next request must be rejected with a Retry-After hint.
send({"id": "pin", "op": "debug_sleep", "ms": 700})
time.sleep(0.25)  # worker picks the pin up
send({"id": "fill", "op": "debug_sleep", "ms": 1})
time.sleep(0.15)  # fill sits in the queue
send({"id": "reject-me", "op": "optimize", "expr": MATMUL % 8, "procs": 4})
r = wait_for("reject-me")
check(r.get("status") == "overloaded", "saturated queue answers overloaded")
check(r.get("retry_after_ms", 0) > 0, "overloaded carries a retry hint")
wait_for("pin")
wait_for("fill")

# 18. forced deadline_exceeded: paper-scale search on a 1 ms budget
send({"id": "late", "op": "optimize", "expr": CCSD, "procs": 64,
      "deadline_ms": 1})
r = wait_for("late")
check(r.get("status") == "deadline_exceeded",
      "1 ms budget on paper CCSD answers deadline_exceeded")

# 19. stats exposes queue/cache/latency
send({"id": "stats-1", "op": "stats"})
r = wait_for("stats-1")
check(r.get("status") == "ok" and "cache" in r and "latency" in r
      and r["cache"].get("hits", 0) >= 1, "stats exposes cache and latency")

# 20. drain: ok + clean process exit
send({"id": "bye", "op": "drain"})
r = wait_for("bye")
check(r.get("status") == "ok" and r.get("drained") is True, "drain acks")
proc.stdin.close()
rc = proc.wait(timeout=60)
check(rc == 0, f"clean exit after drain (rc={rc})")

# 21-24. bad flags: a usage error naming the flag, never an uncaught
# exception (exit 125); --search-jobs no longer exists.
for flags, needle in [(["--workers", "0"], "option '--workers'"),
                      (["--queue-cap", "0"], "option '--queue-cap'"),
                      (["--cache-cap=-1"], "option '--cache-cap'"),
                      (["--search-jobs", "2"],
                       "unknown option '--search-jobs'")]:
    bad = subprocess.run([BIN, *flags], input="", capture_output=True,
                         text=True, timeout=30)
    check(bad.returncode == 124 and needle in bad.stderr,
          f"{' '.join(flags)}: usage error \"{needle}\" "
          f"(rc={bad.returncode})")

print(f"\n{sent} requests sent, {len(failures)} failures")
if failures:
    for f in failures:
        print(f"  - {f}", file=sys.stderr)
    sys.exit(1)
