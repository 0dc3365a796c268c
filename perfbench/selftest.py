#!/usr/bin/env python3
"""Self-tests of the benchmark itself (run: python3 perfbench/run.py --selftest).

1. A clean zoo-sweep run passes; the same run with one expectation
   flipped reports the mismatch, counts it as failed and exits 1.
2. table2 stopped by SIGTERM mid-job exits 2 promptly without a result.
3. A traced table2 run (the one that drives the daemon) with an injected
   failure, and one stopped by SIGTERM while the daemon runs, both exit 2
   without a result and leave no daemon or worker process behind.
"""

import json
import os
import re
import signal
import subprocess
import sys
import time


def bench(main, cli, out, *extra, seconds="1", trace="0"):
    return [main, "--workload", extra[0], "--seed", "1", "--seconds", seconds, "--trace", trace,
            "--cli", cli, "--out", out, *extra[1:]]


def result(stdout):
    lines = stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None


def cmdline(pid):
    try:
        with open(f"/proc/{pid}/cmdline", "rb") as f:
            return f.read().replace(b"\0", b" ").decode(errors="replace")
    except OSError:
        return None


def running(pid):
    try:
        with open(f"/proc/{pid}/stat") as f:
            return f.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


def leftovers(stderr):
    """Daemon and worker pids the run reported that still run, plus any
    process still using one of its state directories."""
    pids, states = set(), set()
    for m in re.finditer(r"daemon pid (\d+) workers \[([\d,]*)\] state (\S+)", stderr):
        pids.add(int(m.group(1)))
        pids.update(int(w) for w in m.group(2).split(",") if w)
        states.add(m.group(3))
    if not pids:
        return ["no daemon was reported"]
    left = [f"pid {p}" for p in sorted(pids) if running(p)]
    for p in os.listdir("/proc"):
        if p.isdigit() and running(int(p)):
            c = cmdline(p) or ""
            if "serve" in c and any(s in c for s in states):
                left.append(f"pid {p}: {c}")
    left += [f"state dir {s} remains" for s in states if os.path.exists(s)]
    return left


def main(main_exe, cli, out):
    failures = []

    def expect(cond, what):
        print(("ok   " if cond else "FAIL ") + what, flush=True)
        if not cond:
            failures.append(what)

    clean = subprocess.run(bench(main_exe, cli, out, "zoo-sweep"), capture_output=True, text=True)
    r = result(clean.stdout)
    expect(clean.returncode == 0 and r and r["correct"] and r["failed"] == 0,
           "zoo-sweep passes against the expected table")

    flipped = subprocess.run(bench(main_exe, cli, out, "zoo-sweep", "--flip", "bv/BV-Obl0"),
                             capture_output=True, text=True)
    r = result(flipped.stdout)
    expect(flipped.returncode == 1 and r and not r["correct"] and r["failed"] >= 1
           and "MISMATCH bv/BV-Obl0" in flipped.stdout,
           "a flipped expectation is reported, counted as failed and exits 1")

    injected = subprocess.run(bench(main_exe, cli, out, "table2", "--inject-failure", trace="1"),
                              capture_output=True, text=True)
    expect(injected.returncode == 2 and result(injected.stdout) is None,
           "traced table2 with an injected failure exits 2 without a result")
    left = leftovers(injected.stderr)
    expect(not left, "no process left behind after the injected failure " + "; ".join(left))

    proc = subprocess.Popen(bench(main_exe, cli, out, "table2", seconds="60"),
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    time.sleep(2.0)
    t0 = time.monotonic()
    proc.send_signal(signal.SIGTERM)
    stdout, _ = proc.communicate(timeout=120)
    expect(proc.returncode == 2 and result(stdout) is None and time.monotonic() - t0 < 10,
           "table2 stopped by SIGTERM mid-job exits 2 promptly without a result")

    proc = subprocess.Popen(bench(main_exe, cli, out, "table2", trace="1"),
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    # The daemon is spawned after the passes: stop the run while it works.
    err = []
    while not err or ("daemon pid" not in err[-1] and err[-1]):
        err.append(proc.stderr.readline())
    time.sleep(1.0)
    proc.send_signal(signal.SIGTERM)
    stdout, rest = proc.communicate(timeout=120)
    stderr = "".join(err) + rest
    expect(proc.returncode == 2 and result(stdout) is None,
           "traced table2 stopped by SIGTERM while the daemon runs exits 2 without a result")
    left = leftovers(stderr)
    expect(not left, "no process left behind after SIGTERM " + "; ".join(left))

    print("selftest: " + ("passed" if not failures else f"{len(failures)} failed"))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:4]))
