#!/usr/bin/env python3
"""Build and run the wall-clock benchmark (see README.md).

    python3 perfbench/run.py --workload ycsb_a --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --selftest

Run from the root of a source checkout. It builds perfbench.exe with dune,
then runs it with the same arguments; the last line of output is the
result as one JSON object. Outside a checkout it fails without a result.

--selftest checks determinism, each run in a fresh process: two same-seed
runs of every workload give the same alloc_words_per_op, peak_heap_mb,
op stream and per-layer counts, and another seed gives another op stream.
It also restarts the workers without telling the coordinator's connection
pools (--restart unnotified) and expects every check to hold.
"""

import json
import os
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "perfbench.exe")
TIMEOUT_S = 170
WORKLOADS = ["ycsb_a", "tpcc", "analytics"]
TIMING_UNITS = {"us", "s", "%"}


def build():
    env = dict(os.environ, DUNE_CACHE="disabled")
    out = subprocess.run(
        ["dune", "build", "--root", ".", "./perfbench/perfbench.exe"],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    if out.returncode != 0:
        sys.stderr.write(out.stdout)
        sys.stderr.write("perfbench: build failed\n")
    return out.returncode


def run_once(workload, seed, trace, restart="notified"):
    """One zero-second run (the counted prefix only): its JSON result and
    its op-stream digest."""
    out = subprocess.run(
        [EXE, "--workload", workload, "--seed", str(seed), "--seconds", "0",
         "--trace", str(trace), "--restart", restart],
        stdout=subprocess.PIPE,
        text=True,
        timeout=TIMEOUT_S,
    ).stdout.splitlines()
    digest = [l.split()[1] for l in out if l.startswith("op_stream_digest ")]
    return json.loads(out[-1]), (digest[0] if digest else None)


def selftest():
    ok = True

    def expect(what, cond):
        nonlocal ok
        print("selftest %-4s %s" % ("ok" if cond else "FAIL", what), flush=True)
        ok = ok and cond

    for w in WORKLOADS:
        (a, da), (b, db), (_, dc) = [run_once(w, s, 0) for s in (1, 1, 2)]
        for m in ("alloc_words_per_op", "peak_heap_mb"):
            va, vb = a["metrics"][m]["value"], b["metrics"][m]["value"]
            expect("%s: same seed, same %s (%r)" % (w, m, va), va == vb)
        expect("%s: same seed, same op stream" % w, da is not None and da == db)
        expect("%s: another seed, another op stream" % w, da != dc)
        (t1, _), (t2, _) = [run_once(w, 1, 1) for _ in range(2)]
        diff = [
            (k, v["value"], t2["metrics"][k]["value"])
            for k, v in t1["metrics"].items()
            if v["unit"] not in TIMING_UNITS and v["value"] != t2["metrics"][k]["value"]
        ]
        for k, x, y in diff:
            print("selftest   %s: %r vs %r" % (k, x, y))
        expect("%s: same seed, identical per-layer counts" % w, not diff)
        expect("%s: every run correct" % w, all(r["correct"] for r in (a, b, t1, t2)))
        # The workers restart without the coordinator's pools hearing of
        # it: its session must still read back every acknowledged write.
        (u, _) = run_once(w, 1, 0, restart="unnotified")
        expect("%s: correct after a restart the pools were not told of" % w, u["correct"])
    return 0 if ok else 1


def main():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        sys.stderr.write("perfbench: run from the root of a source checkout\n")
        return 2
    rc = build()
    if rc != 0:
        return rc
    if sys.argv[1:] == ["--selftest"]:
        return selftest()
    try:
        return subprocess.run([EXE] + sys.argv[1:], timeout=TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: run exceeded %d s\n" % TIMEOUT_S)
        return 3


if __name__ == "__main__":
    sys.exit(main())
