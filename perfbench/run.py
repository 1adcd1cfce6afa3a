"""Benchmark of tractor-symm: four workloads, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source tree.  The package is imported from
``src/`` of that tree, never from an installed copy.  A run first takes
SETUP_SAMPLES set-up samples, each in a fresh interpreter, then repeats
rounds, each in a fresh interpreter, while the next round is expected to
end within S seconds (at least one round always runs).  A round is the
workload's fixed list of cases made from the seed, so the lru caches
fill inside every round, as they do for every command-line user.

With ``--trace 0`` the last line of output is the end-to-end result.
With ``--trace 1`` rounds alternate between untraced and traced, and
the last line holds the per-layer metrics of the traced round with the
median wall time.  Every run also writes its rounds, the environment and,
when traced, every wrapped function's counts to perfbench/results/.
"""

import argparse
import compileall
import json
import os
import random
import statistics
import subprocess
import sys
import time

import checks
import tracer

WORKLOADS = ("intertwine", "dec2can", "constraint", "oneshot")
SETUP_SAMPLES = 15
CHILD_TIMEOUT = 150

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKER = os.path.join(HERE, "worker.py")
RESULTS = os.path.join(HERE, "results")


class BenchError(Exception):
    """The benchmark itself could not run (not a program failure)."""


def child(args):
    """Run one child interpreter; returns (parsed last line, wall seconds)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    t0 = time.perf_counter()
    try:
        p = subprocess.run([sys.executable, WORKER] + args, env=env,
                           cwd=ROOT, capture_output=True, text=True,
                           timeout=CHILD_TIMEOUT)
    except subprocess.TimeoutExpired:
        raise BenchError("child %s timed out" % args)
    wall = time.perf_counter() - t0
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        raise BenchError("child %s exited %d: %s" % (
            args, p.returncode, p.stderr.strip()[-2000:]))
    return json.loads(lines[-1]), wall


# ----------------------------------------------------------------------
# oneshot: README commands, each a fresh interpreter
# ----------------------------------------------------------------------

def oneshot_commands(seed):
    """The fixed command list; --index and --seed come from the seed.

    Index 0 of the (0,1) basis is the constant solution, whose command
    costs a third less than every other index, so indices are drawn
    from 1..13 to keep a round's cost the same for every seed.  The
    (2,0) verify runs twice, so the median command is the middle of
    four samples over two rounds, not a single one.
    """
    rng = random.Random(seed)
    return [
        ["ckt", "dim", "--n", "5", "--p", "1", "--r", "1"],
        ["symmetry", "verify", "--k", "3", "--p", "0", "--r", "1",
         "--index", str(rng.randrange(1, 14))],
        ["symmetry", "verify", "--k", "3", "--p", "0", "--r", "1",
         "--signature", "2,1", "--index", str(rng.randrange(1, 14))],
        ["symmetry", "verify", "--n", "3", "--k", "2", "--p", "2", "--r",
         "0", "--index", str(rng.randrange(35))],
        ["symmetry", "verify", "--n", "3", "--k", "2", "--p", "2", "--r",
         "0", "--index", str(rng.randrange(35))],
        ["classify", "--n", "3", "--k", "2", "--seed",
         str(rng.randrange(1000))],
        ["report", "--k", "2"],
        ["cmatrix", "chain", "--k", "6"],
    ]


def check_command(argv, doc):
    """Exit 0, verdict pass and the command's reference values."""
    if doc.get("verdict") != "pass":
        return "verdict is %r" % doc.get("verdict")
    res = doc["result"]
    cmd = argv[0]
    if cmd == "ckt":
        if res["solved"] != res["dim"]:
            return "solved %s of %s" % (res["solved"], res["dim"])
        return checks.check_dimension(5, 1, 1, res["dim"])
    if cmd == "symmetry":
        bad = [e for e in res if e["verdict"] != "pass"]
        return "failing entries %s" % bad if bad or not res else None
    if cmd == "classify":
        labels = sorted(tuple(p["label"]) for p in res["pieces"])
        if not res["round_trip"] or labels != [(0, 1), (1, 0)]:
            return "classify round trip %s with pieces %s" % (
                res["round_trip"], labels)
        return None
    if cmd == "report":
        for key, got in res["dims"].items():
            p, r = (int(x) for x in key.strip("()").split(","))
            err = checks.check_dimension(3, p, r, got)
            if err:
                return err
        bad = sorted(k for k, ok in res["checks"].items() if not ok)
        return "report checks fail: %s" % bad if bad else None
    if cmd == "cmatrix":
        k = int(argv[argv.index("--k") + 1])
        if [row["d"] for row in res] != list(range(k)):
            return "cmatrix chain rows %s" % [row["d"] for row in res]
        for row in res:
            err = checks.check_chain_row(k, row)
            if err:
                return err
        return None
    return "no check for command %s" % cmd


def oneshot_round(seed, trace):
    doc = {"cases": [], "rss_mb": 0.0}
    traces = []
    for argv in oneshot_commands(seed):
        argv = argv + ["--format", "json"]
        out, wall = child(["cli", "1" if trace else "0"] + argv)
        entry = {"name": " ".join(argv), "s": wall}
        if out["exit"] == 2:    # the command's own verification failed
            entry["wrong"] = "exit 2: %s" % out["stdout"][-500:]
        elif out["exit"] != 0:
            entry["failed"] = "exit %s" % out["exit"]
        else:
            try:
                wrong = check_command(argv, json.loads(out["stdout"]))
            except (ValueError, KeyError, TypeError) as e:
                wrong = "unreadable output: %s" % e
            if wrong:
                entry["wrong"] = wrong
        doc["cases"].append(entry)
        doc["rss_mb"] = max(doc["rss_mb"], out["rss_mb"])
        if trace:
            traces.append(out["trace"])
    if trace:
        doc["trace"] = tracer.merge(traces)
    return doc


def run_round(workload, seed, trace):
    if workload == "oneshot":
        return oneshot_round(seed, trace)
    doc, _ = child(["round", workload, str(seed), "1" if trace else "0"])
    return doc


# ----------------------------------------------------------------------

def git_commit():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        p = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                           capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return p.stdout.strip() if p.returncode == 0 else None


def measure(workload, seed, seconds, trace):
    compileall.compile_dir(SRC, quiet=1)
    setups = [child(["setup", workload])[0] for _ in range(SETUP_SAMPLES)]
    env = dict(setups[0]["env"], nproc=os.cpu_count(), commit=git_commit())
    rounds = []
    start = time.perf_counter()
    longest = 0.0
    while True:
        t0 = time.perf_counter()
        traced = trace and len(rounds) % 2 == 1
        r = run_round(workload, seed, traced)
        r["traced"] = traced
        r["wall_s"] = sum(c["s"] for c in r["cases"])
        rounds.append(r)
        longest = max(longest, time.perf_counter() - t0)
        if trace and len(rounds) < 2:
            continue
        if time.perf_counter() - start + longest > seconds:
            break
    cases = [c for r in rounds for c in r["cases"]]
    failed = [c for c in cases if "failed" in c]
    wrong = [c for c in cases if "wrong" in c]
    for c in failed + wrong:
        sys.stderr.write("%s: %s\n" % (c["name"], c.get("failed")
                                       or c.get("wrong")))
    result = {"correct": not wrong, "attempted": len(cases),
              "failed": len(failed)}
    if not trace:
        metrics = {
            "wall_s": (statistics.median(r["wall_s"] for r in rounds), "s"),
            "case_p50_s": (statistics.median(c["s"] for c in cases), "s"),
            "setup_s": (statistics.median(s["setup_s"] for s in setups),
                        "s"),
            "peak_rss_mb": (statistics.median(r["rss_mb"] for r in rounds),
                            "MB"),
        }
    else:
        traced_rounds = sorted((r for r in rounds if r["traced"]),
                               key=lambda r: r["wall_s"])
        pick = traced_rounds[(len(traced_rounds) - 1) // 2]  # lower median
        layers = tracer.layer_metrics(pick["trace"])
        layers["trace.wall_s"] = pick["wall_s"]
        layers["bench.self_s"] = pick["wall_s"] - sum(
            layers[k] for k in tracer.LAYER_SELF)
        layers["trace.overhead_s"] = (
            statistics.median(r["wall_s"] for r in traced_rounds)
            - statistics.median(r["wall_s"] for r in rounds
                                if not r["traced"]))
        metrics = {k: (layers[k], u) for k, u in
                   tracer.LAYER_METRICS.items()}
    result["metrics"] = {k: {"value": v, "unit": u}
                         for k, (v, u) in metrics.items()}
    record = {"workload": workload, "seed": seed, "seconds": seconds,
              "trace": trace, "env": env,
              "setup_s": [s["setup_s"] for s in setups],
              "rounds": rounds, "result": result}
    os.makedirs(RESULTS, exist_ok=True)
    path = os.path.join(RESULTS, "%s-seed%d-trace%d.json" % (
        workload, seed, int(trace)))
    with open(path, "w") as f:
        json.dump(record, f, indent=1, sort_keys=True)
    return env, result


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(SRC, "tractor_symm", "cli.py")):
        sys.stderr.write("error: no package source at %s\n" % SRC)
        return 2
    try:
        env, result = measure(args.workload, args.seed, args.seconds,
                              bool(args.trace))
    except BenchError as e:
        sys.stderr.write("error: %s\n" % e)
        return 2
    print(json.dumps({"env": env}, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
