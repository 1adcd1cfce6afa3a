"""The tracer sees every call cProfile sees, and its counts repeat.

One intertwine case and one constraint case run in fresh interpreters,
once under cProfile and twice under the tracer.  A function reached
through a by-name import that the tracer failed to rebind would show
fewer traced calls than profiled ones.
"""

import json
import os
import subprocess
import sys

from conftest import HERE, SRC

PROBE = r'''
import cProfile, json, os, sys
import worker, tracer
mode = sys.argv[1]
bases, _ = worker.setup("intertwine")
cases = [worker.intertwine_cases(bases, 4)[0],
         worker.constraint_cases(None, 4)[1]]
if mode == "profile":
    prof = cProfile.Profile()
    prof.enable()
    outs = [run() for _, run, _ in cases]
    prof.disable()
    prof.create_stats()
    counts = {}
    for (path, _, func), st in prof.stats.items():
        key = "%s.%s" % (os.path.basename(path)[:-3], func)
        counts[key] = counts.get(key, 0) + st[1]
    print(json.dumps({"counts": counts}))
else:
    tr = tracer.Tracer().install()
    import time
    t0 = time.perf_counter()
    outs = [run() for _, run, _ in cases]
    wall = time.perf_counter() - t0
    tr.uninstall()
    snap = tr.snapshot()
    print(json.dumps({"snap": snap, "wall": wall,
                      "layers": tracer.layer_metrics(snap)}))
assert [check(out) for (_, _, check), out in zip(cases, outs)] == [None] * 2
'''

# tracer key -> "module-file.function" as cProfile names it
NAMED = {"ckt.split": "ckt.split", "tractor.double_D": "tractor.double_D",
         "diffop.compose_raw": "diffop.compose_raw",
         "poly.Poly.diff": "poly.diff"}


def _probe(mode):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, HERE]))
    p = subprocess.run([sys.executable, "-c", PROBE, mode], env=env,
                       capture_output=True, text=True, timeout=300)
    assert p.returncode == 0, p.stderr
    return json.loads(p.stdout.strip().splitlines()[-1])


def test_tracer_counts_match_cprofile():
    prof = _probe("profile")["counts"]
    first, second = _probe("trace"), _probe("trace")
    stats = first["snap"]["stats"]
    for key, pkey in NAMED.items():
        assert stats[key][0] == prof[pkey] > 0, key
    # counts and sizes repeat exactly; self times account for the wall
    assert {k: v[0] for k, v in stats.items()} == {
        k: v[0] for k, v in second["snap"]["stats"].items()}
    assert first["snap"]["sizes"] == second["snap"]["sizes"]
    layers = first["layers"]
    assert layers["ckt.split_calls"] == 1      # constraint runs no split
    assert layers["tractor.double_D_calls"] > 0
    total = sum(v[1] for v in stats.values())
    assert 0 < first["wall"] - total < 0.05 * first["wall"]
