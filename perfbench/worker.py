"""One child process of the benchmark: a set-up sample, a round, or a command.

    worker.py setup WORKLOAD
    worker.py round WORKLOAD SEED TRACE
    worker.py cli TRACE ARG...

Each mode prints one JSON object as its last line of standard output.
A round builds the workload's inputs from SEED, times every case around
the package's public function (traced from outside when TRACE is 1),
and afterwards checks every output against the reference computations
in checks.py.  ``cli`` runs ``tractor_symm.cli.main`` on ARG..., as the
``tractor-symm`` command does.  The package is imported from PYTHONPATH.
"""

import contextlib
import io
import json
import random
import resource
import sys
import time
from fractions import Fraction

import checks
import tracer

SIGNATURES = ((3, 0), (2, 1))
INTERTWINE_K = 3
# Combinations per signature and label.  With these counts the median
# case is a warm (0,1) verification, in the middle of the largest
# cluster of case times, not on the edge between two clusters.
INTERTWINE_COMBOS = {(1, 0): 2, (0, 1): 4}
DEC2CAN_WEIGHTS = (Fraction(-1, 2), Fraction(0), Fraction(2))
# The r = 1 cases take under a second each, so each runs on three seeds:
# the median case is then one of six samples of similar cost, not one
# sub-second measurement.
CONSTRAINT_CASES = [(k, p, r) for k in (2, 3) for r in range(1, k)
                    for p in range(3) for _ in range(3 if r == 1 else 1)]


# ----------------------------------------------------------------------
# set-up: import plus the bases the inputs are drawn from
# ----------------------------------------------------------------------

def setup(workload):
    """Import the package and solve the bases; returns (bases, seconds)."""
    t0 = time.perf_counter()
    if workload == "oneshot":
        import tractor_symm.cli  # noqa: F401  every command pays this
        return None, time.perf_counter() - t0
    from tractor_symm import ckt
    from tractor_symm.tensor import Metric
    import tractor_symm.canon  # noqa: F401
    import tractor_symm.algebra  # noqa: F401
    if workload == "intertwine":
        wanted = [(sig, lab) for sig in SIGNATURES for lab in ((1, 0), (0, 1))]
    elif workload == "dec2can":
        wanted = [((3, 0), (1, 0))]
    else:
        wanted = []
    bases = {(sig, lab): list(ckt.solve(Metric(*sig), ckt.CKTLabel(*lab)))
             for sig, lab in wanted}
    return bases, time.perf_counter() - t0


def combination(basis, rng):
    """A seeded combination of every basis solution, all coefficients nonzero.

    Using every solution keeps the polynomial degrees, and so the cost of
    a case, the same for every seed; only the coefficients change.
    """
    out = None
    for phi in basis:
        t = phi.scale(rng.choice((-3, -2, -1, 1, 2, 3)))
        out = t if out is None else out + t
    return out


# ----------------------------------------------------------------------
# workloads: a list of (name, thunk, check) per round
# ----------------------------------------------------------------------

def intertwine_cases(bases, seed):
    from tractor_symm import canon
    from tractor_symm.poly import Poly
    rng = random.Random(seed)
    k = INTERTWINE_K
    cases = []
    for sig in SIGNATURES:
        eps = [1] * sig[0] + [-1] * sig[1]
        n = len(eps)
        for label, count in INTERTWINE_COMBOS.items():
            for j in range(count):
                phi = combination(bases[sig, label], rng)
                test = checks.random_poly(n, 2 * k + 1, rng)

                def run(phi=phi, label=label):
                    return canon.verify_symmetry(phi, label, k)

                def check(rep, phi=phi, label=label, eps=eps, n=n,
                          test=test):
                    if not rep.verdict:
                        return "verify_symmetry verdict is fail"

                    def op(S):
                        return lambda f: checks.terms(S(Poly(n, f)))
                    S, Sp = op(rep.S_std), op(rep.Sp_std)
                    err = checks.check_intertwining(S, Sp, eps, k, [test])
                    if err is None and label == (1, 0):
                        V = [{e: c * eps[a] for e, c in
                              checks.terms(phi.get((a,))).items()}
                             for a in range(n)]
                        err = (checks.check_first_order(S, V, rep.w_in,
                                                        [test])
                               or checks.check_first_order(Sp, V, rep.w_out,
                                                           [test]))
                    return err

                cases.append(("%s%s#%d" % (sig, label, j), run, check))
    return cases


def dec2can_cases(bases, seed):
    from tractor_symm import algebra
    rng = random.Random(seed)
    basis = bases[(3, 0), (1, 0)]
    cases = []
    for w in DEC2CAN_WEIGHTS:
        phi, phib = combination(basis, rng), combination(basis, rng)

        def run(phi=phi, phib=phib, w=w):
            return algebra.verify_dec2can(phi, phib, w, max_degree=3)

        def check(rep):
            bad = sorted(key for key, ok in rep.items() if not ok)
            return "dec2can parts fail: %s" % bad if bad else None

        cases.append(("w=%s" % w, run, check))
    return cases


def constraint_cases(bases, seed):
    from tractor_symm import canon
    cases = []
    for i, (k, p, r) in enumerate(CONSTRAINT_CASES):
        def run(k=k, p=p, r=r, s=seed * len(CONSTRAINT_CASES) + i):
            return canon.extract_constraint_matrix(k, p, r, seed=s)

        def check(M, k=k, r=r):
            return checks.check_constraint_matrix(M.rows, k, r)

        cases.append(("k=%d p=%d r=%d #%d" % (k, p, r, i), run, check))
    return cases


CASES = {"intertwine": intertwine_cases, "dec2can": dec2can_cases,
         "constraint": constraint_cases}


def run_round(workload, seed, trace):
    bases, setup_s = setup(workload)
    cases = CASES[workload](bases, seed)
    tr = tracer.Tracer().install() if trace else None
    results = []
    try:
        for name, run, _ in cases:
            t0 = time.perf_counter()
            try:
                out, err = run(), None
            except Exception as e:  # a failed operation, reported below
                out, err = None, "%s: %s" % (type(e).__name__, e)
            results.append((name, time.perf_counter() - t0, out, err))
    finally:
        if tr is not None:
            tr.uninstall()
    doc = {"setup_s": setup_s, "cases": [], "rss_mb": _rss_mb()}
    for (name, secs, out, err), (_, _, check) in zip(results, cases):
        entry = {"name": name, "s": secs}
        if err is not None:
            entry["failed"] = err
        else:
            wrong = check(out)
            if wrong:
                entry["wrong"] = wrong
        doc["cases"].append(entry)
    if tr is not None:
        doc["trace"] = tr.snapshot()
    return doc


def run_cli(argv, trace):
    from tractor_symm import cli
    tr = tracer.Tracer().install() if trace else None
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            try:
                code = cli.main(argv)
            except SystemExit as e:
                code = e.code
            except Exception as e:  # a failed command, counted by run.py
                code = "%s: %s" % (type(e).__name__, e)
    finally:
        if tr is not None:
            tr.uninstall()
    doc = {"exit": code, "stdout": buf.getvalue(), "rss_mb": _rss_mb()}
    if tr is not None:
        doc["trace"] = tr.snapshot()
    return doc


def _rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def environment():
    from tractor_symm.scalars import Q
    return {"python": sys.version.split()[0],
            "q_backend": "%s.%s" % (Q.__module__, Q.__name__)}


def main(argv):
    mode = argv[0]
    if mode == "setup":
        _, secs = setup(argv[1])
        doc = {"setup_s": secs, "env": environment()}
    elif mode == "round":
        doc = run_round(argv[1], int(argv[2]), argv[3] == "1")
    elif mode == "cli":
        doc = run_cli(argv[2:], argv[1] == "1")
    else:
        raise SystemExit("unknown mode %r" % mode)
    sys.stdout.write(json.dumps(doc) + "\n")


if __name__ == "__main__":
    main(sys.argv[1:])
