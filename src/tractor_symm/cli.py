"""Command-line interface: verification sweeps, bases, matrices, reports.

Exit codes: 0 all verdicts pass, 1 usage error, 2 verification failure,
3 resource cap exceeded.  JSON output is deterministic for a fixed
configuration (including the seed) and carries a schema version tag.
"""

import argparse
import json
import random
import sys

from .scalars import Q, qstr
from .tensor import Metric, random_tracefree, comps_to_json
from .diffop import StdOp
from .tractor import nabla
from . import ckt, canon, algebra
from .ckt import CKTLabel

SCHEMA = "tractor-symm/1"

EXIT_PASS = 0
EXIT_USAGE = 1
EXIT_VERIFY = 2
EXIT_RESOURCE = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        _usage(message)


def _usage(message):
    sys.stderr.write("error: %s\n" % message)
    sys.exit(EXIT_USAGE)


def _metric(args):
    if args.signature:
        try:
            s, sp = (int(x) for x in args.signature.split(","))
        except ValueError:
            _usage("--signature must be two integers S,S'")
        if s < 0 or sp < 0:
            _usage("--signature entries must be non-negative")
        if args.n is not None and s + sp != args.n:
            _usage("signature does not sum to n")
    else:
        s, sp = (args.n if args.n is not None else 3), 0
    if s + sp < 3:
        _usage("need n >= 3, got n = %d" % (s + sp))
    return Metric(s, sp)


def _k(args):
    if args.k is None:
        return 1
    if args.k < 1:
        _usage("need k >= 1, got k = %d" % args.k)
    return args.k


def _index(args):
    if args.index is not None and args.index < 0:
        _usage("need index >= 0, got index = %d" % args.index)
    return args.index or 0


def _label(args):
    if args.p < 0 or args.r < 0:
        _usage("need p >= 0 and r >= 0, got p = %d, r = %d"
               % (args.p, args.r))
    return CKTLabel(args.p, args.r)


def _config(args, metric):
    cfg = {"n": metric.n, "signature": list(metric.key())}
    for f in ("k", "p", "r", "d", "t", "seed", "index"):
        v = getattr(args, f, None)
        if v is not None:
            cfg[f] = v
    return cfg


def _emit(args, command, config, result, verdict=None):
    if args.format == "json":
        doc = {"schema": SCHEMA, "command": command, "config": config,
               "result": result}
        if verdict is not None:
            doc["verdict"] = "pass" if verdict else "fail"
        print(json.dumps(doc, sort_keys=True, separators=(",", ":")))
    else:
        _emit_text(command, config, result, verdict)
    if verdict is False:
        sys.exit(EXIT_VERIFY)


def _emit_text(command, config, result, verdict):
    cfgs = " ".join("%s=%s" % (k, v) for k, v in sorted(config.items()))
    print("%s  [%s]" % (command, cfgs))
    _print_value(result, indent="  ")
    if verdict is not None:
        print("verdict: %s" % ("pass" if verdict else "FAIL"))


def _print_value(v, indent=""):
    if isinstance(v, dict):
        for k in sorted(v):
            val = v[k]
            if isinstance(val, (dict, list)):
                print("%s%s:" % (indent, k))
                _print_value(val, indent + "  ")
            else:
                print("%s%s: %s" % (indent, k, val))
    elif isinstance(v, list):
        if v and all(isinstance(r, list) for r in v):
            for row in v:
                print(indent + "  ".join(str(x) for x in row))
        else:
            for x in v:
                _print_value(x, indent)
    else:
        print("%s%s" % (indent, v))


def _tractor_to_dict(t):
    return {"weight": qstr(t.weight), "slots": list(t.slots),
            "comps": comps_to_json(t.comps)}


# ----------------------------------------------------------------------
# subcommands
# ----------------------------------------------------------------------

def cmd_ckt(args):
    metric = _metric(args)
    label = _label(args)
    basis = ckt.solve(metric, label)
    dim = ckt.weyl_dim(metric.n, args.p, args.r)
    ok = len(basis) == dim
    if args.action == "dim":
        _emit(args, "ckt dim", _config(args, metric),
              {"dim": dim, "solved": len(basis)}, ok)
    else:
        basis = [comps_to_json(b.comps) for b in basis]
        _emit(args, "ckt basis", _config(args, metric),
              {"dim": dim, "basis": basis}, ok)


def cmd_split(args):
    metric = _metric(args)
    label = _label(args)
    basis = ckt.solve(metric, label)
    idxs = range(len(basis)) if args.all_basis else [_index(args)]
    out = []
    ok = True
    for i in idxs:
        I = ckt.split(basis[i], label)
        parallel = nabla(I).is_zero()
        back = ckt.extract(I, label) == basis[i]
        ok = ok and parallel and back
        out.append({"index": i, "parallel": parallel,
                    "projects_back": back,
                    "tractor": _tractor_to_dict(I)})
    _emit(args, "split", _config(args, metric), out, ok)


def cmd_symmetry(args):
    metric = _metric(args)
    k = _k(args)
    if args.action == "build":
        label = _label(args)
        basis = ckt.solve(metric, label)
        I = ckt.split(basis[_index(args)], label)
        w = Q(2 * k - metric.n, 2)
        S = canon.build_S(I, (args.p, args.r), w)
        _emit(args, "symmetry build", _config(args, metric),
              {"weight": qstr(w), "operator": S.to_dict()})
        return
    if args.action == "sweep":
        labels = [(1, 0)] + ([(0, 1)] if k >= 2 else [])
    else:
        labels = [_label(args)]
    results = []
    allok = True
    for (p, r) in labels:
        if r >= k:
            sys.stderr.write("error: r < k required for symmetry runs\n")
            sys.exit(EXIT_USAGE)
        basis = ckt.solve(metric, CKTLabel(p, r))
        idxs = (range(len(basis)) if (args.all_basis or
                                      args.action == "sweep")
                else [_index(args)])
        for i in idxs:
            rep = canon.verify_symmetry(basis[i], (p, r), k)
            entry = {"label": [p, r], "index": i,
                     "verdict": "pass" if rep.verdict else "fail",
                     "trivial": rep.trivial}
            if not rep.verdict:
                entry["residual"] = rep.residual.to_dict()
                allok = False
            results.append(entry)
    _emit(args, "symmetry " + args.action, _config(args, metric),
          results, allok)


def cmd_compose(args):
    metric = _metric(args)
    k = _k(args)
    label = _label(args)
    basis = ckt.solve(metric, label)
    i = _index(args)
    rep = canon.verify_symmetry(basis[i], (args.p, args.r), k)
    _emit(args, "compose", _config(args, metric),
          {"lhs": StdOp.laplacian_power(metric, k).compose(
              rep.S_std).to_dict(),
           "rhs_factor": rep.Sp_std.to_dict(),
           "intertwines": rep.verdict}, rep.verdict)


def cmd_decompose(args):
    metric = _metric(args)
    rng = random.Random(args.seed or 0)
    basis = ckt.solve(metric, CKTLabel(1, 0))
    i = rng.randrange(len(basis))
    j = rng.randrange(len(basis))
    dec = algebra.decompose(ckt.split(basis[i], CKTLabel(1, 0)),
                            ckt.split(basis[j], CKTLabel(1, 0)))
    rep = algebra.verify_dec2can(basis[i], basis[j], Q(0))
    _emit(args, "decompose", _config(args, metric),
          {"pair": [i, j], "killing": qstr(dec.killing_part),
           "residual_terms": len(dec.residual.comps),
           "dec2can": rep}, rep["all"])


def cmd_cmatrix(args):
    k = _k(args)
    if args.d is not None and not 0 <= args.d < k:
        _usage("need 0 <= d < k, got d = %d, k = %d" % (args.d, k))
    if args.action == "det":
        ds = range(k) if args.d is None else [args.d]
        rows = []
        ok = True
        for d in ds:
            dv = canon.c_matrix(k, d).det()
            ok = ok and dv != 0
            rows.append({"d": d, "det": qstr(dv)})
        _emit(args, "cmatrix det", {"k": k}, rows, ok)
    else:
        ds = range(k) if args.d is None else [args.d]
        out = []
        for d in ds:
            ch = canon.reduction_chain(k, d)
            out.append({"d": d, "det": qstr(ch["det"]),
                        "det-companion": qstr(ch["det_companion"]),
                        "power-of-two": ch["power_of_two"]})
        _emit(args, "cmatrix chain", {"k": k}, out, True)


def cmd_classify(args):
    metric = _metric(args)
    k = _k(args)
    rng = random.Random(args.seed or 0)
    w = Q(2 * k - metric.n, 2)
    op = StdOp.zero(metric)
    gens = []
    labels = [(1, 0)] + ([(0, 1)] if k >= 2 else [])
    for lab in labels:
        basis = ckt.solve(metric, CKTLabel(*lab))
        phi = basis[rng.randrange(len(basis))]
        I = ckt.split(phi, CKTLabel(*lab))
        op = op + canon.build_S(I, lab, w, check_parallel=False)
        gens.append((lab, phi))
    coeff = random_tracefree(metric, 1, 1, rng)
    tail = StdOp.from_coeff(coeff, 0)
    op = op + tail.compose(StdOp.laplacian_power(metric, k))
    try:
        pieces, rem_tail = canon.classify(op, k)
    except canon.ClassificationError as e:
        _emit(args, "classify", _config(args, metric),
              {"error": str(e)}, False)
        return
    ok = rem_tail == tail and len(pieces) == len(gens) and all(
        any(tuple(l) == tuple(lab) and p == phi for l, p in pieces)
        for lab, phi in gens)
    _emit(args, "classify", _config(args, metric),
          {"pieces": [{"label": list(l)} for l, _ in pieces],
           "tail_recovered": rem_tail == tail,
           "round_trip": ok}, ok)


def cmd_algebra(args):
    metric = _metric(args)
    n = metric.n
    k = _k(args)
    if args.action == "graded":
        t = args.t if args.t is not None else 1
        if t < 1:
            _usage("need t >= 1, got t = %d" % t)
        gd = algebra.graded_dim(k, t, n)
        res = {"graded-dim": gd}
        ok = None  # the oracle is feasible only for t <= 2
        if t <= 2:
            bd = algebra.brute_dim_oracle(k, t, metric)
            res["oracle-dim"] = bd
            ok = gd == bd
        _emit(args, "algebra graded", _config(args, metric), res, ok)
        return
    basis = ckt.solve(metric, CKTLabel(1, 0))
    rng = random.Random(args.seed or 0)
    if args.action == "dec2can":
        pairs = ([(i, j) for i in range(len(basis))
                  for j in range(len(basis))] if args.all_basis else
                 [(rng.randrange(len(basis)), rng.randrange(len(basis)))
                  for _ in range(3)])
        allok = True
        out = []
        for (i, j) in pairs:
            rep = algebra.verify_dec2can(basis[i], basis[j], Q(0))
            allok = allok and rep["all"]
            out.append({"pair": [i, j], "all": rep["all"]})
        _emit(args, "algebra dec2can", _config(args, metric), out, allok)
    elif args.action == "ideal":
        i = rng.randrange(len(basis))
        j = rng.randrange(len(basis))
        ok = algebra.ideal_relation_check(basis[i], basis[j], k)
        _emit(args, "algebra ideal", _config(args, metric),
              {"pair": [i, j],
               "coefficient": qstr(algebra.ideal_coefficient(n, k)),
               "holds": ok}, ok)
    elif args.action == "extra":
        ok = algebra.lemma_extra_check(k, metric)
        _emit(args, "algebra extra", _config(args, metric),
              {"holds": ok}, ok)


def cmd_report(args):
    metric = _metric(args)
    n = metric.n
    k = _k(args)
    checks = {}
    dims = {}
    for (p, r) in ((0, 0), (1, 0), (0, 1)):
        basis = ckt.solve(metric, CKTLabel(p, r))
        dims["(%d,%d)" % (p, r)] = len(basis)
        checks["dim(%d,%d)" % (p, r)] = (
            len(basis) == ckt.weyl_dim(n, p, r))
    basis = ckt.solve(metric, CKTLabel(1, 0))
    rep = canon.verify_symmetry(basis[0], (1, 0), k)
    checks["symmetry"] = rep.verdict
    checks["gjms"] = canon.gjms_factorization_check(metric, min(k, 2))
    checks["regularity"] = all(canon.regularity(k, d) for d in range(k))
    checks["ideal"] = algebra.ideal_relation_check(basis[0], basis[1], k)
    ok = all(checks.values())
    _emit(args, "report", _config(args, metric),
          {"dims": dims, "checks": checks}, ok)


# ----------------------------------------------------------------------

def _add_common(p):
    p.add_argument("--n", type=int)
    p.add_argument("--signature", type=str,
                   help="S,S' split of the metric signature")
    p.add_argument("--k", type=int)
    p.add_argument("--p", type=int, default=1)
    p.add_argument("--r", type=int, default=0)
    p.add_argument("--d", type=int)
    p.add_argument("--t", type=int)
    p.add_argument("--index", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--format", choices=("json", "text"), default="text")
    p.add_argument("--all-basis", action="store_true", dest="all_basis")


def build_parser():
    parser = _Parser(prog="tractor-symm",
                     description="Exact verification of higher symmetries "
                                 "of Laplacian powers via tractor calculus")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, actions=None):
        sp = sub.add_parser(name)
        if actions:
            sp.add_argument("action", choices=actions)
        _add_common(sp)
        sp.set_defaults(func=func)
        return sp

    add("ckt", cmd_ckt, ("dim", "basis"))
    add("split", cmd_split)
    add("symmetry", cmd_symmetry, ("build", "verify", "sweep"))
    add("compose", cmd_compose)
    add("decompose", cmd_decompose)
    add("cmatrix", cmd_cmatrix, ("det", "chain"))
    add("classify", cmd_classify)
    add("algebra", cmd_algebra, ("dec2can", "ideal", "extra", "graded"))
    add("report", cmd_report)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.func(args)
    except MemoryError:
        sys.stderr.write("error: out of memory\n")
        return EXIT_RESOURCE
    except (ckt.CKTError, canon.ClassificationError) as e:
        # the message names the failed stage and entry: it is the witness
        sys.stderr.write("error: %s\n" % e)
        return EXIT_VERIFY
    return EXIT_PASS


if __name__ == "__main__":
    sys.exit(main())
