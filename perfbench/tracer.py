"""Per-layer tracing of the package from outside its source.

``Tracer.install`` replaces every function and method defined in the
package's modules with a timing wrapper, and rebinds each name under
which another module imported it (``from .ckt import grad_sym0`` and the
like), so no call escapes by going through a by-name binding.  Each
wrapper counts calls and records self time: its own duration minus the
durations of the wrapped calls made inside it.  ``uninstall`` restores
the originals.

``layer_metrics`` folds the per-function records into the benchmark's
per-layer metrics (``LAYER_METRICS`` gives each one's unit).
"""

import functools
import importlib
import inspect
import time

LAYERS = ("scalars", "poly", "linalg", "tensor", "tractor", "ckt", "diffop",
          "canon", "algebra", "cli")
PACKAGE = "tractor_symm"


class Tracer:
    def __init__(self):
        self.stats = {}      # "module.qualname" -> [calls, self seconds]
        self.sizes = {}      # size counters filled by the argument hooks
        self.split_keys = set()
        self._stack = []
        self._restore = []
        self._hooks = {
            "poly.Poly.__mul__": self._mul_size,
            "linalg.rref": self._rref_size,
            "ckt.split": self._split_key,
        }
        self._result_hooks = {
            "linalg.has_full_column_rank_mod": self._modrank,
        }

    # -- size hooks ------------------------------------------------------

    def _mul_size(self, args, kwargs):
        a, b = args
        if hasattr(b, "terms"):
            self._bump("poly.mul_term_products", len(a.terms) * len(b.terms))

    def _rref_size(self, args, kwargs):
        rows = args[0]
        ncols = args[1] if len(args) > 1 else kwargs.get("ncols")
        if ncols is None:
            ncols = len(rows[0]) if rows else 0
        self._bump("linalg.rref_cells", len(rows) * ncols)

    def _split_key(self, args, kwargs):
        phi = args[0]
        label = args[1] if len(args) > 1 else kwargs["label"]
        self.split_keys.add((phi.metric.key(), tuple(label)))

    def _modrank(self, result):
        self._bump("linalg.modrank_checks", 1)
        if result:
            self._bump("linalg.modrank_skips", 1)

    def _bump(self, key, v):
        self.sizes[key] = self.sizes.get(key, 0) + v

    # -- wrapping --------------------------------------------------------

    def _wrap(self, key, fn):
        rec = self.stats.setdefault(key, [0, 0.0])
        stack = self._stack
        clock = time.perf_counter
        hook = self._hooks.get(key)
        rhook = self._result_hooks.get(key)

        def traced(*args, **kwargs):
            if hook is not None:
                hook(args, kwargs)
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - t0
                inner = stack.pop()
                rec[0] += 1
                rec[1] += elapsed - inner
                if stack:
                    stack[-1] += elapsed
            if rhook is not None:
                rhook(result)
            return result

        return functools.update_wrapper(traced, fn)

    def install(self):
        mods = [importlib.import_module("%s.%s" % (PACKAGE, m))
                for m in LAYERS]
        wrapper = {}    # id(original) -> wrapper, for every module's names
        for mod in mods:
            short = mod.__name__.rsplit(".", 1)[1]
            for name, obj in list(vars(mod).items()):
                if inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    self._wrap_class(short, obj)
                elif (callable(obj) and not inspect.isclass(obj)
                      and getattr(obj, "__module__", None) == mod.__name__):
                    wrapper[id(obj)] = self._wrap("%s.%s" % (short, name), obj)
        for mod in mods:
            for name, obj in list(vars(mod).items()):
                if id(obj) in wrapper:
                    self._restore.append((mod, name, obj))
                    setattr(mod, name, wrapper[id(obj)])
        return self

    def _wrap_class(self, short, cls):
        for name, attr in list(vars(cls).items()):
            key = "%s.%s.%s" % (short, cls.__name__, name)
            if isinstance(attr, (staticmethod, classmethod)):
                new = type(attr)(self._wrap(key, attr.__func__))
            elif inspect.isfunction(attr):
                new = self._wrap(key, attr)
            else:
                continue
            self._restore.append((cls, name, attr))
            setattr(cls, name, new)

    def uninstall(self):
        for owner, name, obj in reversed(self._restore):
            setattr(owner, name, obj)
        self._restore = []

    # -- reading ---------------------------------------------------------

    def snapshot(self):
        """Raw records of this process, in a form that adds across runs."""
        tensor = importlib.import_module(PACKAGE + ".tensor")
        info = tensor._trace_decomp_solver.cache_info()
        sizes = dict(self.sizes)
        sizes["ckt.split_labels"] = len(self.split_keys)
        sizes["tensor.trace_solver_hits"] = info.hits
        sizes["tensor.trace_solver_fills"] = info.misses
        return {"stats": {k: list(v) for k, v in sorted(self.stats.items())
                          if v[0]},
                "sizes": sizes}


def merge(snapshots):
    out = {"stats": {}, "sizes": {}}
    for snap in snapshots:
        for k, (calls, self_s) in snap["stats"].items():
            rec = out["stats"].setdefault(k, [0, 0.0])
            rec[0] += calls
            rec[1] += self_s
        for k, v in snap["sizes"].items():
            out["sizes"][k] = out["sizes"].get(k, 0) + v
    return out


# Self time of each whole layer; together with bench.self_s they add up
# to the traced wall time.  cli has only its one entry point metric.
LAYER_SELF = tuple(l + ".self_s" for l in LAYERS if l != "cli") + (
    "cli.main_s",)

# metric name -> unit; the order is the order of BENCHMARK.json
LAYER_METRICS = dict.fromkeys(LAYER_SELF, "s")
LAYER_METRICS.update({
    "poly.mul_calls": "count", "poly.mul_term_products": "count",
    "poly.mul_s": "s", "poly.add_s": "s", "poly.scale_s": "s",
    "poly.diff_calls": "count", "poly.diff_s": "s",
    "linalg.rref_calls": "count", "linalg.rref_cells": "count",
    "linalg.rref_s": "s", "linalg.kernel_sparse_calls": "count",
    "linalg.kernel_sparse_s": "s", "linalg.modrank_skip_ratio": "ratio",
    "tensor.trace_free_calls": "count", "tensor.trace_free_s": "s",
    "tensor.trace_solver_fills": "count",
    "tensor.trace_solver_hit_ratio": "ratio",
    "tensor.young22_project_s": "s",
    "tractor.double_D_calls": "count", "tractor.double_D_s": "s",
    "tractor.parallel_extend_calls": "count",
    "tractor.parallel_extend_s": "s", "tractor.contract_s": "s",
    "tractor.nabla_s": "s",
    "ckt.solve_s": "s", "ckt.split_calls": "count", "ckt.split_s": "s",
    "ckt.split_per_label": "ratio", "ckt.grad_sym0_s": "s",
    "diffop.reconstruct_calls": "count", "diffop.reconstruct_s": "s",
    "diffop.compose_raw_s": "s", "diffop.normalize_raw_s": "s",
    "canon.verify_symmetry_s": "s", "canon.extract_constraint_matrix_s": "s",
    "algebra.verify_dec2can_s": "s", "algebra.products_s": "s",
    "cli.main_s": "s",
    "bench.self_s": "s", "trace.wall_s": "s", "trace.overhead_s": "s",
})


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(snap):
    """Per-layer metrics of one traced round, without the wall-time ones."""
    stats = snap["stats"]
    sz = snap["sizes"].get

    def c(key):
        return stats.get(key, [0, 0.0])[0]

    def s(*keys):
        return sum(stats.get(k, [0, 0.0])[1] for k in keys)

    def prefix_s(prefix):
        return sum(v[1] for k, v in stats.items() if k.startswith(prefix))

    out = {layer + ".self_s": prefix_s(layer + ".") for layer in LAYERS
           if layer != "cli"}
    out.update({
        "poly.mul_calls": c("poly.Poly.__mul__"),
        "poly.mul_term_products": sz("poly.mul_term_products", 0),
        "poly.mul_s": s("poly.Poly.__mul__", "poly.Poly.__pow__"),
        "poly.add_s": s("poly.Poly.__add__", "poly.Poly.__sub__",
                        "poly.Poly.__rsub__", "poly.Poly.__neg__"),
        "poly.scale_s": s("poly.Poly.scale", "poly.Poly.__rmul__"),
        "poly.diff_calls": c("poly.Poly.diff"),
        "poly.diff_s": s("poly.Poly.diff", "poly.Poly.diff_multi"),
        "linalg.rref_calls": c("linalg.rref"),
        "linalg.rref_cells": sz("linalg.rref_cells", 0),
        "linalg.rref_s": s("linalg.rref"),
        "linalg.kernel_sparse_calls": c("linalg.kernel_sparse"),
        "linalg.kernel_sparse_s": s("linalg.kernel_sparse",
                                    "linalg._row_div_gcd"),
        "linalg.modrank_skip_ratio": _ratio(sz("linalg.modrank_skips", 0),
                                            sz("linalg.modrank_checks", 0)),
        "tensor.trace_free_calls": c("tensor.trace_free"),
        "tensor.trace_free_s": s("tensor.trace_free",
                                 "tensor.decompose_traces",
                                 "tensor._trace_decomp_solver",
                                 "tensor._g_power_embed_matrix",
                                 "tensor._trace_matrix"),
        "tensor.trace_solver_fills": sz("tensor.trace_solver_fills", 0),
        "tensor.trace_solver_hit_ratio": _ratio(
            sz("tensor.trace_solver_hits", 0),
            sz("tensor.trace_solver_hits", 0)
            + sz("tensor.trace_solver_fills", 0)),
        "tensor.young22_project_s": (prefix_s("tensor.Young22.")
                                     + s("tensor._solve_polys",
                                         "tensor.young22_space")),
        "tractor.double_D_calls": c("tractor.double_D") + c(
            "tractor.double_D2"),
        "tractor.double_D_s": s("tractor.double_D", "tractor.double_D2"),
        "tractor.parallel_extend_calls": c("tractor.parallel_extend"),
        "tractor.parallel_extend_s": s("tractor.parallel_extend",
                                       "tractor._fiber_indices"),
        "tractor.contract_s": s("tractor.contract"),
        "tractor.nabla_s": s("tractor.nabla", "tractor._gamma_entries"),
        "ckt.solve_s": s("ckt.solve", "ckt._solve_degree"),
        "ckt.split_calls": c("ckt.split"),
        "ckt.split_s": s("ckt.split", "ckt._reduced_fiber",
                         "ckt._expand_reduced", "ckt._expanded_members",
                         "ckt._cartan_constraint_rows", "ckt._extract_dense",
                         "ckt.product_tuples", "ckt._perm_sign"),
        "ckt.split_per_label": _ratio(c("ckt.split"),
                                      sz("ckt.split_labels", 0)),
        "ckt.grad_sym0_s": s("ckt.grad_sym0", "ckt.ckt_apply"),
        "diffop.reconstruct_calls": c("diffop.reconstruct"),
        "diffop.reconstruct_s": s("diffop.reconstruct"),
        "diffop.compose_raw_s": s("diffop.compose_raw", "diffop._sub_multi"),
        "diffop.normalize_raw_s": s("diffop.normalize_raw"),
        "canon.verify_symmetry_s": (s("canon.verify_symmetry",
                                      "canon.build_S")
                                    + prefix_s("canon.CanonicalSymmetry.")
                                    + prefix_s("canon.SymmetryReport.")),
        "canon.extract_constraint_matrix_s": s(
            "canon.extract_constraint_matrix", "canon._xi_poly",
            "canon._xi_laplacian", "canon._xi_reduce", "canon._xi_scale",
            "canon._xi_eq"),
        "algebra.verify_dec2can_s": s("algebra.verify_dec2can",
                                      "algebra._vector_bracket",
                                      "algebra.killing_oracle"),
        "algebra.products_s": (s("algebra.dec2can_products",
                                 "algebra._product_matrix", "algebra.killing",
                                 "algebra.bracket", "algebra.bullet",
                                 "algebra.boxtimes", "algebra.outer",
                                 "algebra._as_field")
                               + prefix_s("algebra.GElement.")),
        "cli.main_s": prefix_s("cli."),
    })
    return out
