"""Span tracing of uqsl2's public functions, installed from outside the package.

``Tracer.install`` wraps each function named in ``LAYERS`` and rebinds every
alias of it in every ``uqsl2.*`` namespace: the CLI and the operator modules
import each other's functions by name, so patching only the defining module
would miss most calls.  Each call becomes a span ``(name, start, end,
parent)`` kept in memory; ``restore`` puts every original back.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time

LAYERS = {
    "cli": ["cli.main"],
    "qnum": ["qnum.qexp_truncated", "qnum.matrix_fractional_power",
             "qnum.nilpotent_expm", "qnum.qbinom", "qnum.qnumber"],
    "tensorop": ["tensorop.kron2", "tensorop.embed_two_site", "tensorop.total_degree_mask",
                 "tensorop.safe_mask", "tensorop.masked_max_abs",
                 "tensorop.TensorOperator.to_json"],
    "reps": ["reps.truncated_verma", "reps.semicyclic", "reps.cyclic", "reps.tensor_rep",
             "reps.coproduct", "reps.opposite_coproduct", "reps.casimir",
             "reps.defining_relations_residual", "reps.central_check", "reps.Rep.to_json"],
    "rfinite.build": ["rfinite.r_verma_direct", "rfinite.r_generic_universal",
                      "rfinite.r_reshetikhin_product", "rfinite.renormalized_raising_power",
                      "rfinite.cartan_weight_vector"],
    "rfinite.verify": ["rfinite.intertwine_residual", "rfinite.ybe_residual",
                       "rfinite.quasitriangularity_residual"],
    "raffine.closed": ["raffine.r_spectral", "raffine.rplus_closed", "raffine.rminus_closed",
                       "raffine.rzero_bar", "raffine.f_scalar"],
    "raffine.oracle": ["raffine.rplus_product", "raffine.rminus_product",
                       "raffine.rzero_exponential", "raffine.decompos_product"],
    "raffine.schur": ["raffine.eval_imaginary_prime", "raffine.schur_to_imaginary",
                      "raffine.schur_forward"],
    "raffine.verify": ["raffine.affine_coproduct_images", "raffine.affine_intertwine_residual",
                       "raffine.spectral_ybe_residual", "raffine.central_affine_check",
                       "raffine.noncentral_residual", "raffine.drinfeld_relation_check"],
    "cpotts.restrict": ["cpotts.r_semicyclic", "cpotts.curve_residual",
                        "cpotts.on_curve_partner", "cpotts.fn_commutation_residual",
                        "cpotts.export_boltzmann"],
    "cpotts.solver": ["cpotts.solve_intertwiner"],
}

COUNTS = ("raffine.schur.order_sum", "cpotts.solver.unknowns", "cpotts.solver.gram_bytes",
          "cpotts.solver.dim1_calls")

PACKAGE = "uqsl2"
_MARK = "__perfbench_original__"


def _namespaces() -> list:
    return [m for n, m in sorted(sys.modules.items())
            if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]


class Tracer:
    def __init__(self):
        self.spans: list = []          # (name, start, end, parent index or -1)
        self.counts = dict.fromkeys(COUNTS, 0)
        self.layer_of = {name: layer for layer, names in LAYERS.items() for name in names}
        self._stack: list = []
        self._bindings: list = []      # (owner, attribute, original)
        self._hooks = {"raffine.eval_imaginary_prime": self._count_order,
                       "cpotts.solve_intertwiner": self._count_solver}

    # -- counts taken at the layer boundary ---------------------------------

    def _count_order(self, bound, result):
        self.counts["raffine.schur.order_sum"] += int(bound.arguments["n_max"])

    def _count_solver(self, bound, result):
        d = bound.arguments["rep1"].dim * bound.arguments["rep2"].dim
        self.counts["cpotts.solver.unknowns"] += d * d
        # the constraint Gram matrix is D^2 x D^2 complex128
        self.counts["cpotts.solver.gram_bytes"] += 16 * d**4
        self.counts["cpotts.solver.dim1_calls"] += int(result[1] == 1)

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, fn, name: str):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        hook = self._hooks.get(name)
        sig = inspect.signature(fn) if hook else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (name, t0, t1, parent)
            if hook:
                hook(sig.bind(*args, **kwargs), result)
            return result

        setattr(traced, _MARK, fn)
        return traced

    def _bind(self, owner, attr, value):
        self._bindings.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self):
        importlib.import_module(f"{PACKAGE}.cli")
        namespaces = _namespaces()
        for name in self.layer_of:
            module, *path = name.split(".")
            owner = importlib.import_module(f"{PACKAGE}.{module}")
            for part in path[:-1]:
                owner = getattr(owner, part)
            original = owner.__dict__[path[-1]]
            wrapper = self._wrap(original, name)
            if isinstance(owner, type):        # a method: the class is shared by all aliases
                self._bind(owner, path[-1], wrapper)
                continue
            for ns in namespaces:
                for attr, value in list(vars(ns).items()):
                    if value is original:
                        self._bind(ns, attr, wrapper)

    def restore(self) -> list:
        """Put every original back; return the aliases that are still wrapped."""
        for owner, attr, original in reversed(self._bindings):
            setattr(owner, attr, original)
        left = [f"{owner.__name__}.{attr}" for owner, attr, original in self._bindings
                if owner.__dict__[attr] is not original]
        for ns in _namespaces():
            objs = [ns] + [v for v in vars(ns).values()
                           if isinstance(v, type) and v.__module__.startswith(PACKAGE)]
            left += [f"{getattr(o, '__name__', o)}.{attr}" for o in objs
                     for attr, value in vars(o).items() if hasattr(value, _MARK)]
        self._bindings.clear()
        return sorted(set(left))

    # -- accounting ---------------------------------------------------------

    def self_times(self) -> list:
        """Per span: its duration minus the part its direct children cover."""
        own = [end - start for _, start, end, _ in self.spans]
        for _, start, end, parent in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def layer_totals(self) -> dict:
        totals = {layer: [0, 0.0] for layer in LAYERS}
        for (name, *_), own in zip(self.spans, self.self_times()):
            row = totals[self.layer_of[name]]
            row[0] += 1
            row[1] += own
        return totals

    def check(self, wall: float, job_seconds: list) -> list:
        """Problems with the span accounting; an empty list means it holds.

        ``job_seconds`` are the per-job times the benchmark loop measured
        around each ``main`` call, independently of the spans.
        """
        if any(s is None for s in self.spans):
            return ["a span was never closed"]
        problems = []
        outside = sum(not (self.spans[parent][1] <= start and end <= self.spans[parent][2])
                      for _, start, end, parent in self.spans if parent >= 0)
        if outside:
            problems.append(f"{outside} spans lie outside their parent")
        if min(self.self_times(), default=0.0) < -1e-9:
            problems.append("children cover more than their parent: time counted twice")
        layer_sum = sum(s for _, s in self.layer_totals().values())
        remainder = wall - sum(job_seconds)
        slack = 1e-3 * wall + 1e-5 * len(job_seconds)
        if abs(layer_sum + remainder - wall) > slack:
            problems.append(f"layer self times {layer_sum:.6f} s + remainder {remainder:.6f} s "
                            f"!= traced wall {wall:.6f} s")
        return problems

    def chains(self, names) -> int:
        """Number of spans named ``names[-1]`` nested (at any depth) in the chain ``names``."""
        count = 0
        for span in self.spans:
            if span[0] != names[-1]:
                continue
            want = len(names) - 2
            parent = span[3]
            while parent >= 0 and want >= 0:
                if self.spans[parent][0] == names[want]:
                    want -= 1
                parent = self.spans[parent][3]
            count += want < 0
        return count
