"""Per-layer tracing from outside the package.

Tracer rebinds each traced public function in every bcsgap module namespace
that holds it (so `bcsgap.gap.integrate` and `bcsgap.quad.integrate` both
record), and restores the originals on exit.  Each call becomes one span
[name, start, end, parent, op, failed, nodes], kept in memory and written
out at the end.  `integrate` also wraps the integrand it is given, so every
quadrature round is a child span carrying its node count; the private
`_panels_eval` is not touched.
"""

import json
import sys
import time
from collections import defaultdict

LAYERS = {
    "quad": ("integrate",),
    "kernels": (
        "gap_residual",
        "gap_residual_partials",
        "gap_residual_second_partials",
        "residual_and_slope",
    ),
    "gap": ("solve_gap_at", "gap_derivatives_at", "sample_gap_curve", "solve_tc"),
    "model": ("build_params",),
    "thermo": (
        "thermodynamic_potential",
        "normal_potential",
        "tail_potential",
        "condensation_potential",
        "measured_second_derivative_jump",
    ),
    "verify": ("run_suite",),
    "cli": ("main",),
}
INTEGRAND = "quad.integrand"

NAME, START, END, PARENT, OP, FAILED, NODES = range(7)


class Tracer:
    def __init__(self):
        self.spans = []
        self.op = -1
        self._stack = [-1]
        self._bound = []

    def __enter__(self):
        originals = {}
        for module, names in LAYERS.items():
            mod = sys.modules[f"bcsgap.{module}"]
            for name in names:
                fn = getattr(mod, name)
                qual = f"{module}.{name}"
                wrap = self._wrap_integrate if qual == "quad.integrate" else self._wrap
                originals[id(fn)] = (fn, wrap(qual, fn))
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "bcsgap" and not mod_name.startswith("bcsgap."):
                continue
            for attr, value in list(vars(mod).items()):
                hit = originals.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])
                    self._bound.append((mod, attr, value))
        return self

    def __exit__(self, *exc):
        for mod, attr, value in reversed(self._bound):
            setattr(mod, attr, value)
        self._bound.clear()
        return False

    def _open(self, name):
        span = [name, 0.0, 0.0, self._stack[-1], self.op, False, 0]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _wrap(self, name, fn, count_nodes=False):
        stack = self._stack

        def traced(*args, **kwargs):
            span = self._open(name)
            if count_nodes:
                span[NODES] = getattr(args[0], "size", 1)
            span[START] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                span[FAILED] = True
                raise
            finally:
                span[END] = time.perf_counter()
                stack.pop()

        return traced

    def _wrap_integrate(self, name, fn):
        traced = self._wrap(name, fn)

        def integrate(f, *args, **kwargs):
            return traced(self._wrap(INTEGRAND, f, count_nodes=True), *args, **kwargs)

        return integrate

    def write(self, path, meta):
        with open(path, "w") as fh:
            fh.write(json.dumps(meta) + "\n")
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")


def layer_stats(spans):
    """Counts and times per traced name, from one pass's spans.

    total_s sums the spans that have no ancestor of the same name; self_s
    is each span's duration minus its direct children's.
    """
    calls = defaultdict(int)
    failed = defaultdict(int)
    total = defaultdict(float)
    child = [0.0] * len(spans)
    nodes = 0
    under_solve = [False] * len(spans)
    residual_in_solve = 0
    for i, s in enumerate(spans):
        name, parent = s[NAME], s[PARENT]
        dur = s[END] - s[START]
        calls[name] += 1
        failed[name] += s[FAILED]
        nodes += s[NODES]
        if parent >= 0:
            child[parent] += dur
            under_solve[i] = under_solve[parent] or spans[parent][NAME] == "gap.solve_gap_at"
        if name == "kernels.gap_residual" and under_solve[i]:
            residual_in_solve += 1
        p = parent
        while p >= 0 and spans[p][NAME] != name:
            p = spans[p][PARENT]
        if p < 0:
            total[name] += dur
    self_s = defaultdict(float)
    for i, s in enumerate(spans):
        self_s[s[NAME]] += (s[END] - s[START]) - child[i]

    out = {}
    for module, names in LAYERS.items():
        for name in names:
            q = f"{module}.{name}"
            out[f"{q}.calls"] = calls[q]
            out[f"{q}.failed"] = failed[q]
            out[f"{q}.total_s"] = total[q]
            out[f"{q}.self_s"] = self_s[q]
    out["quad.integrate.rounds"] = calls[INTEGRAND]
    out["quad.integrate.nodes"] = nodes
    out["quad.integrand.self_s"] = self_s[INTEGRAND]
    out["quad.rounds_per_call"] = calls[INTEGRAND] / max(calls["quad.integrate"], 1)
    out["gap.residual_evals_per_solve"] = residual_in_solve / max(calls["gap.solve_gap_at"], 1)
    return out
