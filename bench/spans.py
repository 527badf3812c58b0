"""Span tracing from outside the program.

``Tracer.instrument`` replaces each public layer function listed in
``LAYER_FUNCTIONS`` by a wrapper, in every ``coregroups`` module that
holds it, so calls between modules are traced as well as the
benchmark's own calls; ``restore`` puts the originals back.  No file of
the program changes.

A span records name, tag, start, end, parent span and job.  Spans stay
in memory and are written when the run ends.  Per name the tracer sums
busy time (outermost span of that name only, so recursion is not
counted twice); per module it sums self time, a span's duration minus
that of its direct children.
"""

from __future__ import annotations

import json
import sys
from contextlib import contextmanager
from time import perf_counter

# module -> {public function: short span name}
LAYER_FUNCTIONS = {
    "diagrams": {"parse_diagram": "parse", "trace_faces": "faces",
                 "trace_arcs": "arcs", "checkerboard_color": "color"},
    "linkgroups": {"arc_core": "ac", "region_core": "rc", "second_region_core": "rrc",
                   "rc_zero": "rc0", "dehn": "dehn", "wirtinger": "wirtinger",
                   "goeritz_matrix": "goeritz"},
    "abelian": {"smith_normal_form": "snf"},
    "enumeration": {"count_homomorphisms": "hom", "coset_enumerate": "coset"},
    "presentations": {"core_functor": "core", "tietze_simplify": "tietze"},
    "moves": {"random_legal_moves": "sites", "apply_move": "apply"},
}

# Spans whose busy time is also reported per size class on big_diagrams.
SIZED = ("diagrams.faces", "linkgroups.rc", "abelian.snf")
HOM_TARGETS = ("z2", "z3", "z4", "s3", "a4", "s4", "a5")
SUITES = ("free_split", "split_union", "two_rank", "core_functor", "goeritz", "moves")
COUNTS = ("enumeration.hom_calls", "enumeration.coset_calls", "enumeration.coset_index_sum",
          "enumeration.over_budget", "abelian.snf_calls", "abelian.matrix_cells",
          "abelian.over_budget", "diagrams.crossings", "diagrams.regions", "moves.applied",
          "moves.final_crossings")


def per_layer_names(sizes):
    """(name, unit) of every per-layer metric, in report order."""
    names = [(f"{mod}.{short}_s", "s") for mod, fns in LAYER_FUNCTIONS.items()
             for short in fns.values()]
    names += [(f"enumeration.hom_s.{t}", "s") for t in HOM_TARGETS]
    names += [(f"verification.{s}_s", "s") for s in SUITES]
    names += [(f"{mod}.self_s", "s") for mod in list(LAYER_FUNCTIONS) + ["verification"]]
    names += [(f"{span}_s.n{n}", "s") for span in SIZED for n in sizes]
    names += [(c, "count") for c in COUNTS]
    names += [("trace.wall_s", "s"), ("trace.untraced_wall_s", "s"),
              ("trace.overhead_s", "s"), ("trace.spans", "count")]
    return names


def _count_call(name, args, count):
    """Work counts recorded when a layer function is entered."""
    if name == "enumeration.hom":
        count("enumeration.hom_calls")
    elif name == "enumeration.coset":
        count("enumeration.coset_calls")
    elif name == "abelian.snf":
        m = args[0]
        count("abelian.snf_calls")
        count("abelian.matrix_cells", len(m) * (len(m[0]) if m else 0))
    elif name == "diagrams.faces":
        count("diagrams.crossings", len(args[0].crossings))
    elif name == "moves.apply":
        count("moves.applied")


def _count_result(name, result, count):
    """Work counts read off a layer function's result."""
    if name == "enumeration.coset":
        count("enumeration.coset_index_sum", result or 0)
    elif name == "diagrams.faces":
        count("diagrams.regions", len(result.regions))


class Tracer:
    def __init__(self):
        self.spans = []        # [name, tag, start, end, parent index, job]
        self.stack = []        # open frames: [span index, child time]
        self.busy = {}         # metric -> seconds
        self.counts = {}       # metric -> int
        self.job = None
        self.size = None
        self._patched = []

    # -- recording -----------------------------------------------------

    def count(self, name, n=1):
        self.counts[name] = self.counts.get(name, 0) + n

    def _add(self, name, seconds):
        self.busy[name] = self.busy.get(name, 0.0) + seconds

    def open(self, name, tag=None):
        parent = self.stack[-1][0] if self.stack else None
        self.spans.append([name, tag, perf_counter(), None, parent, self.job])
        self.stack.append([len(self.spans) - 1, 0.0])

    def close(self):
        index, child = self.stack.pop()
        span = self.spans[index]
        span[3] = end = perf_counter()
        name, tag, start = span[0], span[1], span[2]
        took = end - start
        if self.stack:
            self.stack[-1][1] += took
        self._add(name.split(".")[0] + ".self_s", took - child)
        if any(self.spans[i][0] == name for i, _ in self.stack):
            return
        self._add(name + "_s", took)
        if tag is not None:
            self._add(f"{name}_s.{tag}", took)
        if self.size is not None and name in SIZED:
            self._add(f"{name}_s.n{self.size}", took)

    @contextmanager
    def span(self, name, tag=None):
        self.open(name, tag)
        try:
            yield
        finally:
            self.close()

    def innermost(self):
        return self.spans[self.stack[-1][0]][0] if self.stack else None

    def start_job(self, index, size):
        del self.stack[:]
        self.job, self.size = index, size

    # -- instrumentation -----------------------------------------------

    def _wrap(self, name, fn):
        tracer = self
        tag_of = (lambda args: getattr(args[1], "name", None)) if name == "enumeration.hom" \
            else (lambda args: None)

        def traced(*args, **kwargs):
            _count_call(name, args, tracer.count)
            tracer.open(name, tag_of(args))
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close()
            _count_result(name, result, tracer.count)
            return result

        traced.__wrapped__ = fn
        return traced

    def instrument(self, package="coregroups"):
        modules = [m for key, m in sorted(sys.modules.items())
                   if m is not None and (key == package or key.startswith(package + "."))]
        for mod_name, functions in LAYER_FUNCTIONS.items():
            home = sys.modules[f"{package}.{mod_name}"]
            for attr, short in functions.items():
                original = getattr(home, attr)
                wrapper = self._wrap(f"{mod_name}.{short}", original)
                for m in modules:
                    for key, value in list(vars(m).items()):
                        if value is original:
                            setattr(m, key, wrapper)
                            self._patched.append((m, key, original))

    def restore(self):
        for m, key, original in reversed(self._patched):
            setattr(m, key, original)
        del self._patched[:]

    # -- output --------------------------------------------------------

    def reset_totals(self):
        self.busy, self.counts = {}, {}

    def write(self, path):
        with open(path, "w") as f:
            for name, tag, start, end, parent, job in self.spans:
                f.write(json.dumps({"name": name, "tag": tag, "start": start, "end": end,
                                    "parent": parent, "job": job}) + "\n")
