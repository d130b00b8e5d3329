"""Layer-boundary tracing for the solitonlab benchmark.

The tracer wraps public entry points of the seven solitonlab layers from
outside the package: nothing in ``src/`` changes.  A wrapped function is
replaced in every ``solitonlab`` module namespace that binds it (``cli``
imports most checkers and constructors by name), a wrapped method is replaced on
its class.  Each call of a span boundary records
``[span_id, boundary, start_ns, end_ns, parent_id, ok]``; boundaries entered
more than ~1e5 times per case only bump a counter.

The aggregation half of this module (``case_layer_metrics``,
``check_nesting``) works on recorded spans and never imports solitonlab.
"""

from __future__ import annotations

import functools
import sys
import time

TODA, NLS, LATTICE = "toda-construct", "nls-verify", "lattice-lemmas"
ALL = (TODA, NLS, LATTICE)

# "module.attribute" -> (kind, metric group, workloads on which every pass must
# enter it).  Kind "span" records a span per call, "count" only counts calls.
BOUNDARIES = {
    "quasidet.frobenius_gamma": ("span", "quasidet.gamma", ALL),
    "quasidet.solution_entry_via_quasidet": ("span", "quasidet.cross_check", (TODA, LATTICE)),
    "quasidet.frobenius_quotient": ("span", "quasidet.cell_quotient", (LATTICE,)),
    "quasidet.quasideterminant": ("span", "quasidet.qdet", (TODA, LATTICE)),
    "quasidet.wronski": ("span", "quasidet.wronski", ALL),
    "series.series_inverse": ("span", "series.inverse", ALL),
    "series.SeriesAlgebra.matrix_inverse": ("span", "series.matrix_inverse", ALL),
    "series.TruncatedSeries.__mul__": ("span", "series.mul", ALL),
    "series.series_derive": ("count", "series.derive", ALL),
    "series.series_exp_linear": ("span", "series.exp", ALL),
    "algebra._Field.matrix_inverse": ("span", "algebra.gj", ALL),
    "algebra.MatrixAlgebra.matrix_inverse": ("span", "algebra.nested_inverse", (NLS, LATTICE)),
    "algebra.SquareMatrix.__mul__": ("count", "algebra.matmul", ALL),
    "scalars.GaussianRational.__init__": ("count", "scalars.gaussian_new", (NLS,)),
    "residual.check_data": ("span", "residual.check", ALL),
    "residual.check_toda": ("span", "residual.check", (TODA, LATTICE)),
    "residual.check_langmuir": ("span", "residual.check", (LATTICE,)),
    "residual.check_nls": ("span", "residual.check", (NLS,)),
    "residual.check_toda_gamma": ("span", "residual.lemma", (LATTICE,)),
    "residual.check_marchenko": ("span", "residual.lemma", (LATTICE,)),
    "residual.check_marchenko_lattice": ("span", "residual.lemma", (LATTICE,)),
    "solitons.toda_build_f": ("span", "solitons.build_f", (TODA,)),
    "solitons.langmuir_build_f": ("span", "solitons.build_f", (LATTICE,)),
    "solitons.nls_build_f": ("span", "solitons.build_f", (NLS,)),
    "solitons.toda_solution": ("span", "solitons.solution", (TODA, LATTICE)),
    "solitons.sine_gordon_solution": ("span", "solitons.solution", (TODA, LATTICE)),
    "solitons.langmuir_solution": ("span", "solitons.solution", (LATTICE,)),
    "solitons.nls_solution": ("span", "solitons.solution", (NLS,)),
    "solitons.random_toda_params": ("count", "solitons.draws", (TODA,)),
    "solitons.random_sine_gordon_params": ("count", "solitons.draws", (TODA, LATTICE)),
    "solitons.random_langmuir_params": ("count", "solitons.draws", (LATTICE,)),
    "solitons.random_nls_params": ("count", "solitons.draws", (NLS,)),
    "cli.run": ("span", "cli.run", ALL),
}

GROUPS = sorted({spec[1] for spec in BOUNDARIES.values()})


def _resolve(owner, qualname):
    """(holder, attribute, original) for ``Class.method`` or ``function``."""
    holder = owner
    *path, attr = qualname.split(".")
    for part in path:
        holder = getattr(holder, part)
    return holder, attr, holder.__dict__[attr] if path else getattr(holder, attr)


class Tracer:
    """Installs span/counter wrappers on solitonlab and records into lists."""

    def __init__(self, keep=()):
        self.spans = []
        self.counts = dict.fromkeys(BOUNDARIES, 0)
        self.kept = {}  # boundary -> last result, for the boundaries in keep
        self._keep = set(keep)
        self._stack = []
        self._undo = []

    def install(self):
        import importlib

        modules = [
            m for name, m in sorted(sys.modules.items())
            if name == "solitonlab" or name.startswith("solitonlab.")
        ]
        for boundary, (kind, _, _) in BOUNDARIES.items():
            mod_name, qualname = boundary.split(".", 1)
            owner = importlib.import_module(f"solitonlab.{mod_name}")
            # a missing attribute raises here: a rename in src/ fails loudly
            holder, attr, original = _resolve(owner, qualname)
            wrapper = (self._span if kind == "span" else self._counter)(
                boundary, original
            )
            if holder is owner:
                bound_in = [
                    m for m in modules
                    if any(v is original for v in vars(m).values())
                ]
                for m in bound_in:
                    for key, value in list(vars(m).items()):
                        if value is original:
                            self._undo.append((m, key, original))
                            setattr(m, key, wrapper)
            else:
                self._undo.append((holder, attr, original))
                setattr(holder, attr, wrapper)

    def uninstall(self):
        while self._undo:
            holder, attr, original = self._undo.pop()
            setattr(holder, attr, original)

    def _span(self, boundary, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        kept = self.kept if boundary in self._keep else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [len(spans), boundary, clock(), 0, stack[-1] if stack else -1, False]
            spans.append(rec)
            stack.append(rec[0])
            try:
                result = fn(*args, **kwargs)
                rec[5] = True
                if kept is not None:
                    kept[boundary] = result
                return result
            finally:
                stack.pop()
                rec[3] = clock()

        return wrapper

    def _counter(self, boundary, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[boundary] += 1
            return fn(*args, **kwargs)

        return wrapper


# -- aggregation (no solitonlab import) -------------------------------------


def check_nesting(spans):
    """Raise ValueError unless every span lies inside its parent and closed."""
    by_id = {s[0]: s for s in spans}
    for sid, name, start, end, parent, _ in spans:
        if end < start:
            raise ValueError(f"span {sid} ({name}) ends before it starts")
        if parent == -1:
            continue
        p = by_id.get(parent)
        if p is None or not (p[2] <= start and end <= p[3]) or parent >= sid:
            raise ValueError(f"span {sid} ({name}) is not inside its parent {parent}")


def case_layer_metrics(spans, counts):
    """Per-group inclusive time, self time and call counts for one case.

    Inclusive time of a group sums only its outermost spans, so recursion and
    nesting inside one group (sine-Gordon calling the Toda solver) are not
    counted twice.  Self time is duration minus the time of direct children.
    """
    group_of = {b: spec[1] for b, spec in BOUNDARIES.items()}
    by_id = {s[0]: s for s in spans}
    child_ns = {}
    for s in spans:
        if s[4] != -1:
            child_ns[s[4]] = child_ns.get(s[4], 0) + (s[3] - s[2])
    out = {}
    for g in GROUPS:
        out[g] = {"incl_ns": 0, "self_ns": 0, "calls": 0, "outer_ok": 0}
    for sid, name, start, end, parent, ok in spans:
        g = group_of[name]
        rec = out[g]
        dur = end - start
        rec["calls"] += 1
        rec["self_ns"] += dur - child_ns.get(sid, 0)
        ancestor = parent
        while ancestor != -1 and group_of[by_id[ancestor][1]] != g:
            ancestor = by_id[ancestor][4]
        if ancestor == -1:
            rec["incl_ns"] += dur
            rec["outer_ok"] += bool(ok)
    for boundary, n in counts.items():
        if BOUNDARIES[boundary][0] == "count":
            out[group_of[boundary]]["calls"] += n
    return out
