"""Spans around ompkit's public functions and the per-layer metrics built
from them.

:meth:`Tracer.install` replaces each traced function at every module
attribute that binds it (``omp_check.solve``, ``cli.family_for``, the
package namespace, ...), so a call made from inside the library is recorded
as a child of the span that made it.  Spans are kept in memory while the run
lasts and written out when it ends.  A span's self time is its duration
minus the time covered by its children; calls are sequential, so the
children never overlap.
"""

from __future__ import annotations

import json
import sys
import time

# module -> traced public functions of that module
TRACED = {
    "discrimination": ("solve", "povm_weights"),
    "channels": ("is_cptp_choi",),
    "omp_check": ("check_omp",),
    "omp_construct": ("family_for", "sieve_admissible"),
    "ensembles": ("make_ensemble",),
    "fileio": ("load_ensemble",),
    "cli": ("main",),
}


def _arg(args, kwargs, pos: int, name: str, default=None):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name, default)


def _weights_k(args, kwargs):
    index_set = _arg(args, kwargs, 2, "index_set")
    return len(index_set) if index_set is not None else len(args[1].identified)


# name -> (note taken from the arguments, note taken from the result)
NOTES = {
    "discrimination.solve": (lambda a, kw: {"n": a[0].n}, None),
    "discrimination.povm_weights": (lambda a, kw: {"k": _weights_k(a, kw)}, None),
    "channels.is_cptp_choi": (None, lambda r: {"cptp": r.value == "CPTP"}),
    "omp_check.check_omp": (None, lambda r: {"positive": bool(r.is_omp)}),
    "omp_construct.sieve_admissible": (
        lambda a, kw: {"draws": int(_arg(a, kw, 1, "count", 1000))},
        lambda r: {"kept": len(r)},
    ),
}


class Span:
    __slots__ = ("name", "op", "parent", "arg0", "start", "end", "child", "error", "note")

    def __init__(self, name, op, parent, arg0):
        self.name, self.op, self.parent, self.arg0 = name, op, parent, arg0
        self.child, self.error, self.note = 0.0, None, {}

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.end - self.start - self.child

    def record(self, index: int) -> dict:
        return {
            "id": index, "name": self.name, "op": self.op, "parent": self.parent,
            "start": self.start, "end": self.end, "self": self.self_time,
            "error": self.error, "note": self.note,
        }


class Tracer:
    """Records spans while ``on`` is set; ``op`` labels the current operation."""

    def __init__(self):
        self.spans: list = []
        self.stack: list = []
        self.on = False
        self.op = -1
        self._patches: list = []

    def _wrap(self, name: str, fn):
        pre, post = NOTES.get(name, (None, None))

        def traced(*args, **kwargs):
            if not self.on:
                return fn(*args, **kwargs)
            parent = self.stack[-1][0] if self.stack else None
            span = Span(name, self.op, parent, id(args[0]) if args else None)
            span.note = pre(args, kwargs) if pre is not None else {}
            self.stack.append((len(self.spans), span))
            self.spans.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = time.perf_counter()
                self.stack.pop()
                if self.stack:
                    self.stack[-1][1].child += span.end - span.start
            if post is not None:
                span.note.update(post(result))
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap every traced function at each attribute of a loaded ompkit
        module that binds it."""
        modules = [m for key, m in sys.modules.items() if key == "ompkit" or key.startswith("ompkit.")]
        for short, names in TRACED.items():
            home = sys.modules[f"ompkit.{short}"]
            for fname in names:
                fn = getattr(home, fname)
                wrapper = self._wrap(f"{short}.{fname}", fn)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is fn:
                            setattr(module, attr, wrapper)
                            self._patches.append((module, attr, fn))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._patches):
            setattr(module, attr, fn)
        self._patches.clear()

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as out:
            for index, span in enumerate(self.spans):
                out.write(json.dumps(span.record(index)) + "\n")


def _share(part: float, whole: float) -> float:
    return part / whole if whole > 0 else 0.0


def layer_metrics(spans: list, op_busy: list, op_groups: list) -> dict:
    """Per-layer metrics from the spans of a traced run.

    ``op_busy[i]`` is the timed duration of operation ``i`` and
    ``op_groups[i]`` its group label (the box, for ``family_cli``).
    """
    by_name: dict = {}
    for span in spans:
        by_name.setdefault(span.name, []).append(span)

    def of(name):
        return by_name.get(name, [])

    def total(name, attr="self_time"):
        return sum(getattr(s, attr) for s in of(name))

    def errors(name):
        return sum(1 for s in of(name) if s.error is not None)

    def noted(name, key):
        return [s.note[key] for s in of(name) if key in s.note]

    def mean(values):
        return sum(values) / len(values) if values else 0.0

    busy = sum(op_busy)
    m = {}

    solves = of("discrimination.solve")
    m["discrimination.solve.calls"] = len(solves)
    m["discrimination.solve.self_s"] = total("discrimination.solve")
    m["discrimination.solve.errors"] = errors("discrimination.solve")
    m["discrimination.solve.n_mean"] = mean(noted("discrimination.solve", "n"))

    ks = noted("discrimination.povm_weights", "k")
    weights = of("discrimination.povm_weights")
    m["discrimination.povm_weights.calls"] = len(weights)
    m["discrimination.povm_weights.self_s"] = total("discrimination.povm_weights")
    m["discrimination.povm_weights.errors"] = errors("discrimination.povm_weights")
    m["discrimination.povm_weights.k_mean"] = mean(ks)
    m["discrimination.povm_weights.k_max"] = max(ks, default=0)
    m["discrimination.povm_weights.busy_share"] = _share(m["discrimination.povm_weights.self_s"], busy)

    choi = of("channels.is_cptp_choi")
    m["channels.is_cptp_choi.calls"] = len(choi)
    m["channels.is_cptp_choi.self_s"] = total("channels.is_cptp_choi")
    m["channels.is_cptp_choi.cptp_share"] = _share(sum(noted("channels.is_cptp_choi", "cptp")), len(choi))
    for group, label in (("box2", "share_box2"), ("box05", "share_box05")):
        ops = {i for i, g in enumerate(op_groups) if g == group}
        part = sum(s.self_time for s in choi if s.op in ops)
        m[f"channels.is_cptp_choi.{label}"] = _share(part, sum(op_busy[i] for i in ops))

    checks = of("omp_check.check_omp")
    m["omp_check.check_omp.calls"] = len(checks)
    m["omp_check.check_omp.self_s"] = total("omp_check.check_omp")
    m["omp_check.check_omp.errors"] = errors("omp_check.check_omp")
    m["omp_check.check_omp.positive_share"] = _share(sum(noted("omp_check.check_omp", "positive")), len(checks))
    # descendants of each check_omp span; its first argument identifies the
    # initial solve, any other direct solve child is the re-solve
    descend = {"discrimination.solve": 0, "discrimination.povm_weights": 0}
    child_time = {"initial_solve": 0.0, "resolve": 0.0, "weights": 0.0, "choi": 0.0}
    check_index = {i for i, s in enumerate(spans) if s.name == "omp_check.check_omp"}
    for span in spans:
        parent, ancestor = span.parent, None
        while parent is not None:
            if parent in check_index:
                ancestor = parent
                break
            parent = spans[parent].parent
        if ancestor is None:
            continue
        if span.name in descend:
            descend[span.name] += 1
        if span.parent != ancestor:
            continue
        if span.name == "discrimination.solve":
            same = span.arg0 == spans[ancestor].arg0
            child_time["initial_solve" if same else "resolve"] += span.duration
        elif span.name == "discrimination.povm_weights":
            child_time["weights"] += span.duration
        elif span.name == "channels.is_cptp_choi":
            child_time["choi"] += span.duration
    check_busy = total("omp_check.check_omp", "duration")
    m["omp_check.check_omp.solve_per_call"] = _share(descend["discrimination.solve"], len(checks))
    m["omp_check.check_omp.weights_per_call"] = _share(descend["discrimination.povm_weights"], len(checks))
    m["omp_check.check_omp.child_share"] = _share(check_busy - m["omp_check.check_omp.self_s"], check_busy)
    for key, value in child_time.items():
        m[f"omp_check.check_omp.{key}_share"] = _share(value, check_busy)

    m["omp_construct.family_for.calls"] = len(of("omp_construct.family_for"))
    m["omp_construct.family_for.busy_s"] = total("omp_construct.family_for", "duration")
    draws = sum(noted("omp_construct.sieve_admissible", "draws"))
    kept = sum(noted("omp_construct.sieve_admissible", "kept"))
    m["omp_construct.sieve_admissible.draws"] = draws
    m["omp_construct.sieve_admissible.kept"] = kept
    m["omp_construct.sieve_admissible.kept_share"] = _share(kept, draws)
    m["omp_construct.sieve_admissible.self_s"] = total("omp_construct.sieve_admissible")
    m["omp_construct.sieve_admissible.per_draw_us"] = 1e6 * _share(
        total("omp_construct.sieve_admissible", "duration"), draws
    )

    m["ensembles.make_ensemble.calls"] = len(of("ensembles.make_ensemble"))
    m["ensembles.make_ensemble.self_s"] = total("ensembles.make_ensemble")
    m["fileio.load_ensemble.calls"] = len(of("fileio.load_ensemble"))
    m["fileio.load_ensemble.busy_s"] = total("fileio.load_ensemble", "duration")
    m["cli.main.calls"] = len(of("cli.main"))
    m["cli.main.self_s"] = total("cli.main")
    m["ops.busy_s"] = busy
    return m
