"""Spans around the package's public functions, installed from outside.

The tracer replaces each traced function, in every cutcodes module
namespace that binds it, with a wrapper that records a span: name, start,
end, parent span and job id. Spans stay in memory and are written out when
the run ends. Per-layer metrics are computed from the spans afterwards:
inclusive time counts only the outermost span of a name, and self time is
a span's duration minus its direct children's.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time
from collections import Counter, defaultdict

import numpy as np

# (owner, attribute, span name); owner "module" or "module:Class"
TRACED = [
    ("cutcodes.field", "field_from_order", "field.field_from_order"),
    ("cutcodes.bulk", "ops_for", "field.ops_for"),
    ("cutcodes.bulk:FieldOps", "add", "bulk.add"),
    ("cutcodes.bulk:FieldOps", "mul_scalar", "bulk.mul_scalar"),
    ("cutcodes.bulk:FieldOps", "neg", "bulk.neg"),
    ("cutcodes.bulk:FieldOps", "mul", "bulk.mul"),
    ("cutcodes.bulk:FieldOps", "add_scalar", "bulk.add_scalar"),
    ("cutcodes.codes", "build_affine_code", "codes.build"),
    ("cutcodes.codes", "build_projective_code", "codes.build"),
    ("cutcodes.codes", "load_generator_matrix", "codes.load_matrix"),
    ("cutcodes.codes", "weight_distribution", "codes.weight_distribution"),
    ("cutcodes.codes", "is_minimal", "codes.is_minimal"),
    ("cutcodes.codes", "is_minimal_bruteforce", "codes.bruteforce"),
    ("cutcodes.codes", "is_minimal_weightsum", "codes.weightsum"),
    ("cutcodes.codes", "is_minimal_theorem", "codes.theorem_route"),
    ("cutcodes.codes", "ab_check", "codes.ab_check"),
    ("cutcodes.blocking", "theorem_hypotheses", "blocking.theorem"),
    ("cutcodes.blocking", "blocking_report", "blocking.report"),
    ("cutcodes.blocking", "is_blocking", "blocking.is_blocking"),
    ("cutcodes.blocking", "is_cutting", "blocking.is_cutting"),
    ("cutcodes.blocking", "is_ks_blocking", "blocking.is_ks_blocking"),
    ("cutcodes.blocking", "shift_vanishes_on_support", "blocking.shift"),
    ("cutcodes.blocking", "support_spans", "blocking.support_spans"),
    ("cutcodes.blocking", "set_dimension", "blocking.set_dimension"),
    ("cutcodes.geometry:Space", "dot_all", "geometry.dot_all"),
    ("cutcodes.geometry:Space", "affine_point_encodings", "geometry.point_encodings"),
    ("cutcodes.geometry:Space", "projective_point_encodings", "geometry.point_encodings"),
    ("cutcodes.geometry:RowReducer", "absorb", "geometry.absorb"),
    ("cutcodes.geometry", "load_point_set", "geometry.load_point_set"),
    ("cutcodes.functions", "zero_set", "functions.zero_set"),
    ("cutcodes.functions:*FunctionSpec", "evaluate_block", "functions.evaluate_block"),
]
# generators get a counting wrapper and no span: their time belongs to the consumer
COUNTED = [("cutcodes.geometry:Space", "subspaces", "geometry.subspaces.yielded")]

_MINIMALITY_ROUTES = ("codes.weight_distribution", "codes.bruteforce", "codes.weightsum", "codes.theorem_route")

# span fields
NAME, START, END, PARENT, JOB, INFO, ERROR = range(7)


class Tracer:
    """Spans in memory: [name, start, end, parent index, job, info, error]."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.job = None
        self.reset()

    def enter(self, name: str) -> int:
        stack = self.stack
        self.spans.append([name, self.clock(), 0.0, stack[-1] if stack else -1, self.job, None, None])
        idx = len(self.spans) - 1
        stack.append(idx)
        return idx

    def exit(self, idx: int):
        self.spans[idx][END] = self.clock()
        self.stack.pop()

    def raised(self, idx: int, exc: BaseException):
        """Mark the span; origin=True only where the exception first surfaced."""
        origin = not any(e is exc for e in self._seen_errors)
        if origin:
            self._seen_errors.append(exc)
        self.spans[idx][ERROR] = (type(exc).__name__, origin)

    def reset(self):
        self.spans, self.stack, self.counts, self._seen_errors = [], [], Counter(), []


def _bulk_info(args, result):
    """(elements out, bytes read and written), computed from dtype and size."""
    return (result.size, result.nbytes + sum(a.nbytes for a in args[1:] if isinstance(a, np.ndarray)))


def _false_count(*verdicts) -> int:
    return sum(v is False for v in verdicts)


# what each span keeps from its call, computed after the call returns
_INFO = {
    **{name: _bulk_info for _, _, name in TRACED if name.startswith("bulk.")},
    "codes.bruteforce": lambda args, r: (r.pairs_checked, args[0].num_classes, r.minimal),
    "codes.weightsum": lambda args, r: (r.pairs_checked, args[0].num_classes, r.minimal),
    "codes.weight_distribution": lambda args, r: (0, args[0].num_classes, True),
    "codes.theorem_route": lambda args, r: (0, 0, r.minimal),
    "blocking.report": lambda args, r: _false_count(r.blocking, r.cutting, r.ks_blocking),
    "blocking.theorem": lambda args, r: _false_count(r.cutting_ok, r.exclusion_ok),
}


def _span_wrapper(tracer: Tracer, name: str, fn):
    info = _INFO.get(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = tracer.enter(name)
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            tracer.raised(idx, exc)
            raise
        finally:
            tracer.exit(idx)
        if info is not None:
            tracer.spans[idx][INFO] = info(args, result)
        return result

    return wrapper


def _count_wrapper(tracer: Tracer, name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        for item in fn(*args, **kwargs):
            tracer.counts[name] += 1
            yield item

    return wrapper


def _owners(spec: str):
    """The objects whose attribute to patch: a module, a class, or a class tree."""
    mod_name, _, cls = spec.partition(":")
    mod = sys.modules[mod_name]
    if not cls:
        return [mod]
    if cls.startswith("*"):
        root = getattr(mod, cls[1:])
        tree, todo = [], [root]
        while todo:
            c = todo.pop()
            tree.append(c)
            todo.extend(c.__subclasses__())
        return tree
    return [getattr(mod, cls)]


class Installed:
    """Context manager: wrappers in place inside, originals restored after."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.undo = []

    def __enter__(self):
        namespaces = [m for n, m in list(sys.modules.items()) if n == "cutcodes" or n.startswith("cutcodes.")]
        for table, make in ((TRACED, _span_wrapper), (COUNTED, _count_wrapper)):
            for spec, attr, name in table:
                for owner in _owners(spec):
                    if attr not in vars(owner):
                        continue
                    original = vars(owner)[attr]
                    wrapper = make(self.tracer, name, original)
                    if isinstance(owner, type):
                        self._patch(owner, attr, original, wrapper)
                        continue
                    for ns in namespaces:  # every module that imported the name
                        for key, val in list(vars(ns).items()):
                            if val is original:
                                self._patch(ns, key, original, wrapper)
        return self.tracer

    def _patch(self, owner, attr, original, wrapper):
        setattr(owner, attr, wrapper)
        self.undo.append((owner, attr, original))

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self.undo):
            setattr(owner, attr, original)
        self.undo = []
        return False


# metrics -------------------------------------------------------------------

LAYER_TIMES = {
    "field.setup_s": ("field.field_from_order", "field.ops_for"),
    "bulk.add_s": ("bulk.add",),
    "bulk.mul_scalar_s": ("bulk.mul_scalar",),
    "bulk.neg_s": ("bulk.neg",),
    "codes.build_s": ("codes.build",),
    "codes.load_matrix_s": ("codes.load_matrix",),
    "codes.weight_distribution_s": ("codes.weight_distribution",),
    "codes.bruteforce_s": ("codes.bruteforce",),
    "codes.weightsum_s": ("codes.weightsum",),
    "blocking.theorem_s": ("blocking.theorem",),
    "blocking.report_s": ("blocking.report",),
    "blocking.is_blocking_s": ("blocking.is_blocking",),
    "blocking.is_cutting_s": ("blocking.is_cutting",),
    "blocking.is_ks_blocking_s": ("blocking.is_ks_blocking",),
    "blocking.shift_s": ("blocking.shift",),
    "blocking.support_spans_s": ("blocking.support_spans",),
    "blocking.set_dimension_s": ("blocking.set_dimension",),
    "geometry.dot_all_s": ("geometry.dot_all",),
    "geometry.point_encodings_s": ("geometry.point_encodings",),
    "geometry.absorb_s": ("geometry.absorb",),
    "geometry.load_point_set_s": ("geometry.load_point_set",),
    "functions.zero_set_s": ("functions.zero_set",),
    "functions.evaluate_block_s": ("functions.evaluate_block",),
}

UNITS = {
    **{k: "s" for k in LAYER_TIMES},
    "bulk.add.calls": "count",
    "bulk.add.elems": "count",
    "bulk.mul_scalar.elems": "count",
    "bulk.elems_per_s": "elem/s",
    "bulk.bytes_computed": "B",
    "codes.weight_distribution.calls": "count",
    "codes.classes": "count",
    "codes.bruteforce.pairs": "count",
    "codes.weightsum.pairs": "count",
    "codes.ab_check_s": "s",
    "codes.refused": "count",
    "codes.wasted_s": "s",
    "codes.useful_ratio": "ratio",
    "blocking.false_verdicts": "count",
    "geometry.subspaces.yielded": "count",
    "geometry.absorb.calls": "count",
    "cli.self_s": "s",
    "trace.overhead": "ratio",
}


def layer_metrics(tracer: Tracer, refused_jobs: set, cli_jobs: set) -> dict:
    """Per-layer numbers of one traced pass; refused_jobs/cli_jobs are job ids."""
    spans = tracer.spans
    dur = [s[END] - s[START] for s in spans]
    children = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s[PARENT] >= 0:
            children[s[PARENT]] += dur[i]
    by_name = defaultdict(float)
    calls = Counter()
    for i, s in enumerate(spans):
        calls[s[NAME]] += 1
        p = s[PARENT]
        while p >= 0 and spans[p][NAME] != s[NAME]:
            p = spans[p][PARENT]
        if p < 0:  # outermost span of its name
            by_name[s[NAME]] += dur[i]
    m = {k: sum(by_name[n] for n in names) for k, names in LAYER_TIMES.items()}

    bulk = [i for i, s in enumerate(spans) if s[NAME].startswith("bulk.") and s[INFO]]
    elems = Counter()
    for i in bulk:
        elems[spans[i][NAME]] += spans[i][INFO][0]
    bulk_time = sum(dur[i] for i in bulk)
    m["bulk.add.calls"] = calls["bulk.add"]
    m["bulk.add.elems"] = elems["bulk.add"]
    m["bulk.mul_scalar.elems"] = elems["bulk.mul_scalar"]
    m["bulk.elems_per_s"] = sum(elems.values()) / bulk_time if bulk_time else 0.0
    m["bulk.bytes_computed"] = sum(spans[i][INFO][1] for i in bulk)

    m["codes.weight_distribution.calls"] = calls["codes.weight_distribution"]
    m["codes.classes"] = 0
    m["codes.bruteforce.pairs"] = 0
    m["codes.weightsum.pairs"] = 0
    attempted = useful = 0
    m["codes.refused"] = 0
    m["codes.wasted_s"] = 0.0
    m["codes.ab_check_s"] = 0.0
    m["blocking.false_verdicts"] = 0
    m["cli.self_s"] = 0.0
    for i, s in enumerate(spans):
        name, info, err = s[NAME], s[INFO], s[ERROR]
        if name.startswith("codes."):
            if err and err[0] == "BudgetExceeded" and err[1]:
                m["codes.refused"] += 1
            parent = s[PARENT]
            if s[JOB] in refused_jobs and (parent < 0 or not spans[parent][NAME].startswith("codes.")):
                m["codes.wasted_s"] += dur[i]
        if name in _MINIMALITY_ROUTES:
            attempted += 1
            if info is not None and info[2] is not None:
                useful += 1
            if info is not None:
                m["codes.classes"] += info[1]
        if name == "codes.bruteforce" and info:
            m["codes.bruteforce.pairs"] += info[0]
        elif name == "codes.weightsum" and info:
            m["codes.weightsum.pairs"] += info[0]
        elif name == "codes.ab_check":
            m["codes.ab_check_s"] += dur[i] - children[i]
        elif name in ("blocking.report", "blocking.theorem") and info is not None:
            m["blocking.false_verdicts"] += info
        elif name == "job" and s[JOB] in cli_jobs:
            m["cli.self_s"] += dur[i] - children[i]
    m["codes.useful_ratio"] = useful / attempted if attempted else 0.0
    m["geometry.subspaces.yielded"] = tracer.counts["geometry.subspaces.yielded"]
    m["geometry.absorb.calls"] = calls["geometry.absorb"]
    return m


def write_spans(tracer: Tracer, path, job_ids: list):
    """Spans as gzip'd JSON lines: [name, start, end, parent, job id]."""
    with gzip.open(path, "wt", encoding="utf-8") as fh:
        for s in tracer.spans:
            job = job_ids[s[JOB]] if s[JOB] is not None else None
            fh.write(json.dumps([s[NAME], s[START], s[END], s[PARENT], job]) + "\n")
