"""Layer spans recorded from outside the engine.

``Tracer.install`` wraps a fixed list of public icmlab functions and
methods and rebinds every reference to them in the icmlab module and class
namespaces, so calls made through ``from .ideal_engine import saturate``
style imports are caught too.  Each wrapped call records one span: name,
start, end, parent span, query id, a flags byte and one auxiliary integer.
Spans stay in flat arrays in memory and are written out once, at exit.

``summarize`` turns the arrays back into per-layer numbers: call counts,
self time (a span's duration minus the time its child spans cover) and
inclusive time (outermost spans of a name only).
"""
from __future__ import annotations

import functools
import sys
import time
from array import array

from workloads import SUITE_IDS

# (defining module, attribute path): the layer boundaries the per-layer
# metrics need, and nothing else, so that narrowing the public API elsewhere
# does not break tracing.  Every entry must be found and rebound, or
# installation fails.  The monomial_* and FieldSpec helpers are left alone
# on purpose: they run >10^5 times per pass inside divide, and their cost
# stays in divide's self time.
TARGETS = (
    ("ring_core", "remap_variables"),
    ("ring_core", "Polynomial.__add__"),
    ("ring_core", "Polynomial.__sub__"),
    ("ring_core", "Polynomial.__mul__"),
    ("ring_core", "Polynomial.shift"),
    ("ring_core", "Polynomial.monic"),
    ("ideal_engine", "divide"),
    ("ideal_engine", "s_polynomial"),
    ("ideal_engine", "buchberger"),
    ("ideal_engine", "ideal_intersect"),
    ("ideal_engine", "ideal_quotient"),
    ("ideal_engine", "ideal_quotient_ideal"),
    ("ideal_engine", "saturate"),
    ("invariants", "krull_dimension"),
    ("invariants", "height"),
    ("invariants", "minimal_primes_monomial"),
    ("invariants", "associated_primes_monomial"),
    ("invariants", "find_regular_element"),
    ("invariants", "grade"),
    ("icm_checker", "icm_report"),
    ("icm_checker", "is_cohen_macaulay_graded"),
    ("icm_checker", "check_grade_height"),
    ("icm_checker", "quotient_transport"),
    ("icm_checker", "subideal_transfer_check"),
    ("icm_checker", "annihilator_transport"),
    ("icm_checker", "ass_dimension_check"),
    ("icm_checker", "localization_cm_check"),
    ("icm_checker", "polynomial_extension_check"),
    ("icm_checker", "cm_implies_icm_check"),
    ("theorem_lab", "run_trial"),
    ("theorem_lab", "run_suite"),
    ("cli_app", "parse"),
    ("cli_app", "execute"),
    ("cli_app", "main"),
)

NAMES = tuple("%s.%s" % t for t in TARGETS)
RAISED = 1  # flags bit: the call ended in an exception
NESTED = 2  # flags bit: a span of the same name was already open
NO_PARENT = 0xFFFFFFFF

# name -> how the auxiliary integer is filled
_AUX = {
    "ideal_engine.buchberger": "repeat",  # 1 when the input was seen before in this process
    "ideal_engine.divide": "terms_in",  # term count of the dividend
    "theorem_lab.run_suite": "suite",  # index of the suite id in SUITE_IDS
}


class TraceError(RuntimeError):
    """A listed target could not be found or rebound."""


class Tracer:
    def __init__(self) -> None:
        self.qid = 0
        self.name = array("B")
        self.parent = array("I")
        self.query = array("H")
        self.flags = array("B")
        self.aux = array("Q")
        self.start = array("d")
        self.end = array("d")
        self._stack = [NO_PARENT]
        self._open = [0] * len(NAMES)
        self._seen_gb = set()

    # -- installation ---------------------------------------------------

    def install(self) -> None:
        """Wrap every target and rebind every reference to it."""
        modules = {
            name: mod
            for name, mod in list(sys.modules.items())
            if name == "icmlab" or name.startswith("icmlab.")
        }
        containers = list(modules.values())
        classes = {
            id(obj): obj
            for m in modules.values()
            for obj in vars(m).values()
            if isinstance(obj, type) and obj.__module__.startswith("icmlab")
        }
        containers += list(classes.values())
        for name_id, (mod_name, path) in enumerate(TARGETS):
            owner = modules.get("icmlab." + mod_name)
            if owner is None:
                raise TraceError("module icmlab.%s is not loaded" % mod_name)
            for part in path.split(".")[:-1]:
                owner = getattr(owner, part, None)
            original = getattr(owner, path.split(".")[-1], None)
            if not callable(original):
                raise TraceError("traced name %s.%s not found" % (mod_name, path))
            wrapper = self._wrap(original, name_id)
            hits = 0
            for container in containers:
                for key in [k for k, v in vars(container).items() if v is original]:
                    setattr(container, key, wrapper)
                    hits += 1
            if hits == 0:
                raise TraceError("traced name %s.%s was not rebound" % (mod_name, path))

    def _wrap(self, fn, name_id: int):
        aux_kind = _AUX.get(NAMES[name_id])
        name_a, parent_a, query_a = self.name, self.parent, self.query
        flags_a, aux_a, start_a, end_a = self.flags, self.aux, self.start, self.end
        stack, open_ = self._stack, self._open
        seen_gb = self._seen_gb
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if aux_kind == "repeat":
                args, kwargs, aux = _gb_repeat(seen_gb, args, kwargs)
            elif aux_kind == "terms_in":
                aux = len(args[0].terms)
            elif aux_kind == "suite":
                suite = args[0] if args else kwargs.get("suite_id")
                aux = SUITE_IDS.index(suite) if suite in SUITE_IDS else len(SUITE_IDS)
            else:
                aux = 0
            i = len(name_a)
            name_a.append(name_id)
            parent_a.append(stack[-1])
            query_a.append(tracer.qid)
            flags_a.append(NESTED if open_[name_id] else 0)
            aux_a.append(aux)
            end_a.append(0.0)
            stack.append(i)
            open_[name_id] += 1
            start_a.append(clock())
            try:
                return fn(*args, **kwargs)
            except BaseException:
                flags_a[i] |= RAISED
                raise
            finally:
                end_a[i] = clock()
                open_[name_id] -= 1
                stack.pop()

        return wrapper

    # -- output -----------------------------------------------------------

    def dump(self, path: str) -> dict:
        """Write the span arrays to ``path``; returns the layout for ``load``."""
        arrays = self._arrays()
        with open(path, "wb") as handle:
            for arr in arrays.values():
                arr.tofile(handle)
        return {"path": path, "count": len(self.name), "names": list(NAMES)}

    def _arrays(self) -> dict:
        return {
            "name": self.name,
            "parent": self.parent,
            "query": self.query,
            "flags": self.flags,
            "aux": self.aux,
            "start": self.start,
            "end": self.end,
        }


def _gb_repeat(seen: set, args: tuple, kwargs: dict):
    """Key a buchberger call by (ring, order, generator set)."""
    gens = list(args[0]) if args else list(kwargs.pop("generators"))
    ring = kwargs.get("ring") or (gens[0].ring if gens else None)
    order = kwargs.get("order") or (ring.order if ring is not None else None)
    # the hash alone is kept, so the seen set holds no polynomials alive
    key = hash((ring, order, frozenset(gens)))
    repeat = 1 if key in seen else 0
    seen.add(key)
    return (gens,) + tuple(args[1:]), kwargs, repeat


def load(layout: dict) -> dict:
    """Read span arrays written by ``Tracer.dump``."""
    template = Tracer()._arrays()
    count = layout["count"]
    with open(layout["path"], "rb") as handle:
        for arr in template.values():
            arr.fromfile(handle, count)
    template["names"] = layout["names"]
    return template


def summarize(spans: dict) -> dict:
    """Per-name calls, self seconds, inclusive seconds, aux sum and raised
    count; call counts per (name, parent name); inclusive seconds per
    (name, aux value)."""
    names = spans["names"]
    name, parent, flags = spans["name"], spans["parent"], spans["flags"]
    aux, start, end = spans["aux"], spans["start"], spans["end"]
    n = len(name)
    child = [0.0] * n
    for i in range(n):
        p = parent[i]
        if p != NO_PARENT:
            child[p] += end[i] - start[i]
    out = {
        nm: {"calls": 0, "self_s": 0.0, "incl_s": 0.0, "aux": 0, "raised": 0}
        for nm in names
    }
    by_parent: dict = {}
    incl_by_aux: dict = {}
    for i in range(n):
        nm = names[name[i]]
        rec = out[nm]
        dur = end[i] - start[i]
        rec["calls"] += 1
        rec["self_s"] += dur - child[i]
        rec["aux"] += aux[i]
        if flags[i] & RAISED:
            rec["raised"] += 1
        if not flags[i] & NESTED:
            rec["incl_s"] += dur
            key = (nm, aux[i])
            incl_by_aux[key] = incl_by_aux.get(key, 0.0) + dur
        p = parent[i]
        if p != NO_PARENT:
            key = (nm, names[name[p]])
            by_parent[key] = by_parent.get(key, 0) + 1
    return {"names": out, "by_parent": by_parent, "incl_by_aux": incl_by_aux, "spans": n}
