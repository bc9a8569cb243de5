"""Per-layer tracing of deltaq, installed from outside the program.

``Tracer.install`` replaces the public functions of each deltaq module (and a
few named private layer boundaries) with wrappers that record one span per
call: name, start, end and the span that was open when the call began.  A
function imported elsewhere with ``from ... import`` is replaced in every
importing module, and the identity registry's references to the ``check_*``
functions are replaced too, so no call escapes its span.

Calls too frequent to record as spans are counted instead: the field
operations ``+ - * /`` on elements of ``qfield.FIELD``, sympy's
``PolyElement.cancel`` behind them (calls and time, which stays inside the
self time of the enclosing span), the permutations ``ParkingFunction.all_on``
filters and the multiset permutations the Macdonald fillings enumerate.

Spans live in flat arrays until ``layer_totals`` derives, per name, the call
count, the inclusive time of the outermost calls and the self time (duration
minus the time covered by child spans).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from array import array

MODULES = ("qfield", "partition", "tableaux", "symfunc", "hall_littlewood",
           "delta_ops", "parking", "verify")

# Private functions that are layer boundaries worth a span of their own.
PRIVATE_SPANS = {
    "hall_littlewood": ("_p_table", "_p_table_invq"),
    "parking": ("_monomials_to_symfunc",),
}

# Static methods traced as module-level layer functions: (module, class, method).
METHOD_SPANS = (("parking", "ParkingFunction", "all_on"),
                ("parking", "DyckPath", "all_paths"))

FIELD_OPS = ("__add__", "__radd__", "__sub__", "__rsub__",
             "__mul__", "__rmul__", "__truediv__", "__rtruediv__")

_MISSING = object()


def deltaq_modules() -> dict[str, object]:
    return {name: importlib.import_module(f"deltaq.{name}") for name in MODULES}


def lru_caches(mods: dict[str, object]) -> dict[str, object]:
    """Every ``functools.lru_cache`` defined in deltaq, keyed ``module.name``.

    Call before ``Tracer.install``: the wrappers hide ``cache_info``.
    """
    return {f"{mname}.{attr}": fn
            for mname, mod in mods.items() for attr, fn in vars(mod).items()
            if hasattr(fn, "cache_info") and getattr(fn, "__module__", None) == mod.__name__}


def clear_caches(caches: dict[str, object]) -> None:
    for fn in caches.values():
        fn.cache_clear()


def cache_stats(caches: dict[str, object]) -> dict[str, dict[str, int]]:
    out = {}
    for name, fn in caches.items():
        info = fn.cache_info()
        out[name] = {"entries": info.currsize, "hits": info.hits, "misses": info.misses}
    return out


def _is_function(obj) -> bool:
    return not inspect.isclass(obj) and (inspect.isfunction(obj) or hasattr(obj, "cache_info"))


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_outer = array("b")  # 1 if no span of the same name encloses it
        self.counts: dict[str, float] = {}
        self._stack = [-1]
        self._active: list[int] = []
        self._undo: list[tuple[object, str, object]] = []
        self._registry = ({}, {})

    # -- recording ------------------------------------------------------------

    def _wrap(self, name: str, fn, after=None):
        nid = len(self.names)
        self.names.append(name)
        self._active.append(0)
        span_name, span_parent = self.span_name, self.span_parent
        span_start, span_end, span_outer = self.span_start, self.span_end, self.span_outer
        stack, active, clock = self._stack, self._active, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(span_start)
            span_name.append(nid)
            span_parent.append(stack[-1])
            span_outer.append(active[nid] == 0)
            active[nid] += 1
            stack.append(idx)
            span_end.append(0.0)
            span_start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                span_end[idx] = clock()
                stack.pop()
                active[nid] -= 1
            if after is not None:
                after(result)
            return result

        return traced

    def _count_items(self, key: str, gen_fn):
        counts = self.counts
        counts.setdefault(key, 0)

        @functools.wraps(gen_fn)
        def counted(*args, **kwargs):
            for item in gen_fn(*args, **kwargs):
                counts[key] += 1
                yield item

        return counted

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, vars(owner).get(attr, _MISSING)))
        setattr(owner, attr, value)

    # -- installation ---------------------------------------------------------

    def install(self, mods: dict[str, object]) -> None:
        counts = self.counts
        wrapped: dict[int, tuple[object, object]] = {}
        for mname, mod in mods.items():
            public = [a for a, o in vars(mod).items()
                      if not a.startswith("_") and _is_function(o)
                      and o.__module__ == mod.__name__]
            for attr in public + list(PRIVATE_SPANS.get(mname, ())):
                fn = getattr(mod, attr)
                wrapped[id(fn)] = (fn, self._wrap(f"{mname}.{attr}", fn))
        # rebind every reference, including names imported with `from ... import`
        for mod in mods.values():
            for attr, obj in list(vars(mod).items()):
                hit = wrapped.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._set(mod, attr, hit[1])
        registry = mods["verify"].REGISTRY
        self._registry = (registry, dict(registry))
        for key, entry in list(registry.items()):
            hit = wrapped.get(id(entry.check))
            if hit is not None and hit[0] is entry.check:
                registry[key] = type(entry)(**{**vars(entry), "check": hit[1]})

        counts.setdefault("parking.pfs", 0)

        def count_pfs(result):
            counts["parking.pfs"] += len(result)

        for mname, cname, meth in METHOD_SPANS:
            cls = getattr(mods[mname], cname)
            fn = vars(cls)[meth].__func__
            after = count_pfs if meth == "all_on" else None
            self._set(cls, meth, staticmethod(self._wrap(f"{mname}.{meth}", fn, after)))

        hl, pk = mods["hall_littlewood"], mods["parking"]
        self._set(hl, "multiset_permutations",
                  self._count_items("hall_littlewood.fillings", hl.multiset_permutations))
        self._set(pk, "permutations",
                  self._count_items("parking.perms_tried", pk.permutations))
        self._install_field_counters(mods["qfield"].FIELD)

    def _install_field_counters(self, field) -> None:
        """Count + - * / on elements of ``field`` and time the cancellation behind them.

        sympy shares one element class among all fields and rings, so the
        counters check that the operand belongs to ``field``.
        """
        counts, clock = self.counts, time.perf_counter
        counts.update({"qfield.field_ops": 0, "qfield.cancel.calls": 0, "qfield.cancel.s": 0.0})
        depth = [0]

        def counting(op):
            def field_op(a, b):
                if depth[0] or a.field is not field:  # a delegating operator counts once
                    return op(a, b)
                depth[0] = 1
                counts["qfield.field_ops"] += 1
                try:
                    return op(a, b)
                finally:
                    depth[0] = 0
            return field_op

        frac_cls = type(field.one)
        for name in FIELD_OPS:
            self._set(frac_cls, name, counting(getattr(frac_cls, name)))

        ring = field.ring
        poly_cls = type(ring.one)
        cancel = poly_cls.cancel

        def timed_cancel(f, g):
            if f.ring is not ring:
                return cancel(f, g)
            started = clock()
            try:
                return cancel(f, g)
            finally:
                counts["qfield.cancel.s"] += clock() - started
                counts["qfield.cancel.calls"] += 1

        self._set(poly_cls, "cancel", timed_cancel)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, old = self._undo.pop()
            if old is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, old)
        registry, original = self._registry
        registry.update(original)

    # -- totals ---------------------------------------------------------------

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds of outermost calls, self seconds."""
        start, end, parent = self.span_start, self.span_end, self.span_parent
        dur = [e - s for s, e in zip(start, end)]
        covered = [0.0] * len(dur)
        for i, p in enumerate(parent):
            if p >= 0:
                covered[p] += dur[i]
        totals = {name: {"calls": 0, "s": 0.0, "self_s": 0.0} for name in self.names}
        for i, nid in enumerate(self.span_name):
            row = totals[self.names[nid]]
            row["calls"] += 1
            if self.span_outer[i]:
                row["s"] += dur[i]
            row["self_s"] += dur[i] - covered[i]
        return totals
