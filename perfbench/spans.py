"""Layer tracing from outside the program.

`Tracer.install()` wraps the public functions of each zetakit module at
every name they are bound to: the module attribute, each `from ... import`
binding in the other zetakit modules, and closure cells of the catalogue's
term and tail functions.  Calls between layers are therefore caught.  Each
call becomes a span (name, start, end, parent); spans are kept in memory,
up to SPAN_CAP of them, and written out by `write()`.  Aggregates (calls,
total time, self time = duration minus child spans) cover every call.
"""

from __future__ import annotations

import json
import sys
import types
from time import perf_counter

SPAN_CAP = 50_000

LAYERS = {
    "exact": ("binomial", "bernoulli", "euler_number", "zeta_even_exact", "beta_odd_exact",
              "zeta_e_exact", "taylor_coeff"),
    "specfun": ("riemann_zeta", "zeta_minus_one", "hurwitz_zeta", "dirichlet_beta", "catalan",
                "euler_gamma", "polygamma", "zeta_e_weighted", "clausen_cl2", "zeta_even_float",
                "zeta_even_m1_float"),
    "catalog": ("registry", "get", "list_identities", "term", "closed_form", "printed_closed_form",
                "partial_sum", "assembled_sum", "tail_bound"),
    "quadrature": ("tanh_sinh",),
    "verifier": ("verify", "verify_all", "check_binomial_identity", "check_reciprocal_identity",
                 "quadrature", "verify_integral_identity", "cross_check_clausen",
                 "reports_to_json", "reports_to_text"),
    "convergence": ("profile", "compare", "export"),
    "cli": ("main",),
}

# Aggregate fields: calls, total seconds, self seconds, work units
# (terms_used for Cl2, evaluations for quadrature).
CALLS, TOTAL, SELF, WORK = range(4)


def _cl2_name(args, kwargs) -> str:
    method = args[1] if len(args) > 1 else kwargs.get("method", "auto")
    return "specfun.clausen_cl2_direct" if method == "direct" else "specfun.clausen_cl2"


_NAMERS = {"specfun.clausen_cl2": _cl2_name}
_WORK = {
    "specfun.clausen_cl2": lambda res: res.terms_used,
    "quadrature.tanh_sinh": lambda res: res.evaluations,
}


class Tracer:
    def __init__(self) -> None:
        self.agg: dict[str, list] = {}
        self.spans: list[tuple] = []
        self.dropped = 0
        self._stack: list[list] = []  # [child seconds, span id] per open span
        self._next_id = 0
        self._origin = perf_counter()
        self._undo: list = []

    def _wrap(self, qualname: str, fn):
        namer = _NAMERS.get(qualname)
        work = _WORK.get(qualname)
        stack = self._stack
        agg = self.agg
        spans = self.spans

        def traced(*args, **kwargs):
            name = namer(args, kwargs) if namer else qualname
            self._next_id += 1
            span_id = self._next_id
            parent = stack[-1][1] if stack else 0
            frame = [0.0, span_id]
            stack.append(frame)
            t0 = perf_counter()
            try:
                res = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                dur = t1 - t0
                if stack:
                    stack[-1][0] += dur
                a = agg.get(name)
                if a is None:
                    a = agg[name] = [0, 0.0, 0.0, 0]
                a[CALLS] += 1
                a[TOTAL] += dur
                a[SELF] += dur - frame[0]
                if len(spans) < SPAN_CAP:
                    spans.append((span_id, parent, name, t0, t1))
                else:
                    self.dropped += 1
            if work is not None:
                a[WORK] += work(res)
            return res

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Rebind every public function of every layer to its traced wrapper."""
        mods = {n: m for n, m in sys.modules.items() if n == "zetakit" or n.startswith("zetakit.")}
        wrappers: dict[int, object] = {}
        for layer, names in LAYERS.items():
            mod = mods.get(f"zetakit.{layer}")
            for name in names:
                fn = getattr(mod, name, None) if mod is not None else None
                if isinstance(fn, types.FunctionType) and id(fn) not in wrappers:
                    wrappers[id(fn)] = self._wrap(f"{layer}.{name}", fn)
        catalog = mods.get("zetakit.catalog")
        entry_fns = []
        if catalog is not None and hasattr(catalog, "registry"):
            for entry in catalog.registry().values():
                entry_fns += [v for v in vars(entry).values() if isinstance(v, types.FunctionType)]
        for mod in mods.values():
            for attr, val in list(vars(mod).items()):
                w = wrappers.get(id(val))
                if w is not None:
                    setattr(mod, attr, w)
                    self._undo.append((setattr, mod, attr, val))
        seen: set[int] = set()
        todo = entry_fns + [v for m in mods.values() for v in vars(m).values()
                            if isinstance(v, types.FunctionType)]
        while todo:
            fn = todo.pop()
            if id(fn) in seen or not fn.__module__.startswith("zetakit"):
                continue
            seen.add(id(fn))
            for cell in fn.__closure__ or ():
                try:
                    val = cell.cell_contents
                except ValueError:  # empty cell
                    continue
                w = wrappers.get(id(val))
                if w is not None:
                    cell.cell_contents = w
                    self._undo.append((_set_cell, cell, None, val))
                elif isinstance(val, types.FunctionType):
                    todo.append(val)

    def uninstall(self) -> None:
        while self._undo:
            op, target, attr, val = self._undo.pop()
            op(target, attr, val)

    def span_dicts(self, limit: int = SPAN_CAP) -> list[dict]:
        """The first `limit` kept spans, times in seconds from the tracer's start."""
        return [{"id": i, "parent": parent, "name": name,
                 "start": t0 - self._origin, "end": t1 - self._origin}
                for i, parent, name, t0, t1 in self.spans[:limit]]

    def write(self, path: str, extra: dict | None = None) -> None:
        """Write the kept spans as JSON lines, after one header line."""
        with open(path, "w", encoding="utf-8") as fh:
            head = {"spans": len(self.spans), "dropped": self.dropped, **(extra or {})}
            fh.write(json.dumps(head) + "\n")
            for span in self.span_dicts():
                fh.write(json.dumps(span) + "\n")


def _set_cell(cell, _attr, val) -> None:
    cell.cell_contents = val


def merge(aggs: list[dict]) -> dict:
    out: dict[str, list] = {}
    for agg in aggs:
        for name, a in agg.items():
            o = out.setdefault(name, [0, 0.0, 0.0, 0])
            for i in range(4):
                o[i] += a[i]
    return out


def _sum(agg: dict, names: tuple, field: int):
    return sum(agg[n][field] for n in names if n in agg)


_SPECFUN_OTHER = tuple(f"specfun.{n}" for n in (
    "riemann_zeta", "zeta_minus_one", "hurwitz_zeta", "dirichlet_beta", "catalan",
    "euler_gamma", "polygamma", "zeta_e_weighted"))
_ZETA_EVEN = ("specfun.zeta_even_float", "specfun.zeta_even_m1_float")
_EXACT = tuple(f"exact.{n}" for n in LAYERS["exact"])


def layer_metrics(agg: dict) -> dict[str, float]:
    """The per-layer metrics of one traced pass, from its aggregates."""
    tail_calls = _sum(agg, ("catalog.tail_bound",), CALLS)
    checks = _sum(agg, ("verifier.verify",), CALLS)
    return {
        "catalog.tail_bound_calls": tail_calls,
        "catalog.tail_bound_self_s": _sum(agg, ("catalog.tail_bound",), SELF),
        "verifier.tail_bound_calls_per_check": tail_calls / checks if checks else 0.0,
        "catalog.sum_self_s": _sum(agg, ("catalog.term", "catalog.partial_sum", "catalog.assembled_sum"), SELF),
        "catalog.closed_form_self_s": _sum(agg, ("catalog.closed_form", "catalog.printed_closed_form"), SELF),
        "specfun.zeta_even_calls": _sum(agg, _ZETA_EVEN, CALLS),
        "specfun.zeta_even_self_s": _sum(agg, _ZETA_EVEN, SELF),
        "specfun.cl2_calls": _sum(agg, ("specfun.clausen_cl2",), CALLS),
        "specfun.cl2_terms": _sum(agg, ("specfun.clausen_cl2",), WORK),
        "specfun.cl2_self_s": _sum(agg, ("specfun.clausen_cl2",), SELF),
        "specfun.cl2_direct_terms": _sum(agg, ("specfun.clausen_cl2_direct",), WORK),
        "specfun.cl2_direct_self_s": _sum(agg, ("specfun.clausen_cl2_direct",), SELF),
        "verifier.cross_check_s": _sum(agg, ("verifier.cross_check_clausen",), TOTAL),
        "specfun.other_self_s": _sum(agg, _SPECFUN_OTHER, SELF),
        "quadrature.evaluations": _sum(agg, ("quadrature.tanh_sinh",), WORK),
        "quadrature.self_s": _sum(agg, ("quadrature.tanh_sinh",), SELF),
        "verifier.integral_s": _sum(agg, ("verifier.verify_integral_identity",), TOTAL),
        "exact.calls": _sum(agg, _EXACT, CALLS),
        "exact.self_s": _sum(agg, _EXACT, SELF),
        "convergence.profile_self_s": _sum(agg, ("convergence.profile",), SELF),
    }
