"""Spans around the calls into woldlab's layers, recorded from outside the package.

``Tracer.install()`` wraps every public function and every public method
(plus ``__init__`` and cached properties) of the six layer modules
``space``, ``instances``, ``operators``, ``decomp``, ``measures`` and ``cli``.
A function is replaced in *every* ``woldlab`` module namespace that holds it:
``decomp`` imports the ``operators`` functions by name and ``cli`` imports
the ``decomp`` functions by name, so a wrapper installed only on the defining
module would miss every call made from inside the package.

Spans (name, start, end, parent) are kept in memory; ``layer_metrics``
derives inclusive times, self times and call counts from them once the run
is over.  The package itself is not modified on disk.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import sys
import time
from collections import Counter

LAYERS = ("space", "instances", "operators", "decomp", "measures", "cli")

# spans whose first argument's dimension is recorded, for the growth slopes
_DIM_SPANS = ("decomp.wold_single", "decomp.wold_pair")


class Tracer:
    """Records one span per wrapped call while installed."""

    def __init__(self):
        self.spans = []      # [name, start, end, parent index, dimension]
        self._stack = []
        self._undo = []

    # -- recording ----------------------------------------------------------

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter
        want_dim = name in _DIM_SPANS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            dim = args[0].dom.dim_total if want_dim else None
            idx = len(spans)
            spans.append([name, clock(), None, stack[-1] if stack else -1, dim])
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                spans[idx][2] = clock()
                stack.pop()

        return traced

    # -- installation -------------------------------------------------------

    def install(self):
        """Wrap the layer functions in every woldlab namespace; idempotent per tracer."""
        if self._undo:
            return self
        package = importlib.import_module("woldlab")
        layer_mods = {layer: importlib.import_module(f"woldlab.{layer}") for layer in LAYERS}
        namespaces = [package] + [mod for name, mod in sorted(sys.modules.items())
                                  if name.startswith("woldlab.") and mod is not None]
        replaced = {}
        for layer, mod in layer_mods.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    replaced[id(obj)] = (obj, self._wrap(f"{layer}.{attr}", obj))
                elif inspect.isclass(obj):
                    self._wrap_class(layer, obj)
        for ns in namespaces:
            for attr, obj in list(vars(ns).items()):
                hit = replaced.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(ns, attr, hit[1])
                    self._undo.append((ns, attr, obj))
        return self

    def _wrap_class(self, layer, cls):
        for attr, obj in list(vars(cls).items()):
            if attr.startswith("_") and attr not in ("__init__", "__post_init__"):
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if inspect.isfunction(obj):
                new = self._wrap(name, obj)
            elif isinstance(obj, classmethod):
                new = classmethod(self._wrap(name, obj.__func__))
            elif isinstance(obj, staticmethod):
                new = staticmethod(self._wrap(name, obj.__func__))
            elif isinstance(obj, functools.cached_property):
                new = functools.cached_property(self._wrap(name, obj.func))
                new.__set_name__(cls, attr)
            else:
                continue
            setattr(cls, attr, new)
            self._undo.append((cls, attr, obj))

    def uninstall(self):
        while self._undo:
            owner, attr, obj = self._undo.pop()
            setattr(owner, attr, obj)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()
        return False


# ---------------------------------------------------------------------------
# derivation of the per-layer metrics
# ---------------------------------------------------------------------------

def summarize(spans) -> dict:
    """Inclusive time and call count per span name; inclusive and self time per layer.

    Inclusive time counts only the outermost span of a name (or of a layer),
    so work reached again below itself is not counted twice.  Self time is a
    span's duration minus the time its child spans cover.
    """
    incl, calls = Counter(), Counter()
    layer_incl, layer_self = Counter(), Counter()
    child_time = [0.0] * len(spans)
    above = [None] * len(spans)
    for i, (name, start, end, parent, _dim) in enumerate(spans):
        dur = end - start
        layer = name.split(".", 1)[0]
        outer = above[parent] if parent >= 0 else frozenset()
        above[i] = outer | {name, layer}
        calls[name] += 1
        if name not in outer:
            incl[name] += dur
        if layer not in outer:
            layer_incl[layer] += dur
        if parent >= 0:
            child_time[parent] += dur
    for i, (name, start, end, _parent, _dim) in enumerate(spans):
        layer_self[name.split(".", 1)[0]] += (end - start) - child_time[i]
    return {"incl": incl, "calls": calls,
            "layer_incl": layer_incl, "layer_self": layer_self}


def growth_slope(spans, name: str) -> float:
    """Least-squares slope of log(time) against log(D) over the spans of ``name``.

    0.0 when the spans cover fewer than two distinct dimensions.
    """
    pts = [(math.log(dim), math.log(end - start))
           for n, start, end, _p, dim in spans if n == name and dim]
    if len({x for x, _ in pts}) < 2:
        return 0.0
    mx = sum(x for x, _ in pts) / len(pts)
    my = sum(y for _, y in pts) / len(pts)
    sxx = sum((x - mx) ** 2 for x, _ in pts)
    sxy = sum((x - mx) * (y - my) for x, y in pts)
    return sxy / sxx


def layer_metrics(summary: dict, spans, rounds: int) -> dict:
    """The per-layer metrics of BENCHMARK.json, per traced round, without units."""
    incl, calls, lself = summary["incl"], summary["calls"], summary["layer_self"]

    def t(*names):
        return sum(incl[n] for n in names) / rounds

    def c(*names):
        return sum(calls[n] for n in names) / rounds

    out = {
        "space.build_space_s": t("space.build_space"),
        "space.build_space_calls": c("space.build_space"),
        "space.chol_s": t("space.HilbertSpace.chol"),
        "space.whiten_calls": c("space.HilbertSpace.whiten"),
        "space.unwhiten_s": t("space.HilbertSpace.unwhiten"),
        "instances.build_s": summary["layer_incl"]["instances"] / rounds,
        "instances.scramble_s": t("instances.scramble"),
        "measures.fourier_coefficient_calls": c("measures.fourier_coefficient"),
        "operators.orthonormal_columns_calls": c("operators.orthonormal_columns"),
        "operators.orthonormal_columns_s": t("operators.orthonormal_columns"),
        "operators.subspace_init_s": t("operators.Subspace.__init__"),
        "operators.subspace_intersect_calls": c("operators.subspace_intersect"),
        "operators.subspace_intersect_s": t("operators.subspace_intersect"),
        "operators.joint_core_s": t("operators.joint_core"),
        "operators.two_isometry_defect_calls": c("operators.two_isometry_defect"),
        "operators.two_isometry_defect_s": t("operators.two_isometry_defect"),
        "operators.left_inverse_calls": c("operators.left_inverse"),
        "operators.left_inverse_s": t("operators.left_inverse"),
        "operators.wandering_projection_calls": c("operators.wandering_projection"),
        "operators.wandering_projection_s": t("operators.wandering_projection"),
        "operators.defect_operator_s": t("operators.defect_operator"),
        "operators.restrict_operator_s": t("operators.restrict_operator"),
        "operators.doubly_commuting_residual_s": t("operators.doubly_commuting_residual"),
        "decomp.stable_range_calls": c("decomp.stable_range"),
        "decomp.stable_range_s": t("decomp.stable_range"),
        "decomp.span_orbit_s": t("decomp.span_orbit"),
        "decomp.wold_single_s": t("decomp.wold_single"),
        "decomp.extract_measure_s": t("decomp.extract_measure"),
        "decomp.wold_pair_s": t("decomp.wold_pair"),
        "decomp.wold_single_growth": growth_slope(spans, "decomp.wold_single"),
        "decomp.wold_pair_growth": growth_slope(spans, "decomp.wold_pair"),
        "decomp.norm_identity_s": t("decomp.check_norm_identity",
                                    "decomp.check_two_variable_identity"),
        "decomp.build_V_s": t("decomp.build_V"),
        "decomp.measures_equal_s": t("decomp.measures_equal_up_to_unitary"),
    }
    for layer in LAYERS:
        out[f"{layer}.self_s"] = lself[layer] / rounds
    return out

