"""Layer tracing from outside the program.

``Tracer.install`` wraps every public function of each fracsol layer
module, and every public method of the classes it defines, wherever a
fracsol module holds a reference to it: ``ln_gamma_vec`` is wrapped
inside ``gammafn`` and also as ``foxh``, ``wright`` and ``fracseries``
imported it.  Each call records a span (layer, function, start, end,
parent).  A layer's self time is its spans' time minus the time of their
child spans.  ``uninstall`` puts the original functions back; the timed
runs never install anything.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time

import numpy as np

LAYERS = ("gammafn", "wright", "foxh", "fracseries", "ode", "pde", "verify", "cli")
# spans kept for the trace file (sampled round only); aggregates cover every call
_SPAN_CAP = 200_000
# calls whose arguments and results are kept for the per-layer accuracy
_SAMPLE_CAP = 2000


class _Frame:
    __slots__ = ("layer", "child", "span_id")

    def __init__(self, layer, span_id):
        self.layer = layer
        self.child = 0.0
        self.span_id = span_id


class Tracer:
    def __init__(self):
        self.self_s = {layer: 0.0 for layer in LAYERS}
        self.calls = {layer: 0 for layer in LAYERS}  # calls entering a layer from outside it
        self.fn_count = {}
        self.fn_time = {}
        self.lngamma_elements = 0
        self.lngamma_scalar_calls = 0
        self.lngamma_time = 0.0
        self.lngamma_elements_from_foxh = 0
        self.foxh_evals_in_verify = 0
        self.samples = {"foxh": [], "wright": [], "verify": []}
        # while set, spans and the arguments and results of the calls whose
        # accuracy is reported per layer are kept
        self.sampling = False
        self.spans = []
        self.op_id = -1
        self._stack = []
        self._inside = {layer: 0 for layer in LAYERS}
        self._next_span = 0
        self._patches = []

    # ------------------------------------------------------------------
    def _wrap(self, fn, layer, name):
        tracer = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack
            parent = stack[-1] if stack else None
            span_id = tracer._next_span
            tracer._next_span += 1
            frame = _Frame(layer, span_id)
            if name == "gammafn.ln_gamma_vec":
                n = int(np.size(args[0]))
                tracer.lngamma_elements += n
                tracer.lngamma_scalar_calls += n == 1
                if parent is not None and parent.layer == "foxh":
                    tracer.lngamma_elements_from_foxh += n
            elif name == "foxh.eval_mellin_barnes" and tracer._inside["verify"]:
                tracer.foxh_evals_in_verify += 1
            stack.append(frame)
            tracer._inside[layer] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                tracer._inside[layer] -= 1
                dur = end - start
                tracer.self_s[layer] += dur - frame.child
                if parent is not None:
                    parent.child += dur
                if parent is None or parent.layer != layer:
                    tracer.calls[layer] += 1
                tracer.fn_count[name] = tracer.fn_count.get(name, 0) + 1
                tracer.fn_time[name] = tracer.fn_time.get(name, 0.0) + dur
                if name == "gammafn.ln_gamma_vec":
                    tracer.lngamma_time += dur
                if tracer.sampling and len(tracer.spans) < _SPAN_CAP:
                    tracer.spans.append(
                        (span_id, None if parent is None else parent.span_id,
                         tracer.op_id, name, start, end)
                    )
            if tracer.sampling:
                tracer._sample(name, args, result)
            return result

        return traced

    def _sample(self, name, args, result):
        if name == "foxh.eval_mellin_barnes":
            bucket, keep = self.samples["foxh"], (args[0], float(args[1]), float(result))
        elif name == "wright.evaluate":
            bucket, keep = self.samples["wright"], (args[0], complex(args[1]), complex(result))
        elif name in ("verify.residual_pde", "verify.residual_ode_coefficients"):
            bucket, keep = self.samples["verify"], result.max_rel_err
        else:
            return
        if len(bucket) < _SAMPLE_CAP:
            bucket.append(keep)

    # ------------------------------------------------------------------
    def install(self):
        """Wrap the public functions and methods of every layer module."""
        modules = {name: importlib.import_module(f"fracsol.{name}") for name in LAYERS}
        wrapped = {}
        for layer in LAYERS:
            mod = modules[layer]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    wrapped[id(obj)] = (obj, self._wrap(obj, layer, f"{layer}.{attr}"))
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    for mname, meth in list(vars(obj).items()):
                        if mname.startswith("_") or not inspect.isfunction(meth):
                            continue
                        self._patches.append((obj, mname, meth))
                        setattr(obj, mname, self._wrap(meth, layer, f"{layer}.{attr}.{mname}"))
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrapped and wrapped[id(obj)][0] is obj:
                    self._patches.append((mod, attr, obj))
                    setattr(mod, attr, wrapped[id(obj)][1])

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    # ------------------------------------------------------------------
    def metrics(self, rounds: int) -> dict:
        """Per-layer figures per round of the workload."""
        evals = self.fn_count.get("foxh.eval_mellin_barnes", 0)
        w_evals = self.fn_count.get("wright.evaluate", 0)
        return {
            "gammafn.calls": (self.calls["gammafn"] / rounds, "count"),
            "gammafn.scalar_calls": (self.lngamma_scalar_calls / rounds, "count"),
            "gammafn.elements": (self.lngamma_elements / rounds, "count"),
            "gammafn.self_s": (self.self_s["gammafn"] / rounds, "s"),
            "gammafn.ns_per_element": (
                1e9 * self.lngamma_time / self.lngamma_elements if self.lngamma_elements else 0.0,
                "ns",
            ),
            "foxh.evals": (evals / rounds, "count"),
            "foxh.self_s": (self.self_s["foxh"] / rounds, "s"),
            "foxh.us_per_eval": (
                1e6 * self.fn_time.get("foxh.eval_mellin_barnes", 0.0) / evals if evals else 0.0,
                "us",
            ),
            "foxh.lngamma_elements_per_eval": (
                self.lngamma_elements_from_foxh / evals if evals else 0.0, "count"
            ),
            "wright.evals": (w_evals / rounds, "count"),
            "wright.terms": (self.fn_count.get("wright.series_term", 0) / rounds, "count"),
            "wright.self_s": (self.self_s["wright"] / rounds, "s"),
            "wright.us_per_eval": (
                1e6 * self.fn_time.get("wright.evaluate", 0.0) / w_evals if w_evals else 0.0, "us"
            ),
            "fracseries.calls": (self.calls["fracseries"] / rounds, "count"),
            "fracseries.self_s": (self.self_s["fracseries"] / rounds, "s"),
            "pde.self_s": (self.self_s["pde"] / rounds, "s"),
            "ode.self_s": (self.self_s["ode"] / rounds, "s"),
            "verify.calls": (self.calls["verify"] / rounds, "count"),
            "verify.self_s": (self.self_s["verify"] / rounds, "s"),
            "verify.foxh_evals_per_call": (
                self.foxh_evals_in_verify / self.calls["verify"] if self.calls["verify"] else 0.0,
                "count",
            ),
        }
