"""Span tracing of the fracprey layers, from outside the package.

``Tracer.install`` replaces every public function of the seven layer modules
(plus scipy's ``quad`` as ``fracprey.special`` sees it and ``cli.write_csv``)
at every binding a ``fracprey`` module holds, so calls the package makes to
itself (``fracprey.discrete.rhs``, ``fracprey.bifurcation.iterate_orbit``,
``fracprey.cli.pece_solve`` ...) are timed as well as the bench's own.
``uninstall`` puts the originals back.

Each call pushes a frame; on return its duration is added to the parent's
child time, and ``self = duration - child time``.  Calls are aggregated per
span name into (calls, busy, self); calls of the hot leaf functions in HOT are
only aggregated, every other call is also kept as a (name, start, end,
parent) record, parent being the nearest kept ancestor.
"""

import functools
import inspect
import os
import sys
import time

LAYERS = ("special", "model", "pece", "stability", "discrete", "bifurcation", "cli")

# Called per step or per node: aggregated only, never stored one by one.
HOT = frozenset({
    "special.mittag_leffler", "special.quad", "special.gamma_fn",
    "model.rhs", "model.field", "discrete.map_gain", "discrete.step_map",
    "stability.boundedness_envelope",
})

# Functions outside a module's __all__ that the traced run also times.
EXTRA = {"special": ("quad",), "cli": ("write_csv",)}


class Tracer:
    def __init__(self):
        self.originals = []   # (module, attribute, original function)
        self.reset()

    def reset(self):
        self.stack = []       # frames: [child_seconds, kept span id]
        self.spans = []       # [name, start, end, parent id]
        self.stats = {}       # name -> [calls, busy_s, self_s]
        self.counts = {"special.quad_path": 0, "pece.steps": 0,
                       "discrete.iterations": 0, "discrete.escaped": 0,
                       "cli.rows_written": 0, "cli.bytes_written": 0}

    # --- spans ---------------------------------------------------------------

    def span(self, name, fn, *args, **kwargs):
        """Run fn inside a span called name; returns fn's result."""
        clock = time.perf_counter
        stack = self.stack
        keep = name not in HOT
        parent = stack[-1][1] if stack else -1
        if keep:
            span_id = len(self.spans)
            self.spans.append([name, 0.0, 0.0, parent])
        else:
            span_id = parent
        frame = [0.0, span_id]
        stack.append(frame)
        start = clock()
        try:
            return fn(*args, **kwargs)
        finally:
            end = clock()
            stack.pop()
            duration = end - start
            if stack:
                stack[-1][0] += duration
            stat = self.stats.get(name)
            if stat is None:
                stat = self.stats[name] = [0, 0.0, 0.0]
            stat[0] += 1
            stat[1] += duration
            stat[2] += duration - frame[0]
            if keep:
                record = self.spans[span_id]
                record[1] = start
                record[2] = end

    # --- installing the wrappers ---------------------------------------------

    def _wrapper(self, name, fn):
        tracer = self
        span = self.span

        if name == "pece.pece_solve":
            def traced(rhs, *args, **kwargs):
                def field(u):
                    return span("model.field", rhs, u)
                result = span(name, fn, field, *args, **kwargs)
                tracer.counts["pece.steps"] += len(result.times) - 1
                return result
        elif name == "special.mittag_leffler":
            def traced(*args, **kwargs):
                quad_calls = tracer.stat("special.quad", 0)
                value = span(name, fn, *args, **kwargs)
                if tracer.stat("special.quad", 0) != quad_calls:
                    tracer.counts["special.quad_path"] += 1
                return value
        elif name == "discrete.iterate_orbit":
            def traced(*args, **kwargs):
                orbit = span(name, fn, *args, **kwargs)
                tracer.counts["discrete.iterations"] += len(orbit.states) - 1
                tracer.counts["discrete.escaped"] += bool(orbit.escaped)
                return orbit
        elif name == "bifurcation.sweep_step_size":
            signature = inspect.signature(fn)

            def traced(*args, **kwargs):
                bound = signature.bind(*args, **kwargs)
                mode = "follow" if bound.arguments.get("follow", True) else "restart"
                return span(f"{name}.{mode}", fn, *args, **kwargs)
        elif name == "cli.write_csv":
            def traced(path, columns, rows):
                span(name, fn, path, columns, rows)
                tracer.counts["cli.rows_written"] += len(rows)
                tracer.counts["cli.bytes_written"] += os.path.getsize(path)
        else:
            def traced(*args, **kwargs):
                return span(name, fn, *args, **kwargs)
        return functools.wraps(fn)(traced)

    def install(self):
        """Swap the wrappers in at every binding inside the fracprey package."""
        package = [mod for key, mod in sys.modules.items()
                   if key == "fracprey" or key.startswith("fracprey.")]
        for layer in LAYERS:
            module = sys.modules[f"fracprey.{layer}"]
            names = [n for n in module.__all__ if inspect.isfunction(getattr(module, n))]
            for attr in names + list(EXTRA.get(layer, ())):
                original = getattr(module, attr)
                wrapper = self._wrapper(f"{layer}.{attr}", original)
                for holder in package:
                    for key, value in list(vars(holder).items()):
                        if value is original:
                            setattr(holder, key, wrapper)
                            self.originals.append((holder, key, original))

    def uninstall(self):
        for holder, key, original in reversed(self.originals):
            setattr(holder, key, original)
        self.originals = []

    # --- results -------------------------------------------------------------

    def stat(self, name, index):
        """calls (0), busy_s (1) or self_s (2) of one span name."""
        return self.stats.get(name, (0, 0.0, 0.0))[index]

    def layer_self(self):
        """Self seconds per layer, plus the bench's own spans."""
        totals = {layer: 0.0 for layer in LAYERS + ("bench",)}
        for name, (_, _, self_s) in self.stats.items():
            totals[name.split(".", 1)[0]] += self_s
        return totals
