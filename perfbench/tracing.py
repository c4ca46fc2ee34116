"""Spans around the public functions of gamowkit, recorded from outside.

Tracer.instrument() replaces every public function of the smatrix,
jordan, states and uniqueness modules, in every gamowkit namespace that
binds it, with a wrapper that records a span; the CLI command callbacks
get the same wrapper.  Spans nest through parent ids and share the id of
the CLI command that caused them.  They stay in memory until write().
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import json
import sys
from time import perf_counter

LAYERS = ("smatrix", "jordan", "states", "uniqueness")
# Names the roadmap marks for removal stay unwrapped, so that removing
# them later does not change what the trace covers.
SKIPPED = frozenset({
    "w_pole_term", "GamowVector", "apply_hamiltonian", "exp_poly_norm", "w_side_split",
})


class Tracer:
    def __init__(self):
        # span: [id, parent, command, name, start, end, attrs]
        self.spans = []
        self.command = -1
        self._stack = []
        self._patches = []

    def _wrap(self, name, fn, before=None, after=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [len(spans), stack[-1] if stack else -1, self.command, name, 0.0, 0.0, None]
            spans.append(span)
            stack.append(span[0])
            if before is not None:
                args = before(span, args)
            span[4] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[5] = perf_counter()
                stack.pop()
            if after is not None:
                after(span, result)
            return result

        return wrapper

    def instrument(self, cli_main):
        hooks = {
            "smatrix.analytic_derivatives": (_count_samples, None),
            "uniqueness.certify": (None, _record_certificate),
        }
        modules = [m for n, m in list(sys.modules.items()) if n.split(".")[0] == "gamowkit"]
        for layer in LAYERS:
            mod = importlib.import_module(f"gamowkit.{layer}")
            for attr in mod.__all__:
                fn = getattr(mod, attr)
                if attr in SKIPPED or not inspect.isfunction(fn):
                    continue
                name = f"{layer}.{attr}"
                wrapper = self._wrap(name, fn, *hooks.get(name, (None, None)))
                for m in modules:
                    for binding in [k for k, v in vars(m).items() if v is fn]:
                        self._patches.append((m, binding, fn))
                        setattr(m, binding, wrapper)
        for cmd_name, cmd in cli_main.commands.items():
            self._patches.append((cmd, "callback", cmd.callback))
            cmd.callback = self._wrap(f"cli.{cmd_name}", cmd.callback)

    def restore(self):
        for obj, attr, value in reversed(self._patches):
            setattr(obj, attr, value)
        self._patches.clear()

    def write(self, path):
        """Gzipped JSON lines, one span per line:
        [id, parent, command, name, start, end, attrs]."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _count_samples(span, args):
    """Wrap the integrand of analytic_derivatives in a sample counter."""
    f, rest = args[0], args[1:]
    counter = span[6] = {"samples": 0}

    def counted(w):
        counter["samples"] += 1
        return f(w)

    return (counted,) + rest


def _record_certificate(span, report):
    span[6] = {key: report[key] for key in ("j", "constraint_rows", "rank", "unknown_count")}


def summarize(spans):
    """Per-name call counts, total and self seconds, and span attributes."""
    child_time = {}
    for _, parent, _, _, start, end, _ in spans:
        child_time[parent] = child_time.get(parent, 0.0) + end - start
    stats = {}
    for sid, _, _, name, start, end, attrs in spans:
        entry = stats.setdefault(name, {"calls": 0, "total": 0.0, "self": 0.0, "attrs": []})
        entry["calls"] += 1
        entry["total"] += end - start
        entry["self"] += end - start - child_time.get(sid, 0.0)
        if attrs:
            entry["attrs"].append(attrs)
    return stats
