"""In-memory spans around calls into thetalab, installed from outside.

A traced function is rebound in every loaded ``thetalab`` module that holds
it, because callers look names up in their own module: ``flow`` binds
``theta_residual`` and ``decompose`` at import, so wrapping only
``lattice.theta_residual`` would miss every call the flow makes.  Methods
are rebound on their class.  A target that no longer exists is recorded as
absent instead of failing the run.

Each span records its name, start, end and parent; a span's self time is
its duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.spans = []          # (id, name, start, end, parent id, self)
        self.absent = []
        self._stack = []         # [span id, start, children duration]
        self._restore = []       # (owner, attribute, original)

    # ------------------------------------------------------------ install

    def wrap_function(self, module_name: str, attr: str, label: str,
                      hook=None) -> None:
        """Trace ``module.attr`` under every name bound to it in thetalab."""
        module = sys.modules.get(module_name)
        original = getattr(module, attr, None) if module else None
        if not callable(original):
            self.absent.append(label)
            return
        wrapper = self._make_wrapper(original, label, hook)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "thetalab"
                                   or mod_name.startswith("thetalab.")):
                continue
            for name, value in list(vars(mod).items()):
                if value is original:
                    self._restore.append((mod, name, original))
                    setattr(mod, name, wrapper)

    def wrap_method(self, module_name: str, cls_name: str, attr: str,
                    label: str, hook=None) -> None:
        cls = getattr(sys.modules.get(module_name), cls_name, None)
        original = vars(cls).get(attr) if isinstance(cls, type) else None
        if not callable(original):
            self.absent.append(label)
            return
        self._restore.append((cls, attr, original))
        setattr(cls, attr, self._make_wrapper(original, label, hook))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _make_wrapper(self, fn, label, hook):
        stack, spans, absent = self._stack, self.spans, self.absent
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = len(spans)
            spans.append(None)                 # reserve the id in call order
            parent = stack[-1][0] if stack else None
            frame = [span_id, clock(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - frame[1]
                if stack:
                    stack[-1][2] += duration
                spans[span_id] = (span_id, label, frame[1], end, parent,
                                  duration - frame[2])
            if hook is not None:
                try:
                    hook(args, kwargs, result)
                except (AttributeError, IndexError, KeyError, TypeError):
                    # the traced call changed shape; report, do not fail it
                    if label + " (hook)" not in absent:
                        absent.append(label + " (hook)")
            return result

        return traced

    # ------------------------------------------------------------ results

    def counts(self) -> dict:
        out = defaultdict(int)
        for span in self.spans:
            out[span[1]] += 1
        return out

    def self_times(self) -> dict:
        out = defaultdict(float)
        for span in self.spans:
            out[span[1]] += span[5]
        return out

    def dump(self, path: str) -> None:
        """Write the spans as JSON lines, one object per span."""
        with open(path, "w") as fh:
            for sid, name, start, end, parent, self_s in self.spans:
                fh.write(json.dumps({"id": sid, "name": name, "start": start,
                                     "end": end, "parent": parent,
                                     "self_s": self_s}) + "\n")
