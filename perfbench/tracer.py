"""In-memory span tracer that wraps named interplab functions from outside.

The tracer replaces each named public function with a timing wrapper at
module attribute level. A function imported by name into several modules
(``substream`` lives in ``rng`` but is bound in ``datagen``, ``kernelmach``,
``labcli`` and others) is replaced in every module that binds it, so calls
through any of those names are seen. Only the listed functions are wrapped:
wrapping a tiny helper that runs tens of thousands of times per scan would
put the tracer's own cost into the numbers. Leaving the context manager
restores every original binding.

Spans stay in memory as ``[name, start, end, parent, raised]``; a span's
self time is its duration minus the part of it that its child spans cover.
"""

import functools
import sys
import time
from collections import namedtuple

Stat = namedtuple("Stat", "calls self_s failed")


class Tracer:
    """Context manager that records one span per call of each target.

    ``targets`` maps an importable module name to the function names to
    wrap in it, e.g. ``{"interplab.numlin": ("solve_spd",)}``. Spans are
    named ``<last module component>.<function>``.
    """

    def __init__(self, targets, clock=time.perf_counter, package="interplab"):
        self.targets = targets
        self.clock = clock
        self.package = package
        self.spans = []
        self._stack = []
        self._patched = []

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1, False])
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            except BaseException:
                spans[idx][4] = True
                raise
            finally:
                spans[idx][2] = clock()
                stack.pop()

        return traced

    def _modules(self):
        prefix = self.package + "."
        return [mod for key, mod in list(sys.modules.items())
                if mod is not None and (key == self.package or key.startswith(prefix))]

    def __enter__(self):
        modules = self._modules()
        for modname, names in self.targets.items():
            home = sys.modules[modname]
            short = modname.rsplit(".", 1)[-1]
            for fname in names:
                original = getattr(home, fname)
                wrapper = self._wrap(f"{short}.{fname}", original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                            self._patched.append((mod, attr, original))
        return self

    def __exit__(self, *exc):
        while self._patched:
            mod, attr, original = self._patched.pop()
            setattr(mod, attr, original)
        return False

    def stats(self):
        """Per span name: call count, summed self time, calls that raised."""
        return self_times(self.spans)


def _covered(intervals):
    """Total length of the union of (start, end) intervals."""
    total, cur_start, cur_end = 0.0, None, None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans):
    """Aggregate ``[name, start, end, parent, raised]`` spans by name."""
    children = {}
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = {}
    for idx, (name, start, end, _, raised) in enumerate(spans):
        own = (end - start) - _covered(children.get(idx, ()))
        calls, self_s, failed = out.get(name, (0, 0.0, 0))
        out[name] = Stat(calls + 1, self_s + own, failed + int(raised))
    return out
