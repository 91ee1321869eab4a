"""Span recording around the public functions and methods of hubplatoon.

The program is not changed: each layer is measured from outside by
replacing a public function (in every hubplatoon module that bound it) or
a public method (on its class) with a wrapper that opens a span, calls
the original and closes the span. A span has a name, a start, an end and
a parent. Self time is a span's duration minus the durations of its
direct children, so nested layers are never counted twice.

Spans are folded into per-name totals as they close, which keeps memory
flat however many calls a run makes; the spans at the top few levels of
the tree are also kept whole so a run can write them out.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter, defaultdict
from time import perf_counter

KEEP_DEPTH = 3   # spans this close to the root are kept whole


class Tracer:
    def __init__(self):
        self.stack: list[list] = []   # open spans: [name, child time, record index]
        self.records: list[tuple[str, float, float, int]] = []  # name, start, end, parent
        self.bucket = self._empty()

    @staticmethod
    def _empty() -> dict:
        return {"self_s": defaultdict(float), "total_s": defaultdict(float),
                "calls": Counter(), "counts": Counter(), "root_s": 0.0}

    def reset(self) -> dict:
        """Start a new bucket; return the totals gathered since the last reset."""
        old, self.bucket = self.bucket, self._empty()
        return old

    def count(self, name: str, n=1) -> None:
        self.bucket["counts"][name] += n

    def parent_name(self) -> str | None:
        return self.stack[-1][0] if self.stack else None

    def wrap(self, fn, name, after=None, on_error=None):
        """``name`` is a string or a callable of the call's arguments."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = name if isinstance(name, str) else name(*args, **kwargs)
            stack = tracer.stack
            parent = stack[-1] if stack else None
            record = -1
            if len(stack) < KEEP_DEPTH:
                record = len(tracer.records)
                tracer.records.append(None)
            frame = [label, 0.0, record]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                if on_error is not None:
                    on_error(exc, parent)
                raise
            finally:
                end = perf_counter()
                stack.pop()
                spent = end - start
                bucket = tracer.bucket
                bucket["total_s"][label] += spent
                bucket["self_s"][label] += spent - frame[1]
                bucket["calls"][label] += 1
                if parent is not None:
                    parent[1] += spent
                else:
                    bucket["root_s"] += spent
                if record >= 0:
                    tracer.records[record] = (
                        label, start, end, parent[2] if parent is not None else -1)
            if after is not None:
                after(result, *args, **kwargs)
            return result

        return wrapper


def rebind_function(package_modules, owner, attr: str, replacement) -> int:
    """Point every module-level name bound to ``owner.attr`` at ``replacement``."""
    original = getattr(owner, attr)
    hits = 0
    for module in package_modules:
        for key, value in list(vars(module).items()):
            if value is original:
                setattr(module, key, replacement)
                hits += 1
    if hits == 0:
        raise RuntimeError(f"{owner.__name__}.{attr} is bound nowhere")
    return hits


def package_modules(prefix: str = "hubplatoon"):
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == prefix or name.startswith(prefix + "."))]
