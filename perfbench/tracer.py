"""In-memory span tracer that wraps package functions by dotted name.

A wrapper is installed on the module attribute that the package looks up at
call time (``stokesopt.optimize.cost_and_gradient`` rather than the function
object), so calls made through that name are timed without any change to the
package.  A dotted name that no longer resolves is recorded as absent instead
of raising, so later refactors keep the tracer running.

A span has a name, a start, an end, a parent (the index of the enclosing
span, -1 at top level) and a run (the pass of the workload body it belongs
to).  Spans stay in memory, one column per field, until ``dump``.
A span's self time is its duration minus the time its direct children cover;
the workloads are serial, so children never overlap.
"""
from __future__ import annotations

import importlib
import json
import time
from contextlib import contextmanager

_clock = time.perf_counter


class Tracer:
    def __init__(self):
        # one column per span field; flat lists of numbers and strings keep
        # tens of thousands of spans out of the garbage collector's way
        self.names: list = []
        self.starts: list = []
        self.ends: list = []
        self.parents: list = []
        self.runs: list = []
        self.counts: dict = {}
        self.absent: list = []
        self.run_id = ""
        self._stack: list = []
        self._patched: list = []

    # -- recording ---------------------------------------------------------

    def count(self, key: str, amount=1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def _open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.runs.append(self.run_id)
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(_clock())
        return idx

    def _close(self, idx: int) -> None:
        self.ends[idx] = _clock()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def traced(self, fn, name: str, name_fn=None, on_return=None):
        """`fn` wrapped in a span; name_fn(name, args, kwargs) may refine the
        name and on_return(result, args, kwargs) may record counts."""
        def wrapper(*args, **kwargs):
            idx = self._open(name_fn(name, args, kwargs) if name_fn else name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if on_return is not None:
                on_return(result, args, kwargs)
            return result
        wrapper.__wrapped__ = fn
        return wrapper

    # -- installing --------------------------------------------------------

    def wrap(self, dotted: str, name: str, name_fn=None, on_return=None,
             adapt=None) -> bool:
        """Replace module attribute `dotted` by a traced wrapper.

        `adapt(original)` may return a replacement callable (for instance
        one that wraps an argument) which is then traced in its place.
        Returns False, and records the name as absent, when it does not
        resolve.
        """
        module_name, _, attr = dotted.rpartition(".")
        try:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
        except (ImportError, AttributeError):
            self.absent.append(dotted)
            return False
        target = adapt(original) if adapt is not None else original
        setattr(module, attr, self.traced(target, name, name_fn, on_return))
        self._patched.append((module, attr, original))
        return True

    def restore(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    # -- output ------------------------------------------------------------

    def dump(self, path) -> None:
        names = sorted(set(self.names))
        runs = sorted(set(self.runs))
        index = {n: i for i, n in enumerate(names)}
        run_index = {r: i for i, r in enumerate(runs)}
        doc = {
            "names": names,
            "runs": runs,
            "columns": {
                "name": [index[n] for n in self.names],
                "start": self.starts,
                "end": self.ends,
                "parent": self.parents,
                "run": [run_index[r] for r in self.runs],
            },
            "counts": self.counts,
            "absent": self.absent,
        }
        with open(path, "w") as fh:
            json.dump(doc, fh, separators=(",", ":"))

    def extend(self, other: "Tracer") -> None:
        """Append another tracer's spans, counts and absent names."""
        base = len(self.names)
        self.names += other.names
        self.starts += other.starts
        self.ends += other.ends
        self.parents += [p + base if p >= 0 else -1 for p in other.parents]
        self.runs += other.runs
        for key, value in other.counts.items():
            self.count(key, value)
        self.absent += other.absent

    def stats(self) -> dict:
        """name -> {"count", "total", "self"} in seconds."""
        covered = [0.0] * len(self.names)
        for p, a, b in zip(self.parents, self.starts, self.ends):
            if p >= 0:
                covered[p] += b - a
        out: dict = {}
        for name, a, b, cov in zip(self.names, self.starts, self.ends,
                                   covered):
            entry = out.get(name)
            if entry is None:
                entry = out[name] = {"count": 0, "total": 0.0, "self": 0.0}
            entry["count"] += 1
            entry["total"] += b - a
            entry["self"] += b - a - cov
        return out


def load_dump(path) -> Tracer:
    """Rebuild a tracer's spans and counts from a `dump` file."""
    with open(path) as fh:
        doc = json.load(fh)
    t = Tracer()
    cols = doc["columns"]
    t.names = [doc["names"][i] for i in cols["name"]]
    t.starts, t.ends, t.parents = cols["start"], cols["end"], cols["parent"]
    t.runs = [doc["runs"][i] for i in cols["run"]]
    t.counts = doc["counts"]
    t.absent = doc["absent"]
    return t
