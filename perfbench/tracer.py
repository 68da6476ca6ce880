"""Spans around calls into the program, recorded from outside it.

``Tracer.wrap`` replaces a function in every namespace that binds it, so a
call through ``from .kernels import gram`` is seen as well as one through
``kernels.gram``. Each call becomes a span: name, start, end, parent, thread
and sweep id. Spans live in compact per-thread buffers and are written out
once, by ``save``.

A span's parent is the innermost open span on its own thread. A span that
opens on an otherwise idle thread (a pool worker) takes as parent the
innermost open span of the thread that created the tracer, the one that
submitted the work. Self time is computed per thread: a span's duration minus
the durations of its children on the same thread.
"""

from __future__ import annotations

import functools
import gzip
import sys
import threading
from array import array
from time import perf_counter


class _Buffer:
    """Spans opened on one thread."""

    def __init__(self, number: int, thread: int):
        self.number = number
        self.thread = thread
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.child = array("d")  # summed duration of same-thread children
        self.parent_buf = array("i")
        self.parent_idx = array("i")
        self.sweep = array("i")
        self.stack = []


class Tracer:
    def __init__(self):
        self.names = []
        self.sweep_id = 0
        self._buffers = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main = self._buffer()
        self._undo = []

    def _buffer(self) -> _Buffer:
        buf = getattr(self._local, "buf", None)
        if buf is None:
            with self._lock:
                buf = _Buffer(len(self._buffers), threading.get_ident())
                self._buffers.append(buf)
            self._local.buf = buf
        return buf

    def _open(self, name_id: int) -> tuple:
        buf = self._buffer()
        if buf.stack:
            pbuf, pidx = buf.number, buf.stack[-1]
        elif buf is not self._main and self._main.stack:
            pbuf, pidx = self._main.number, self._main.stack[-1]
        else:
            pbuf, pidx = -1, -1
        i = len(buf.name)
        buf.name.append(name_id)
        buf.parent_buf.append(pbuf)
        buf.parent_idx.append(pidx)
        buf.sweep.append(self.sweep_id)
        buf.end.append(0.0)
        buf.child.append(0.0)
        buf.stack.append(i)
        buf.start.append(perf_counter())
        return buf, i

    @staticmethod
    def _close(buf: _Buffer, i: int) -> None:
        t = perf_counter()
        buf.end[i] = t
        buf.stack.pop()
        if buf.stack:
            buf.child[buf.stack[-1]] += t - buf.start[i]

    def name_id(self, name: str) -> int:
        self.names.append(name)
        return len(self.names) - 1

    def wrapper(self, name: str, fn, hook=None):
        """A traced stand-in for fn; hook(args, kwargs, result) runs after the span."""
        nid = self.name_id(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            buf, i = tracer._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(buf, i)
            if hook is not None:
                hook(args, kwargs, result)
            return result

        return traced

    def wrap(self, owner, attr: str, name: str, hook=None, package: str = None) -> int:
        """Replace owner.attr, and every module-level binding of the same object
        in modules under `package`, by one traced wrapper. Returns the number of
        namespaces rebound."""
        original = getattr(owner, attr)
        traced = self.wrapper(name, original, hook)
        places = [(owner, attr)]
        if package:
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not (mod_name == package or mod_name.startswith(package + ".")):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original and (mod, key) != (owner, attr):
                        places.append((mod, key))
        for obj, key in places:
            self._undo.append((obj, key, vars(obj)[key]))
            setattr(obj, key, traced)
        return len(places)

    def unwrap(self) -> None:
        for obj, key, value in reversed(self._undo):
            setattr(obj, key, value)
        self._undo.clear()

    def spans(self):
        """Yield (span id, name, start, end, self_s, parent id, thread, sweep) per
        span. A span id is (buffer number, index); the parent id is None for a root."""
        for buf in self._buffers:
            for i in range(len(buf.name)):
                dur = buf.end[i] - buf.start[i]
                parent = None if buf.parent_buf[i] < 0 else (buf.parent_buf[i], buf.parent_idx[i])
                yield ((buf.number, i), self.names[buf.name[i]], buf.start[i], buf.end[i],
                       dur - buf.child[i], parent, buf.thread, buf.sweep[i])

    def by_name(self) -> dict:
        """name -> {"calls", "self_s"} over all threads."""
        out = {name: {"calls": 0, "self_s": 0.0} for name in self.names}
        for _, name, _, _, self_s, _, _, _ in self.spans():
            out[name]["calls"] += 1
            out[name]["self_s"] += self_s
        return out

    def child_time(self, parent_names) -> tuple[float, float]:
        """(summed duration of the direct children, on any thread, of spans named
        in parent_names; summed duration of those parent spans)."""
        parents = {}
        for buf in self._buffers:
            for i in range(len(buf.name)):
                if self.names[buf.name[i]] in parent_names:
                    parents[(buf.number, i)] = buf.end[i] - buf.start[i]
        children = 0.0
        for buf in self._buffers:
            for i in range(len(buf.name)):
                if (buf.parent_buf[i], buf.parent_idx[i]) in parents:
                    children += buf.end[i] - buf.start[i]
        return children, sum(parents.values())

    def save(self, path) -> None:
        """Write every span as one tab-separated line of a gzip file, with a header.
        Ids read "buffer:index"; a root span has an empty parent."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("id\tname\tstart\tend\tself_s\tparent\tthread\tsweep\n")
            for sid, name, start, end, self_s, parent, thread, sweep in self.spans():
                p = "" if parent is None else f"{parent[0]}:{parent[1]}"
                fh.write(f"{sid[0]}:{sid[1]}\t{name}\t{start!r}\t{end!r}\t{self_s!r}\t{p}"
                         f"\t{thread}\t{sweep}\n")
