"""Call tracing for the traced benchmark run.

`install` wraps the public functions of rectlab's layer modules in every
rectlab module namespace that imported them by name (so
``universe.make_drawing`` is wrapped as well as ``drawing.make_drawing``).
Calls between functions of one module go through the module's globals, so
they are traced too.  The program itself is not changed; `uninstall` puts
the original functions back.

Spans are folded, as they close, into a calling-context tree held in memory:
one node per distinct call path with its parent id, call count, inclusive
time and self time.  A span's self time is its duration minus the time its
child spans cover.  Folding by call path keeps memory bounded although the
busiest functions are called millions of times per pass.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time


class Node:
    """All spans that share one call path."""

    __slots__ = ("id", "parent", "name", "children", "calls", "total_s",
                 "self_s", "raised", "leaf_s")

    def __init__(self, id_, parent, name):
        self.id = id_
        self.parent = parent
        self.name = name
        self.children = {}
        self.calls = 0
        self.total_s = 0.0     # inclusive span time
        self.self_s = 0.0      # span time not covered by child spans
        self.raised = 0        # calls that ended in an exception
        self.leaf_s = 0.0      # time of calls that opened no child span

    def as_dict(self):
        return {"id": self.id,
                "parent": None if self.parent is None else self.parent.id,
                "name": self.name, "calls": self.calls,
                "total_s": self.total_s, "self_s": self.self_s,
                "raised": self.raised, "leaf_s": self.leaf_s}


class Tracer:
    """Span recorder.  `enter`/`exit` open and close a span on the current
    call path; `clock` is injectable so tests can build span trees by hand."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.root = Node(0, None, "bench")
        self.nodes = [self.root]
        # one frame per open span: [node, start, child time, child spans]
        self._stack = [[self.root, 0.0, 0.0, 0]]

    def enter(self, name):
        parent = self._stack[-1][0]
        node = parent.children.get(name)
        if node is None:
            node = Node(len(self.nodes), parent, name)
            parent.children[name] = node
            self.nodes.append(node)
        self._stack.append([node, self.clock(), 0.0, 0])

    def exit(self, raised=False, new_call=True):
        """Close the innermost span.  A resumed generator closes a span per
        resume; only its first resume counts as a call."""
        end = self.clock()
        node, start, child_s, n_child = self._stack.pop()
        dur = end - start
        node.total_s += dur
        node.self_s += dur - child_s
        if new_call:
            node.calls += 1
            if not n_child:
                node.leaf_s += dur
        if raised:
            node.raised += 1
        outer = self._stack[-1]
        outer[2] += dur
        outer[3] += 1

    def span(self, name):
        return _Span(self, name)

    def wrap(self, fn, name):
        enter, exit_ = self.enter, self.exit
        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def traced_gen(*args, **kwargs):
                return _resumes(fn(*args, **kwargs), name, enter, exit_)
            return traced_gen

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            enter(name)
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                exit_(raised=True)
                raise
            exit_()
            return out
        return traced


class _Span:
    def __init__(self, tracer, name):
        self.tracer, self.name = tracer, name

    def __enter__(self):
        self.tracer.enter(self.name)

    def __exit__(self, exc_type, exc, tb):
        self.tracer.exit(raised=exc_type is not None)


def _resumes(gen, name, enter, exit_):
    """Re-yield gen's items, with one span per resume of gen."""
    first = True
    while True:
        enter(name)
        try:
            item = next(gen)
        except StopIteration:
            exit_(new_call=first)
            return
        except BaseException:
            exit_(raised=True, new_call=first)
            raise
        exit_(new_call=first)
        first = False
        yield item


def install(tracer, package, layers):
    """Wrap every public function of the modules `package.<layer>` wherever a
    module of the package holds it by name; the span name is
    "<layer>.<function>".  Returns a callable that undoes the wrapping."""
    wrappers = {}
    for layer in layers:
        mod = sys.modules[f"{package}.{layer}"]
        for attr, obj in vars(mod).items():
            if (attr.startswith("_") or inspect.isclass(obj)
                    or not callable(obj)
                    or getattr(obj, "__module__", None) != mod.__name__):
                continue
            wrappers[id(obj)] = (obj, tracer.wrap(obj, f"{layer}.{attr}"))
    patched = []
    for modname, mod in list(sys.modules.items()):
        if modname != package and not modname.startswith(package + "."):
            continue
        for attr, obj in list(vars(mod).items()):
            hit = wrappers.get(id(obj))
            if hit is not None and hit[0] is obj:
                setattr(mod, attr, hit[1])
                patched.append((mod, attr, obj))

    def uninstall():
        for mod, attr, obj in patched:
            setattr(mod, attr, obj)
    return uninstall


def by_name(nodes):
    """Per function name: calls, self_s, total_s, raised and leaf_s summed
    over every call path that ends in it.  total_s counts a recursive call
    inside its own caller's total again."""
    out = {}
    for node in nodes[1:]:
        agg = out.setdefault(node.name, dict.fromkeys(
            ("calls", "self_s", "total_s", "raised", "leaf_s"), 0))
        agg["calls"] += node.calls
        agg["self_s"] += node.self_s
        agg["total_s"] += node.total_s
        agg["raised"] += node.raised
        agg["leaf_s"] += node.leaf_s
    return out


def edge(nodes, parent_name, child_name):
    """(calls, raised) of child_name when called directly by parent_name."""
    calls = raised = 0
    for node in nodes[1:]:
        if node.name == child_name and node.parent.name == parent_name:
            calls += node.calls
            raised += node.raised
    return calls, raised
