"""Outside-in span tracer for the planemaps benchmark.

The program itself has no trace hooks, so this module replaces the
public callables of each layer with timing wrappers, from the outside:
the attribute in the defining module and every alias of the same
object in any other planemaps module (``from .metric import distances``
binds ``bijections.distances``, ``sampler.distances`` and so on), plus
methods on their classes.  A call made through an alias that is not
replaced goes untraced, so ``install`` imports every submodule first
and ``missed_aliases`` looks for references that survive in places a
module-attribute swap cannot reach (containers, default arguments,
class bodies).

Each call becomes one span: name, parent span, op id, start, end and
self time.  Self time is the duration minus the time covered by child
spans; calls are single-threaded, so children never overlap and their
coverage is the sum of their durations.  Spans stay in compact arrays
in memory and are written out once, when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import pkgutil
import sys
import time
from array import array
from pathlib import Path

# (module, attribute or Class.method, layer).  The layer is the module
# whose self time the span counts towards.  counting is closed-form
# and errors does no work; their time stays in the caller's self time.
TARGETS = (
    ("maps", "PlaneMap.__init__", "maps"),
    ("maps", "PlaneMap.canonical_code", "maps"),
    ("metric", "distances", "metric"),
    ("metric", "classify_dart", "metric"),
    ("metric", "leftmost_geodesic", "metric"),
    ("metric", "rightmost_geodesic", "metric"),
    ("surgery", "Workspace.prev_of", "surgery"),
    ("surgery", "slit", "surgery"),
    ("surgery", "slit_pinched", "surgery"),
    ("surgery", "sew_forward", "surgery"),
    ("surgery", "sew_backward", "surgery"),
    ("surgery", "sew_onto", "surgery"),
    ("surgery", "glue", "surgery"),
    ("surgery", "weld", "surgery"),
    ("surgery", "suppress_pendant", "surgery"),
    ("surgery", "finish", "surgery"),
    ("surgery", "edge_to_digon", "surgery"),
    ("bijections", "transfer_left", "bijections"),
    ("bijections", "transfer_right", "bijections"),
    ("bijections", "transfer1_left", "bijections"),
    ("bijections", "transfer1_right", "bijections"),
    ("bijections", "grow_same", "bijections"),
    ("bijections", "grow_two", "bijections"),
    ("bijections", "shrink_same", "bijections"),
    ("bijections", "shrink_two", "bijections"),
    ("enumerator", "enumerate_maps", "enumerator"),
    ("enumerator", "enumerate_decorations", "enumerator"),
    ("sampler", "sample", "sampler"),
    ("sampler", "sample_bipartite", "sampler"),
    ("sampler", "sample_quasibipartite", "sampler"),
    ("cli", "run", "cli"),
)

BIJECTIONS = tuple(name for _, name, layer in TARGETS if layer == "bijections")
# these four return (map, a, b, c, case, carry)
CASE_TAGGED = ("grow_same", "grow_two", "shrink_same", "shrink_two")
CASES = ("simple", "left-pinched", "right-pinched")

# Span record layout, one array per field, in this order on disk.
FIELDS = (
    ("name", "H"),
    ("parent", "i"),
    ("op", "i"),
    ("start_ns", "q"),
    ("end_ns", "q"),
    ("self_ns", "q"),
)


def _double_factorial(n: int) -> int:
    out = 1
    while n > 1:
        out *= n
        n -= 2
    return out


class Tracer:
    """Holds the spans of one traced pass and the wrappers that make them."""

    def __init__(self) -> None:
        self.names: list[str] = [name for _, name, _ in TARGETS]
        self.layer_of = {name: layer for _, name, layer in TARGETS}
        self.spans = {field: array(code) for field, code in FIELDS}
        self.calls = [0] * len(self.names)
        self.self_ns = [0] * len(self.names)
        self.op = -1
        self.cases = dict.fromkeys(CASES, 0)
        self.matchings_tried = 0
        self.maps_kept = 0
        self.absent: list[str] = []
        self._originals: dict[int, object] = {}  # id -> original, kept alive
        self._undo: list[tuple[object, str, object]] = []
        self._stack: list[list[int]] = []

    # installing and removing the wrappers

    def _modules(self) -> list:
        pkg = importlib.import_module("planemaps")
        for info in pkgutil.iter_modules(pkg.__path__):
            importlib.import_module(f"planemaps.{info.name}")
        return [
            mod for name, mod in sorted(sys.modules.items())
            if name == "planemaps" or name.startswith("planemaps.")
        ]

    def install(self) -> None:
        modules = self._modules()
        for nid, (modname, name, _) in enumerate(TARGETS):
            mod = sys.modules[f"planemaps.{modname}"]
            owner_name, _, attr = name.rpartition(".")
            owner = getattr(mod, owner_name) if owner_name else mod
            orig = vars(owner).get(attr)
            if orig is None:
                # removed or renamed by a later change: reported, not fatal
                self.absent.append(name)
                continue
            wrapper = self._wrap(nid, orig, self._result_hook(name))
            self._originals[id(orig)] = orig
            if owner_name:
                self._swap(owner, attr, orig, wrapper)
                continue
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is orig:
                        self._swap(m, key, orig, wrapper)

    def _swap(self, owner, attr: str, orig, wrapper) -> None:
        self._undo.append((owner, attr, orig))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)

    def missed_aliases(self) -> list[str]:
        """References to an original callable that no swap replaced."""
        found = []

        def check(where: str, value) -> None:
            if id(value) in self._originals:
                found.append(f"{where} -> {value.__qualname__}")

        for mod in self._modules():
            for key, value in vars(mod).items():
                where = f"{mod.__name__}.{key}"
                check(where, value)
                if isinstance(value, dict):
                    for k, v in value.items():
                        check(f"{where}[{k!r}]", v)
                elif isinstance(value, (list, tuple, set, frozenset)):
                    for v in value:
                        check(f"{where}[...]", v)
                elif inspect.isclass(value) and value.__module__ == mod.__name__:
                    for k, v in vars(value).items():
                        check(f"{where}.{k}", v)
                elif inspect.isfunction(value):
                    for v in (value.__defaults__ or ()) + tuple((value.__kwdefaults__ or {}).values()):
                        check(f"{where} default", v)
        return found

    # the wrapper

    def _result_hook(self, name: str):
        if name in CASE_TAGGED:
            def on_result(args, kwargs, result):
                self.cases[result[4]] += 1
            return on_result
        if name == "enumerate_maps":
            from planemaps.counting import edge_count

            def on_result(args, kwargs, result):
                self.matchings_tried += _double_factorial(2 * edge_count(args[0]) - 1)
                self.maps_kept += len(result)
            return on_result
        return None

    def _wrap(self, nid: int, fn, on_result):
        spans = self.spans
        s_name, s_parent, s_op = spans["name"], spans["parent"], spans["op"]
        s_start, s_end, s_self = spans["start_ns"], spans["end_ns"], spans["self_ns"]
        stack, calls, self_ns = self._stack, self.calls, self.self_ns
        clock = time.perf_counter_ns
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(s_name)
            s_name.append(nid)
            s_parent.append(stack[-1][0] if stack else -1)
            s_op.append(tracer.op)
            s_start.append(0)
            s_end.append(0)
            s_self.append(0)
            frame = [i, 0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                own = dur - frame[1]
                s_start[i] = t0
                s_end[i] = t1
                s_self[i] = own
                calls[nid] += 1
                self_ns[nid] += own
                if stack:
                    stack[-1][1] += dur
            if on_result is not None:
                on_result(args, kwargs, result)
            return result

        return traced

    # reading the spans back

    def nearest_bijection(self) -> array:
        """Per span, the index of its nearest enclosing bijection span, or -1.

        A parent always has a smaller index than its children, because
        its index is taken on entry, so one forward pass suffices.
        """
        bij = {self.names.index(n) for n in BIJECTIONS}
        names, parents = self.spans["name"], self.spans["parent"]
        out = array("i", [-1]) * len(names)
        for i, (nid, p) in enumerate(zip(names, parents)):
            if nid in bij:
                out[i] = i
            elif p >= 0:
                out[i] = out[p]
        return out

    def write(self, path: Path) -> dict:
        """Write the spans as raw arrays, one field after another.

        Returns the header a reader needs: count, byte order, field
        types and the name table that the name field indexes.
        """
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "wb") as fh:
            for field, _ in FIELDS:
                self.spans[field].tofile(fh)
        return {
            "file": path.name,
            "count": len(self.spans["name"]),
            "byteorder": sys.byteorder,
            "fields": [[f, c, array(c).itemsize] for f, c in FIELDS],
            "names": self.names,
        }
