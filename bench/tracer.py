"""Outside tracer: times the calls into each superberezin layer.

Nothing under ``src/`` knows about it.  ``Tracer.install`` replaces every
public function of each layer module by a timing wrapper, at every binding
of that same function object in any ``superberezin.*`` module (including
module-level dicts such as ``suites.SUITES``), and wraps a few methods and
arithmetic dunders on their classes.  ``Tracer.uninstall`` puts every
original object back.

Two kinds of wrapper share one call stack, so self time is exact for both:

* span wrappers (public functions, ``SuperMatrix.berezinian``, Koszul
  slices) record ``(id, parent, item, name, start, end)`` in memory;
* hot wrappers (``__mul__``/``__add__`` of the algebra classes and the
  cheap public helpers in ``HOT_FUNCTIONS``) only feed counters and
  timers, because one span per call would cost more than the call.

A frame's self time is its duration minus the time its child frames cover.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
from collections import defaultdict
from time import perf_counter

LAYERS = ("grassmann", "superdomain", "supermatrix", "berezin", "linalg",
          "koszul", "lie_super", "supergroup", "groups", "textio", "cli",
          "suites")

# Public helpers called per term or per coefficient: counters only.
HOT_FUNCTIONS = frozenset({
    "grassmann.koszul_sign",
    "superdomain.binomial_coefficient",
    "superdomain.box_contains",
})

# (layer, class, method, hot).  Every binding of the method's function
# object in the class dict is wrapped, so ``__radd__ = __add__`` is too.
CLASS_METHODS = (
    ("grassmann", "Scalar", "__mul__", True),
    ("grassmann", "Scalar", "__add__", True),
    ("grassmann", "GrassmannElement", "__mul__", True),
    ("grassmann", "GrassmannElement", "__add__", True),
    ("grassmann", "GrassmannElement", "inv_even", True),
    ("superdomain", "Polynomial", "__mul__", True),
    ("superdomain", "Polynomial", "__add__", True),
    ("superdomain", "SuperFunction", "__mul__", True),
    ("superdomain", "SuperFunction", "__add__", True),
    ("supermatrix", "SuperMatrix", "__mul__", True),
    ("supermatrix", "SuperMatrix", "__add__", True),
    ("supermatrix", "SuperMatrix", "berezinian", False),
    ("koszul", "KoszulComplexSlice", "differential_matrix", False),
)

# Inclusive time of the outermost call of each function, by metric name.
TIMED = {
    "superdomain.pullback": "superdomain.pullback_s",
    "superdomain.jacobian": "superdomain.jacobian_s",
    "superdomain.jacobian_rows": "superdomain.jacobian_s",
    "superdomain.compose": "superdomain.compose_s",
    "supermatrix.SuperMatrix.berezinian": "supermatrix.berezinian_s",
    "berezin.integrate": "berezin.integrate_s",
    "berezin.pullback_section": "berezin.pullback_section_s",
    "berezin.fibre_integrate": "berezin.fibre_integrate_s",
    "berezin.fibre_integrate_section": "berezin.fibre_integrate_s",
    "berezin.fibre_integrate_with_support": "berezin.fibre_integrate_s",
    "lie_super.validate": "lie_super.validate_s",
    "lie_super.unimodularity_check": "lie_super.unimodularity_s",
    "supergroup.solve_invariant_density": "supergroup.solve_density_s",
    "supergroup.group_lie_algebra": "supergroup.lie_extract_s",
    "supergroup.modular_berezinian": "supergroup.modular_s",
    "supergroup.fubini_check": "supergroup.fubini_s",
    "supergroup.product_formula_check": "supergroup.product_s",
    "grassmann.GrassmannElement.__mul__": "grassmann.mul_s",
    "grassmann.Scalar.__mul__": "grassmann.scalar_s",
    "grassmann.Scalar.__add__": "grassmann.scalar_s",
}

# Call counts by metric name.
COUNTED = {
    "grassmann.GrassmannElement.__mul__": "grassmann.mul_calls",
    "grassmann.Scalar.__mul__": "grassmann.scalar_ops",
    "grassmann.Scalar.__add__": "grassmann.scalar_ops",
    "grassmann.GrassmannElement.inv_even": "grassmann.inv_even_calls",
    "superdomain.pullback": "superdomain.pullback_calls",
    "superdomain.SuperFunction.__mul__": "superdomain.sf_mul_calls",
    "superdomain.Polynomial.__mul__": "superdomain.poly_mul_calls",
    "supermatrix.SuperMatrix.berezinian": "supermatrix.berezinian_calls",
    "berezin.integrate": "berezin.integrate_calls",
    "lie_super.validate": "lie_super.validate_calls",
    "koszul.KoszulComplexSlice.differential_matrix": "koszul.slices_built",
    "cli.main": "cli.calls",
}

# Ring multiplications that count towards supermatrix.ring_muls_per_ber.
RING_MULS = frozenset({"grassmann.GrassmannElement.__mul__",
                       "superdomain.SuperFunction.__mul__"})

# Layers whose outermost calls give <layer>.calls and <layer>.s.
ENTRY_LAYERS = ("linalg", "koszul")


def import_layers(package) -> None:
    for layer in LAYERS:
        importlib.import_module(f"{package.__name__}.{layer}")


def snapshot(package) -> dict:
    """Every function object bound in a package module, a class of one, or
    a module-level dict, by location; equal snapshots mean same objects."""
    found = {}
    prefix = package.__name__ + "."
    for mod_name, mod in list(sys.modules.items()):
        if mod_name != package.__name__ and not mod_name.startswith(prefix):
            continue
        for name, value in vars(mod).items():
            if inspect.isfunction(value):
                found[(mod_name, name)] = value
            elif inspect.isclass(value) and value.__module__ == mod_name:
                for attr, member in vars(value).items():
                    if inspect.isfunction(member):
                        found[(mod_name, name, attr)] = member
            elif isinstance(value, dict) and not name.startswith("__"):
                for key, member in value.items():
                    if inspect.isfunction(member):
                        found[(mod_name, name, repr(key))] = member
    return found


def _matrix_stats(rows):
    """(rows, entries, nonzeros) of a matrix given as a list or tuple of
    rows; anything else is left unread, so the call still gets it whole."""
    if not isinstance(rows, (list, tuple)):
        return 0, 0, 0
    return (len(rows), sum(len(row) for row in rows),
            sum(1 for row in rows for x in row if x != 0))


class Tracer:
    """Counters, timers and spans for one traced phase of a run."""

    def __init__(self):
        self.counts = defaultdict(int)
        self.times = defaultdict(float)
        self.self_s = defaultdict(float)
        self.stack = []   # frames: [child_time, span_id, layer, key, parent]
        self.spans = []
        self.item = None
        self.max_rows = 0
        self.max_dim = 0
        self.koszul_distinct = 0
        self.items_s = 0.0    # time in layers, summed over timed items
        self._koszul_keys = None
        self._depth = defaultdict(int)
        self._next_id = 0
        self._undo = []

    # -- frame bookkeeping ---------------------------------------------

    def _enter(self, layer, key, span):
        stack = self.stack
        parent = stack[-1] if stack else None
        if span:
            sid = self._next_id
            self._next_id += 1
        else:
            sid = parent[1] if parent else None
        frame = [0.0, sid, layer, key, parent]
        stack.append(frame)
        self._depth[key] += 1
        return frame

    def _exit(self, frame, t0, t1, span, raised):
        self.stack.pop()
        dur = t1 - t0
        layer, key, parent = frame[2], frame[3], frame[4]
        self.self_s[layer] += dur - frame[0]
        if parent is not None:
            parent[0] += dur
        elif self.item != "setup":
            self.items_s += dur
        depth = self._depth
        depth[key] -= 1
        if depth[key] == 0 and key in TIMED:
            self.times[TIMED[key]] += dur
        if layer in ENTRY_LAYERS and (parent is None or parent[2] != layer):
            self.counts[layer + ".calls"] += 1
            self.times[layer + ".s"] += dur
        if span:
            self.spans.append((frame[1], parent[1] if parent else None,
                               self.item, key, t0, t1))
        if raised:
            self.counts[layer + ".raised"] += 1

    # -- wrappers ------------------------------------------------------

    def _wrapper(self, layer, key, fn, span):
        perf = perf_counter
        enter = self._enter
        leave = self._exit
        counts = self.counts
        depth = self._depth
        counted = COUNTED.get(key)
        ring = key in RING_MULS
        before, after = self._hooks(layer, key)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if counted:
                counts[counted] += 1
            if ring and depth["supermatrix.SuperMatrix.berezinian"]:
                counts["supermatrix.ring_muls"] += 1
            note = before(args) if before else None
            frame = enter(layer, key, span)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                leave(frame, t0, perf(), span, True)
                raise
            leave(frame, t0, perf(), span, False)
            if after:
                after(args, result, note)
            return result

        return traced

    def _hooks(self, layer, key):
        """(before, after) callbacks that measure sizes for one function."""
        counts = self.counts
        if layer == "linalg":
            def before(args):
                rows, entries, nonzero = _matrix_stats(args[0] if args else None)
                counts["linalg.entries_in"] += entries
                counts["linalg.nonzero_in"] += nonzero
                self.max_rows = max(self.max_rows, rows)

            def after(args, result, note):
                # the ansatz matrix has one column per unknown
                if key == "linalg.nullspace" and self.stack \
                        and self.stack[-1][3] == "supergroup.solve_invariant_density":
                    counts["supergroup.ansatz_unknowns"] += \
                        len(args[0][0]) if args[0] else 0
            return before, after
        if key.startswith("textio.parse_"):
            def before(args):
                if args and isinstance(args[0], str):
                    counts["textio.bytes_in"] += len(args[0].encode("utf-8"))
            return before, None
        if key in ("grassmann.GrassmannElement.__mul__",
                   "superdomain.Polynomial.__mul__"):
            metric = ("grassmann.terms_out" if layer == "grassmann"
                      else "superdomain.poly_terms_out")

            def after(args, result, note):
                terms = getattr(result, "terms", None)
                if terms is not None:
                    counts[metric] += len(terms)
            return None, after
        if key == "supermatrix.SuperMatrix.berezinian":
            def before(args):
                self.max_dim = max(self.max_dim, args[0].p + args[0].q)
            return before, None
        if key == "koszul.KoszulComplexSlice.differential_matrix":
            def before(args):
                if self._koszul_keys is not None:
                    slice_ = args[0]
                    self._koszul_keys.add(
                        (slice_.p, slice_.q, args[1], str(args[2])))
            return before, None
        if key == "koszul.homological_berezinian":
            # distinct (p, q, degree, parity) slices per outermost call
            def before(args):
                if self._depth[key] == 0:
                    self._koszul_keys = set()
                    return True
                return False

            def after(args, result, outermost):
                if outermost:
                    self.koszul_distinct += len(self._koszul_keys)
                    self._koszul_keys = None
            return before, after
        if key == "cli.main":
            def before(args):
                out = sys.stdout
                return out.tell() if hasattr(out, "tell") else None

            def after(args, result, position):
                if result != 0:
                    counts["cli.exit_nonzero"] += 1
                if position is not None:
                    counts["cli.bytes_out"] += sys.stdout.tell() - position
            return before, after
        if key == "supergroup.solve_invariant_density":
            def after(args, result, note):
                counts["supergroup.kernel_dims"] += result.dimension
            return None, after
        if key.startswith("suites.") and key.endswith("_suite"):
            def after(args, result, note):
                counts["suites.checks"] += len(result)
            return None, after
        return None, None

    # -- install / uninstall --------------------------------------------

    def install(self, package) -> None:
        """Wrap the public functions and listed methods of every layer."""
        import_layers(package)
        modules = {name: mod for name, mod in sys.modules.items()
                   if name == package.__name__
                   or name.startswith(package.__name__ + ".")}
        prefix = package.__name__ + "."
        wrappers = {}   # id(original) -> (original, wrapper)
        for layer in LAYERS:
            mod = modules[prefix + layer]
            for name, value in vars(mod).items():
                if name.startswith("_") or not inspect.isfunction(value) \
                        or value.__module__ != mod.__name__:
                    continue
                key = f"{layer}.{name}"
                wrappers[id(value)] = (value, self._wrapper(
                    layer, key, value, span=key not in HOT_FUNCTIONS))
        for layer, cls_name, method, hot in CLASS_METHODS:
            cls = getattr(modules[prefix + layer], cls_name)
            original = cls.__dict__[method]
            wrapper = self._wrapper(layer, f"{layer}.{cls_name}.{method}",
                                    original, span=not hot)
            for attr, value in list(vars(cls).items()):
                if value is original:
                    self._replace(functools.partial(setattr, cls), attr, value, wrapper)
        for mod in modules.values():
            for name, value in list(vars(mod).items()):
                if id(value) in wrappers:
                    self._replace(vars(mod).__setitem__, name, value,
                                  wrappers[id(value)][1])
                elif isinstance(value, dict) and not name.startswith("__"):
                    for key, member in list(value.items()):
                        if id(member) in wrappers:
                            self._replace(value.__setitem__, key, member,
                                          wrappers[id(member)][1])

    def _replace(self, assign, name, original, wrapper) -> None:
        self._undo.append((assign, name, original))
        assign(name, wrapper)

    def uninstall(self) -> None:
        """Put every original object back, last replacement first."""
        while self._undo:
            assign, name, original = self._undo.pop()
            assign(name, original)

    # -- results ---------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """Every per-layer metric that the trace itself measures."""
        c, t = self.counts, self.times
        ber_calls = c["supermatrix.berezinian_calls"]
        out = {
            "grassmann.mul_calls": c["grassmann.mul_calls"],
            "grassmann.mul_s": t["grassmann.mul_s"],
            "grassmann.terms_out": c["grassmann.terms_out"],
            "grassmann.scalar_ops": c["grassmann.scalar_ops"],
            "grassmann.scalar_s": t["grassmann.scalar_s"],
            "grassmann.inv_even_calls": c["grassmann.inv_even_calls"],
            "superdomain.pullback_calls": c["superdomain.pullback_calls"],
            "superdomain.pullback_s": t["superdomain.pullback_s"],
            "superdomain.sf_mul_calls": c["superdomain.sf_mul_calls"],
            "superdomain.poly_mul_calls": c["superdomain.poly_mul_calls"],
            "superdomain.poly_terms_out": c["superdomain.poly_terms_out"],
            "superdomain.jacobian_s": t["superdomain.jacobian_s"],
            "superdomain.compose_s": t["superdomain.compose_s"],
            "supermatrix.berezinian_calls": ber_calls,
            "supermatrix.berezinian_s": t["supermatrix.berezinian_s"],
            "supermatrix.ring_muls_per_ber":
                c["supermatrix.ring_muls"] / ber_calls if ber_calls else 0.0,
            "supermatrix.max_dim": self.max_dim,
            "berezin.integrate_calls": c["berezin.integrate_calls"],
            "berezin.integrate_s": t["berezin.integrate_s"],
            "berezin.pullback_section_s": t["berezin.pullback_section_s"],
            "berezin.fibre_integrate_s": t["berezin.fibre_integrate_s"],
            "linalg.calls": c["linalg.calls"],
            "linalg.s": t["linalg.s"],
            "linalg.entries_in": c["linalg.entries_in"],
            "linalg.nonzero_ratio":
                (c["linalg.nonzero_in"] / c["linalg.entries_in"]
                 if c["linalg.entries_in"] else 0.0),
            "linalg.max_rows": self.max_rows,
            "koszul.calls": c["koszul.calls"],
            "koszul.s": t["koszul.s"],
            "koszul.slices_built": c["koszul.slices_built"],
            "koszul.slice_reuse_ratio":
                (self.koszul_distinct / c["koszul.slices_built"]
                 if c["koszul.slices_built"] else 0.0),
            "lie_super.validate_calls": c["lie_super.validate_calls"],
            "lie_super.validate_s": t["lie_super.validate_s"],
            "lie_super.unimodularity_s": t["lie_super.unimodularity_s"],
            "supergroup.solve_density_s": t["supergroup.solve_density_s"],
            "supergroup.ansatz_unknowns": c["supergroup.ansatz_unknowns"],
            "supergroup.kernel_yield":
                (c["supergroup.kernel_dims"] / c["supergroup.ansatz_unknowns"]
                 if c["supergroup.ansatz_unknowns"] else 0.0),
            "supergroup.lie_extract_s": t["supergroup.lie_extract_s"],
            "supergroup.modular_s": t["supergroup.modular_s"],
            "supergroup.fubini_s": t["supergroup.fubini_s"],
            "supergroup.product_s": t["supergroup.product_s"],
            "groups.build_s": self._outermost_s("groups."),
            "textio.parse_s": self._outermost_s("textio.parse_"),
            "textio.bytes_in": c["textio.bytes_in"],
            "cli.calls": c["cli.calls"],
            "cli.overhead_s": self.self_s["cli"],
            "cli.bytes_out": c["cli.bytes_out"],
            "cli.exit_nonzero": c["cli.exit_nonzero"],
            "suites.generate_s": self._outermost_s("suites.random_"),
            "suites.checks": c["suites.checks"],
        }
        for layer in LAYERS:
            if layer != "cli":
                out[f"{layer}.self_s"] = self.self_s[layer]
            out[f"{layer}.raised"] = c[f"{layer}.raised"]
        return out

    def _outermost_s(self, prefix: str) -> float:
        """Total duration of the spans whose name starts with prefix,
        leaving out those nested inside another such span."""
        parent_of = {span[0]: span[1] for span in self.spans}
        chosen = {span[0] for span in self.spans if span[3].startswith(prefix)}
        total = 0.0
        for sid, parent, _, name, t0, t1 in self.spans:
            if sid not in chosen:
                continue
            while parent is not None and parent not in chosen:
                parent = parent_of.get(parent)
            if parent is None:
                total += t1 - t0
        return total

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for sid, parent, item, name, t0, t1 in self.spans:
                handle.write(json.dumps([sid, parent, item, name, t0, t1]))
                handle.write("\n")
