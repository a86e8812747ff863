"""Per-layer tracing of the sforge package, installed from outside it.

The traced child process wraps the public functions of each layer at
run time; no line of the package changes.  Every wrapper is a span: it
counts the call and adds its self time, which is the span's duration
minus the time covered by the spans it opened.  Spans are aggregated by
name as they close, so memory stays flat however many calls a run makes.

A module-level function can be bound under its own name in several
modules (``from .words import st_eval``), and each binding is looked up
at call time, so every binding in every loaded ``sforge`` module is
replaced.  Methods are replaced on their class.
"""

import functools
import importlib
import sys
import time

# (layer metric prefix, module, attribute); "Class.method" patches the class.
LAYERS = (
    ("rings.det", "sforge.rings", "MatrixAlgebra.det"),
    ("rings.inv", "sforge.rings", "MatrixAlgebra.inv"),
    ("rings.is_unit", "sforge.rings", "MatrixAlgebra.is_unit"),
    ("rings.mul", "sforge.rings", "MatrixAlgebra.mul"),
    ("rings.add", "sforge.rings", "MatrixAlgebra.add"),
    ("rings.scalar_mul", "sforge.rings", "MatrixAlgebra.scalar_mul"),
    ("rings.GF.mul", "sforge.rings", "GF.mul"),
    ("rings.GF.add", "sforge.rings", "GF.add"),
    ("peirce.project", "sforge.peirce", "IdempotentFamily.project"),
    ("words.st_eval", "sforge.words", "st_eval"),
    ("words.u_normal_form", "sforge.words", "u_normal_form"),
    ("words.reduce_word", "sforge.words", "reduce_word"),
    ("gauss.gauss_decompose", "sforge.gauss", "gauss_decompose"),
    ("gauss.sample_gl", "sforge.gauss", "sample_gl"),
    ("gauss.lift_to_st", "sforge.gauss", "lift_to_st"),
    ("crossed.apply", "sforge.crossed", "CrossedModuleAction.apply"),
    ("crossed.lift", "sforge.crossed", "CrossedModuleAction.lift"),
    ("tower.tower_ad", "sforge.tower", "tower_ad"),
    ("tower.ad_equivariance_check", "sforge.tower", "ad_equivariance_check"),
    ("tower.premorphism_equiv", "sforge.tower", "premorphism_equiv"),
    ("tower.LocalizedTower.conj", "sforge.tower", "LocalizedTower.conj"),
    ("cli.load", "sforge.cli", "InstanceConfig.load"),
    ("cli.emit", "sforge.cli", "_emit"),
)

# Layers whose per-call durations are kept for percentiles.
KEEP_DURATIONS = ("gauss.gauss_decompose",)


class Tracer:
    """Call counts, self times and the layer-specific counters of one process."""

    def __init__(self):
        self.open_names = []  # names of the open spans, innermost last
        self.open_child = []  # seconds covered by each open span's children
        self.calls = {name: 0 for name, _, _ in LAYERS}
        self.self_s = {name: 0.0 for name, _, _ in LAYERS}
        self.durations = {name: [] for name in KEEP_DURATIONS}
        self.counters = {
            "words.st_eval.letters": 0,
            "gauss.sample_gl.draws": 0,
            "crossed.lift.hits": 0,
        }

    def wrap(self, name, fn, before=None):
        names, child, calls, self_s = (
            self.open_names, self.open_child, self.calls, self.self_s
        )
        durations = self.durations.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            if before is not None:
                before(args)
            names.append(name)
            child.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                names.pop()
                calls[name] += 1
                self_s[name] += dt - child.pop()
                if child:
                    child[-1] += dt
                if durations is not None:
                    durations.append(dt)

        return span

    def _before(self, name):
        """The counter hook run before each call of a layer, or None."""
        counters = self.counters
        names = self.open_names
        if name == "words.st_eval":
            def count_letters(args):
                counters["words.st_eval.letters"] += len(args[0].letters)
            return count_letters
        if name == "rings.is_unit":
            # sample_gl tests one random draw per is_unit call it makes
            def count_draw(args):
                if names and names[-1] == "gauss.sample_gl":
                    counters["gauss.sample_gl.draws"] += 1
            return count_draw
        if name == "crossed.lift":
            def count_hit(args):
                action, g = args[0], args[1]
                if g in action._lifts:
                    counters["crossed.lift.hits"] += 1
            return count_hit
        return None

    def install(self):
        """Wrap every layer; return the bindings that still hold an original.

        An empty list means the wrapping is complete.
        """
        originals = {}
        for name, modname, attr in LAYERS:
            mod = importlib.import_module(modname)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    setattr(cls, meth, classmethod(self.wrap(name, raw.__func__)))
                    originals[id(raw.__func__)] = name
                else:
                    setattr(cls, meth, self.wrap(name, raw, self._before(name)))
                    originals[id(raw)] = name
                continue
            orig = getattr(mod, attr)
            wrapped = self.wrap(name, orig, self._before(name))
            originals[id(orig)] = name
            for m in _sforge_modules():
                for key, value in list(vars(m).items()):
                    if value is orig:
                        setattr(m, key, wrapped)
        return _leftover_bindings(originals)

    def snapshot(self):
        return {
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "durations": {k: list(v) for k, v in self.durations.items()},
            "counters": dict(self.counters),
        }


def _sforge_modules():
    return [
        m
        for n, m in list(sys.modules.items())
        if m is not None and (n == "sforge" or n.startswith("sforge."))
    ]


def _leftover_bindings(originals):
    """Module globals, module-level containers and class attributes that
    still reference an unwrapped layer function."""
    found = []

    def check(where, value):
        target = getattr(value, "__func__", value)
        if id(target) in originals:
            found.append("%s -> %s" % (where, originals[id(target)]))

    for m in _sforge_modules():
        for key, value in vars(m).items():
            check("%s.%s" % (m.__name__, key), value)
            if isinstance(value, dict):
                for k, v in value.items():
                    check("%s.%s[%r]" % (m.__name__, key, k), v)
            elif isinstance(value, (list, tuple)):
                for v in value:
                    check("%s.%s[]" % (m.__name__, key), v)
            elif isinstance(value, type) and value.__module__ == m.__name__:
                for k, v in vars(value).items():
                    check("%s.%s.%s" % (m.__name__, key, k), v)
    return found
