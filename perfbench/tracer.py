"""Per-layer spans, recorded by wrapping the package's public functions.

No code under src/ changes: `Tracer.install` swaps each listed function
for a timing wrapper in every `semidual` module namespace that holds it,
because `from .x import f` binds `f` once per importing module. Methods
are wrapped on their class. `uninstall` puts the originals back.

Each call made while `recording` is on becomes a span: its layer (the
module that defines the function), its start and end, the span that
called it and the job it belongs to. A span's self time is its
duration minus the durations of the spans it called directly, so the
self times of all spans in a job add up to the time the job spent
inside the package. Some counts are computed from argument sizes, not
measured; `COMPUTED` names them.
"""

import importlib
import sys
import time

LAYERS = {
    "exactlin": ("Matrix.matmul", "rank", "det", "solve"),
    "semilattice": ("validate", "characters", "dual_semilattice", "double_dual_iso",
                    "ev_matrix_rank", "induced_order", "parse_semilattice",
                    "print_semilattice"),
    "bialgebra": ("check_bialgebra_axioms", "congruence_closure", "quotient_grouplikes",
                  "quotient_semilattice"),
    "graded": ("parse_graded", "print_graded", "verify_grading", "check_module_algebra",
               "dual_monoid_action", "act_character"),
    "nbar_dual": ("grouplike_decompose", "translate_span_basis", "translate", "special_det",
                  "is_character", "char_mult", "verify_decomposition"),
    "letterplace": ("multiply", "weight_components", "act_min", "embed_word", "parse_poly"),
    "cli": ("run",),
}

# Work counts derived from argument sizes: (metric suffix, size function).
COMPUTED = {
    "exactlin.matmul": ("mults", lambda a, b: a.rows * b.cols * a.cols),
    "exactlin.rank": ("cells", lambda m: m.rows * m.cols),
    "semilattice.validate": ("triples", lambda elements, *_: len(elements) ** 3),
}


class Tracer:
    def __init__(self):
        self.recording = False
        self.keep_spans = False
        self.job = None
        self.stats = {}      # "layer.function" -> [calls, seconds, self seconds, computed]
        self.spans = []      # (id, parent id, job, name, start, end) while keep_spans
        self._stack = []     # [span id, seconds spent in direct children]
        self._next_id = 0
        self._undo = []

    def _wrap(self, key, fn):
        stat = self.stats.setdefault(key, [0, 0.0, 0.0, 0])
        size = COMPUTED.get(key, (None, None))[1]
        tracer = self
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            stack = tracer._stack
            tracer._next_id += 1
            frame = [tracer._next_id, 0.0]
            parent = stack[-1][0] if stack else 0
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                stat[0] += 1
                stat[1] += duration
                stat[2] += duration - frame[1]
                if size is not None:
                    stat[3] += size(*args, **kwargs)
                if tracer.keep_spans:
                    tracer.spans.append((frame[0], parent, tracer.job, key, start, end))

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", key)
        return wrapper

    def install(self):
        for layer in LAYERS:
            importlib.import_module(f"semidual.{layer}")
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "semidual" or name.startswith("semidual."))]
        for layer, names in LAYERS.items():
            home = sys.modules[f"semidual.{layer}"]
            for name in names:
                if "." in name:
                    cls_name, method = name.split(".")
                    cls = getattr(home, cls_name)
                    original = cls.__dict__[method]
                    setattr(cls, method, self._wrap(f"{layer}.{method}", original))
                    self._undo.append((cls, method, original))
                    continue
                original = getattr(home, name)
                wrapper = self._wrap(f"{layer}.{name}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            self._undo.append((module, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def layer_self_seconds(self):
        out = {layer: 0.0 for layer in LAYERS}
        for key, stat in self.stats.items():
            out[key.split(".")[0]] += stat[2]
        return out
