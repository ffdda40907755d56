"""In-memory span tracer for the traced benchmark run.

The tracer rebinds module-level names of the loaded ``dduio`` modules to
wrappers that record a span per call: name, start, end and the index of
the enclosing span.  A function is rebound under every name that holds it,
so ``integrate.rk4_linear`` is traced as seen by ``observer_sim`` and by
``plant``.  Signal ``value`` methods get a call counter instead of spans,
because a closed-loop run makes hundreds of thousands of them.  Nothing
under ``src/`` is edited; ``uninstall`` restores every binding.

A target that a later refactor removed is recorded in ``absent`` and its
metrics read 0; the run goes on.
"""
from __future__ import annotations

import inspect
import json
import os
import sys
from collections import defaultdict
from time import perf_counter


def _bound(signature, args, kwargs) -> dict:
    try:
        return signature.bind(*args, **kwargs).arguments
    except TypeError:
        return {}


def _state_steps(tracer, arguments, result):
    x0 = arguments.get("x0")
    if x0 is not None:
        tracer.counts["integrate.rk4_linear.state_steps"] += \
            int(arguments.get("n_steps", 0)) * len(x0)


def _rows_written(tracer, arguments, result):
    rows = arguments.get("rows")
    if rows is not None:
        tracer.counts["_csvio.write_csv.rows"] += len(rows)


def _bytes_exported(tracer, arguments, result):
    out_dir = arguments.get("out_dir")
    if out_dir and os.path.isdir(out_dir):
        tracer.counts["observer_sim.export_run.bytes"] += sum(
            os.path.getsize(os.path.join(out_dir, f)) for f in os.listdir(out_dir))


def _max_residual(tracer, arguments, result):
    key = "observer_sim.verify_decoupling.max_residual"
    tracer.counts[key] = max(tracer.counts[key], float(getattr(result, "max_residual", 0.0)))


def _method_label(arguments):
    return str(arguments.get("method", "unknown"))


# (defining module, function, label for the span name, hook after the call)
SPAN_TARGETS = (
    ("config", "parse_config", None, None),
    ("integrate", "rk4_linear", None, _state_steps),
    ("plant", "simulate", None, None),
    ("datagen", "collect", None, None),
    ("datagen", "check_excitation_rank", None, None),
    ("datagen", "save_dataset", None, None),
    ("datagen", "load_dataset", None, None),
    ("_csvio", "write_csv", None, _rows_written),
    ("_csvio", "read_csv", None, None),
    ("linalg", "numerical_rank", None, None),
    ("design_data", "analyze_datasets", None, None),
    ("design_data", "solve_data_equation_structured", None, None),
    ("design_data", "check_data_detectability", None, None),
    ("design_model", "stabilizing_output_injection", None, None),
    ("design_model", "assemble_from_blocks", None, None),
    ("baselines", "design_for_method", _method_label, None),
    ("baselines", "identify_least_squares", None, None),
    ("baselines", "compute_mse_mae", None, None),
    ("observer_sim", "run", None, None),
    ("observer_sim", "export_run", None, _bytes_exported),
    ("observer_sim", "error_dynamics_matrix", None, None),
    ("observer_sim", "verify_decoupling", None, _max_residual),
    ("cli", "cmd_collect", None, None),
    ("cli", "cmd_check", None, None),
    ("cli", "cmd_design", None, None),
    ("cli", "cmd_run", None, None),
)
# The Riccati solver as design_model calls it (``scipy.linalg.<name>``).
RICCATI = ("scipy.linalg", "solve_continuous_are", "design_model.riccati")
SIGNAL_CALLS = "signals.value.calls"


class Tracer:
    def __init__(self):
        self.spans = []          # [name, start, end, parent index or -1]
        self.counts = defaultdict(float)
        self.absent = []
        self.patched = []        # names rebound, as "module.attribute"
        self._stack = []
        self._undo = []          # (owner, attribute, original)

    # -- installation -------------------------------------------------
    def install(self) -> None:
        self.absent, self.patched = [], []
        for module, func, label, after in SPAN_TARGETS:
            original = getattr(sys.modules.get("dduio." + module), func, None)
            if not callable(original):
                self.absent.append(f"{module}.{func}")
                continue
            wrapper = self._wrap(original, f"{module}.{func}", label, after)
            self._rebind_everywhere(original, wrapper)
        self._install_riccati()
        self._install_signal_counter()

    def _rebind_everywhere(self, original, wrapper) -> None:
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "dduio" or mod_name.startswith("dduio.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, attr, wrapper)
                    self.patched.append(f"{mod_name}.{attr}")

    def _install_riccati(self) -> None:
        module_name, func, span_name = RICCATI
        owner = sys.modules.get(module_name)
        original = getattr(owner, func, None)
        if sys.modules.get("dduio.design_model") is None or not callable(original):
            self.absent.append(span_name)
            return
        self._set(owner, func, self._wrap(original, span_name, None, None))
        self.patched.append(f"{module_name}.{func}")

    def _install_signal_counter(self) -> None:
        signals = sys.modules.get("dduio.signals")
        base = getattr(signals, "SignalGenerator", None)
        classes = [c for c in vars(signals).values()
                   if isinstance(c, type) and base is not None and issubclass(c, base)
                   and "value" in vars(c)] if signals else []
        if not classes:
            self.absent.append("signals.value")
            return
        counts = self.counts
        for cls in classes:
            original = vars(cls)["value"]

            def value(obj, t, _original=original):
                counts[SIGNAL_CALLS] += 1
                return _original(obj, t)
            self._set(cls, "value", value)
            self.patched.append(f"dduio.signals.{cls.__name__}.value")

    def _set(self, owner, attr, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _wrap(self, original, name, label, after):
        spans, stack = self.spans, self._stack
        signature = inspect.signature(original) if (label or after) else None
        tracer = self

        def traced(*args, **kwargs):
            arguments = _bound(signature, args, kwargs) if signature else None
            span_name = f"{name}.{label(arguments)}" if label else name
            index = len(spans)
            spans.append([span_name, 0.0, 0.0, stack[-1] if stack else -1])
            stack.append(index)
            start = perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index][1], spans[index][2] = start, end
            if after:
                after(tracer, arguments, result)
            return result

        traced.__wrapped__ = original
        return traced

    # -- spans opened by the benchmark itself -----------------------------
    def open(self, name: str) -> int:
        index = len(self.spans)
        self.spans.append([name, perf_counter(), 0.0, self._stack[-1] if self._stack else -1])
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self._stack.pop()
        self.spans[index][2] = perf_counter()

    # -- results --------------------------------------------------------
    def metrics(self) -> dict:
        """Per-name calls, busy time, self time, counters and waste ratios.

        Busy time sums only spans with no enclosing span of the same name;
        self time is a span's duration minus that of its direct children.
        """
        spans = self.spans
        child_time = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = defaultdict(float)
        for index, (name, start, end, parent) in enumerate(spans):
            out[f"{name}.calls"] += 1
            out[f"{name}.self_s"] += end - start - child_time[index]
            if not self._has_ancestor(index, name):
                out[f"{name}.busy_s"] += end - start
        out.update(self.counts)
        out["datagen.collect.attempts_per_dataset"] = self._per_call(
            "datagen.check_excitation_rank", "datagen.collect")
        out["design_model.riccati.attempts_per_injection"] = self._per_call(
            "design_model.riccati", "design_model.stabilizing_output_injection")
        return dict(out)

    def _has_ancestor(self, index: int, name: str) -> bool:
        parent = self.spans[index][3]
        while parent >= 0:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][3]
        return False

    def _per_call(self, inner: str, outer: str) -> float:
        """Calls of ``inner`` made directly inside ``outer``, per ``outer`` call."""
        outer_calls = sum(1 for s in self.spans if s[0] == outer)
        inner_calls = sum(1 for s in self.spans
                          if s[0] == inner and s[3] >= 0 and self.spans[s[3]][0] == outer)
        return inner_calls / outer_calls if outer_calls else 0.0

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent"], "spans": self.spans,
                       "counts": dict(self.counts), "absent": self.absent,
                       "patched": self.patched}, fh)
