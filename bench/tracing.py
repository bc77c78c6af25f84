"""Spans around the calls into lsilab's public functions, recorded from outside.

``Tracer.install`` wraps each traced function at every place it is
looked up: the defining module, every lsilab module that imported the
name, and the package namespace. ``GridFunction`` is traced through its
``__init__``, which every construction calls. ``Tracer.uninstall`` puts
the originals back and checks that it did.

A span is ``(name, start, end, parent, op)``: ``parent`` is the index of
the enclosing span (the op's own span for top-level calls, -1 for an op)
and ``op`` the op's index in the run. Spans stay in memory until
``write_spans``. A span's self time is its duration minus the durations
of its direct children. Span times are on the thread's CPU clock, the
clock the harness times ops with.
"""

from __future__ import annotations

import functools
import os
import sys
from pathlib import Path
from time import thread_time

#: Traced public functions, by module.
TRACED = {
    "function_space": (
        "GridFunction", "quadrature_weights", "integrate", "differentiate", "sample_family",
        "to_fourier", "from_fourier", "read_grid_csv", "write_grid_csv", "read_fourier_json",
    ),
    "functionals": (
        "entropy", "dirichlet_energy", "squared_mass", "lsi_deficit_interval",
        "lsi_deficit_circle", "lsi_deficit_general", "lsi_deficit_density_form",
        "wirtinger_deficit", "weissler_bound", "diaz_deficit",
    ),
    "transforms": ("reflect_to_circle", "affine_normalize", "sqrt_lift"),
    "experiments": (
        "random_admissible_function", "diaz_probe", "minimize_deficit",
        "sharpness_sweep", "extrapolate_constant",
    ),
    "cli": ("main",),
}

TRACED_NAMES = tuple(f"{m}.{f}" for m, fns in TRACED.items() for f in fns)

MIB = 2.0**20
GIB = 2.0**30


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.spans: list = []
        self.stack = [-1]
        self.op = -1
        self.counters: dict[str, float] = {}
        self._patches: list = []  # (owner, attribute, original)

    # -- recording --------------------------------------------------------

    def _count(self, key: str, amount: float) -> None:
        self.counters[key] = self.counters.get(key, 0.0) + amount

    def _name_id(self, name: str) -> int:
        self.names.append(name)
        return len(self.names) - 1

    def begin_op(self, op_index: int, role: str) -> None:
        self.op = op_index
        self.stack.append(len(self.spans))
        self.spans.append((self._op_name(role), 0.0, 0.0, -1, op_index))

    def end_op(self, start: float, end: float) -> None:
        index = self.stack.pop()
        name = self.spans[index][0]
        self.spans[index] = (name, start, end, -1, self.op)
        self.op = -1

    def _op_name(self, role: str) -> int:
        key = f"op.{role}"
        if key not in self.names:
            self.names.append(key)
        return self.names.index(key)

    def _wrap(self, name: str, fn, observe=None):
        name_id = self._name_id(name)
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(index)
            start = thread_time()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = thread_time()
                stack.pop()
                spans[index] = (name_id, start, end, parent, self.op)
            if observe is not None:
                observe(args, kwargs, result)
            return result

        return traced

    # -- observers: counts taken at the boundary ----------------------------

    def _observe_differentiate(self, args, kwargs, result):
        self._count("differentiate.bytes", 16.0 * args[0].n)

    def _observe_read_csv(self, args, kwargs, result):
        self._count("read_grid_csv.bytes", os.path.getsize(args[0]))

    def _observe_write_csv(self, args, kwargs, result):
        path = args[1] if len(args) > 1 else kwargs["path"]
        self._count("write_grid_csv.bytes", os.path.getsize(path))

    def _observe_minimize(self, args, kwargs, result):
        max_iters = args[3] if len(args) > 3 else kwargs["max_iters"]
        self._count("minimize_deficit.iterations", result.iterations)
        self._count("minimize_deficit.capped", result.iterations == max_iters and not result.converged)

    # -- patching -----------------------------------------------------------

    def _modules(self):
        return [m for n, m in list(sys.modules.items()) if n == "lsilab" or n.startswith("lsilab.")]

    def install(self) -> None:
        observers = {
            "function_space.differentiate": self._observe_differentiate,
            "function_space.read_grid_csv": self._observe_read_csv,
            "function_space.write_grid_csv": self._observe_write_csv,
            "experiments.minimize_deficit": self._observe_minimize,
        }
        modules = self._modules()
        originals = []
        for module_name, functions in TRACED.items():
            module = sys.modules[f"lsilab.{module_name}"]
            for fn_name in functions:
                name = f"{module_name}.{fn_name}"
                original = getattr(module, fn_name)
                if isinstance(original, type):
                    init = original.__dict__["__init__"]
                    self._patch(original, "__init__", self._wrap(name, init))
                    continue
                originals.append(original)
                wrapper = self._wrap(name, original, observers.get(name))
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            self._patch(m, attr, wrapper)
        stale = [
            f"{m.__name__}.{attr}"
            for m in modules
            for attr, value in vars(m).items()
            if any(value is o for o in originals)
        ]
        if stale:
            self.uninstall()
            raise RuntimeError(f"untraced references remain: {stale}")

    def _patch(self, owner, attribute: str, replacement) -> None:
        self._patches.append((owner, attribute, getattr(owner, attribute)))
        setattr(owner, attribute, replacement)

    def uninstall(self) -> bool:
        """Restore every patched name; True when all originals are back."""
        for owner, attribute, original in reversed(self._patches):
            setattr(owner, attribute, original)
        restored = all(getattr(o, a) is f for o, a, f in self._patches)
        self._patches.clear()
        return restored

    # -- results ------------------------------------------------------------

    def self_times(self) -> list[float]:
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [end - start - child[i] for i, (_, start, end, _, _) in enumerate(self.spans)]

    def metrics(self, untraced_throughput: float) -> dict[str, tuple[float, str]]:
        """Per-layer metrics: calls and self time per op, share of op time."""
        self_t = self.self_times()
        calls = {n: 0 for n in TRACED_NAMES}
        busy = {n: 0.0 for n in TRACED_NAMES}
        op_count, op_time, unattributed = 0, 0.0, 0.0
        for i, (name_id, start, end, parent, _) in enumerate(self.spans):
            name = self.names[name_id]
            if parent < 0:
                op_count += 1
                op_time += end - start
                unattributed += self_t[i]
            else:
                calls[name] += 1
                busy[name] += self_t[i]
        ops = max(op_count, 1)
        total = op_time or 1.0
        out: dict[str, tuple[float, str]] = {}
        for name in TRACED_NAMES:
            out[f"{name}.calls"] = (calls[name] / ops, "1/op")
            out[f"{name}.self_ms"] = (busy[name] * 1e3 / ops, "ms")
            out[f"{name}.share"] = (busy[name] / total, "1")

        c = self.counters
        runs = calls["experiments.minimize_deficit"]
        iterations = c.get("minimize_deficit.iterations", 0.0)
        out["experiments.minimize_deficit.iterations"] = (iterations / runs if runs else 0.0, "count")
        out["experiments.minimize_deficit.max_iters_share"] = (
            c.get("minimize_deficit.capped", 0.0) / runs if runs else 0.0, "1")
        out["experiments.minimize_deficit.ms_per_iter"] = (
            busy["experiments.minimize_deficit"] * 1e3 / iterations if iterations else 0.0, "ms")

        def rate(key, name, unit_bytes):
            seconds = busy[name]
            return c.get(key, 0.0) / unit_bytes / seconds if seconds else 0.0

        out["function_space.read_grid_csv.mib_s"] = (
            rate("read_grid_csv.bytes", "function_space.read_grid_csv", MIB), "MiB/s")
        out["function_space.write_grid_csv.mib_s"] = (
            rate("write_grid_csv.bytes", "function_space.write_grid_csv", MIB), "MiB/s")
        out["function_space.differentiate.gib_s_computed"] = (
            rate("differentiate.bytes", "function_space.differentiate", GIB), "GiB/s")
        traced_throughput = op_count / op_time if op_time else 0.0
        out["trace.overhead_ratio"] = (
            untraced_throughput / traced_throughput if traced_throughput else 0.0, "1")
        out["trace.unattributed_share"] = (unattributed / total, "1")
        return out

    def write_spans(self, path: Path) -> None:
        origin = min((s[1] for s in self.spans), default=0.0)
        with open(path, "w") as handle:
            handle.write("span,name,start_s,end_s,parent,op\n")
            for i, (name_id, start, end, parent, op) in enumerate(self.spans):
                handle.write(
                    f"{i},{self.names[name_id]},{start - origin!r},{end - origin!r},{parent},{op}\n"
                )
