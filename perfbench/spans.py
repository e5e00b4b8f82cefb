"""Span tracing of boolmat's layers, installed from outside the package.

Each traced function is replaced, in every ``boolmat`` module namespace
that binds it, by a wrapper that records a span: name, start, end, parent
span and op id. Rebinding module attributes catches calls made through
``module.func``, calls between functions of one module (they look the name
up in the module globals) and names imported with ``from .x import func``.
Spans stay in memory until the run ends; self time is a span's duration
minus the durations of its direct children.
"""

from __future__ import annotations

import gzip
import json
import sys
from collections import defaultdict
from time import perf_counter_ns

# (module, attribute, span name, note) for every traced function. A note
# turns (args, result) into a value kept with the span: the dispatch keeps
# its (n, m, p, atoms) shape, the others a count or a useful/useless flag.
TARGETS = [
    ("boolmat._kernel", "matmul", "kernel.dispatch.matmul", lambda a, r: (a[0], a[1], a[2], a[5])),
    ("boolmat._kernel", "matvec", "kernel.dispatch.matvec", lambda a, r: (a[0], a[1], 1, a[4])),
    ("boolmat._kernel.pure", "matmul", "kernel.pure.matmul", None),
    ("boolmat._kernel.pure", "matvec", "kernel.pure.matvec", None),
    ("boolmat._kernel._packed", "matmul", "kernel.packed.matmul", None),
    ("boolmat._kernel._packed", "matvec", "kernel.packed.matvec", None),
    ("boolmat.bmatrix", "mul", "bmatrix.mul", None),
    ("boolmat.bmatrix", "power", "bmatrix.power", None),
    ("boolmat.bmatrix", "is_unitary", "bmatrix.is_unitary", None),
    ("boolmat.bmatrix", "find_invariant_stochastic", "bmatrix.find_invariant_stochastic", None),
    ("boolmat.bmatrix", "reduce_unitary", "bmatrix.reduce_unitary", lambda a, r: r is not None),
    ("boolmat.bvec", "extend_to_basis", "bvec.extend_to_basis", None),
    ("boolmat.chains", "power_profile", "chains.power_profile", lambda a, r: len(r.powers)),
    ("boolmat.chains", "relation_report", "chains.relation_report", None),
    ("boolmat.chains", "matrix_atoms", "chains.matrix_atoms", None),
    ("boolmat.chains", "verify_power_theorem", "chains.verify_power_theorem", None),
    ("boolmat.oracle", "brute_check", "oracle.brute_check", lambda a, r: r.checked),
    ("boolmat.oracle", "sample_check", "oracle.sample_check", lambda a, r: r.checked),
    ("boolmat.model", "parse_model", "model.parse_model", lambda a, r: len(a[0].encode())),
    ("boolmat.cli", "main", "cli.main", None),
]


class Tracer:
    """Records spans while installed; ``op_id`` tags spans with the current op."""

    def __init__(self):
        self.spans = []  # (name, start_ns, end_ns, parent index, op id, note)
        self.op_id = 0
        self._stack = []
        self._undo = []

    def _wrap(self, name, fn, note):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.op_id, None)
            if note is not None:
                try:
                    spans[idx] = spans[idx][:5] + (note(args, result),)
                except (IndexError, AttributeError, TypeError):
                    pass
            return result

        return traced

    def install(self):
        namespaces = [m for key, m in list(sys.modules.items()) if key == "boolmat" or key.startswith("boolmat.")]
        for module_name, attr, name, note in TARGETS:
            module = sys.modules.get(module_name)
            if module is None:
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(name, original, note)
            for ns in namespaces:
                for key, value in list(vars(ns).items()):
                    if value is original:
                        setattr(ns, key, wrapper)
                        self._undo.append((ns, key, original))

    def uninstall(self):
        for ns, key, original in reversed(self._undo):
            setattr(ns, key, original)
        self._undo.clear()

    def write(self, path, kinds):
        """One JSON line with the kind of each op (op id i is ``kinds[i - 1]``), then one per span."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write(json.dumps({"op_kinds": kinds}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")

    def layer_metrics(self, report_shapes):
        """Per-layer ``(value, unit)`` by metric name, and matmul µs per call by backend and shape.

        ``report_shapes`` names the ``NxMxPxK`` shapes that get a
        ``kernel.matmul.us_per_call`` metric, 0 where no call had that shape.
        """
        spans = self.spans
        child = [0] * len(spans)
        for name, start, end, parent, _, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        calls = defaultdict(int)
        self_ns = defaultdict(int)
        total_ns = defaultdict(int)
        notes = defaultdict(list)
        shape_ns = defaultdict(int)
        shape_calls = defaultdict(int)
        profile_muls = 0
        for idx, (name, start, end, parent, _, note) in enumerate(spans):
            own = end - start - child[idx]
            calls[name] += 1
            self_ns[name] += own
            total_ns[name] += end - start
            if note is not None:
                notes[name].append(note)
            if name in ("kernel.pure.matmul", "kernel.packed.matmul") and parent >= 0 and spans[parent][5]:
                key = (name.split(".")[1], "x".join(str(x) for x in spans[parent][5]))
                shape_ns[key] += own
                shape_calls[key] += 1
            if name == "bmatrix.mul":
                up = parent
                while up >= 0 and spans[up][0] != "chains.power_profile":
                    up = spans[up][3]
                profile_muls += up >= 0

        def s(name):
            return self_ns[name] / 1e9

        matmuls = calls["kernel.pure.matmul"] + calls["kernel.packed.matmul"]
        matvecs = calls["kernel.pure.matvec"] + calls["kernel.packed.matvec"]
        shapes = notes["kernel.dispatch.matmul"] + notes["kernel.dispatch.matvec"]
        reductions = notes["bmatrix.reduce_unitary"]
        profiles = calls["chains.power_profile"]
        checked = sum(notes["oracle.brute_check"]) + sum(notes["oracle.sample_check"])
        oracle_s = (total_ns["oracle.brute_check"] + total_ns["oracle.sample_check"]) / 1e9
        out = {
            "kernel.matmul.calls": (matmuls, "count"),
            "kernel.matmul.self_s": (s("kernel.pure.matmul") + s("kernel.packed.matmul"), "s"),
            "kernel.matvec.calls": (matvecs, "count"),
            "kernel.matvec.self_s": (s("kernel.pure.matvec") + s("kernel.packed.matvec"), "s"),
            "kernel.dispatch.self_s": (s("kernel.dispatch.matmul") + s("kernel.dispatch.matvec"), "s"),
            "kernel.pure_calls": (calls["kernel.pure.matmul"] + calls["kernel.pure.matvec"], "count"),
            "kernel.packed_calls": (calls["kernel.packed.matmul"] + calls["kernel.packed.matvec"], "count"),
            "kernel.wide_fallback_calls": (sum(1 for sh in shapes if sh[3] > 64), "count"),
            "kernel.and_ops": (sum(n * m * p for n, m, p, _ in shapes), "computed_ops"),
            "kernel.words_moved": (
                sum((n * m + m * p + n * p) * -(-k // 64) for n, m, p, k in shapes), "computed_words"
            ),
            "bmatrix.mul.calls": (calls["bmatrix.mul"], "count"),
            "bmatrix.mul.self_us_per_call": (self_ns["bmatrix.mul"] / 1e3 / max(calls["bmatrix.mul"], 1), "us"),
            "bmatrix.power.self_s": (s("bmatrix.power"), "s"),
            "bmatrix.is_unitary.self_s": (s("bmatrix.is_unitary"), "s"),
            "bmatrix.find_invariant_stochastic.self_s": (s("bmatrix.find_invariant_stochastic"), "s"),
            "bmatrix.reduce_unitary.self_s": (s("bmatrix.reduce_unitary"), "s"),
            "bmatrix.reduce_unitary.useful_ratio": (sum(reductions) / max(len(reductions), 1), "ratio"),
            "bvec.extend_to_basis.self_s": (s("bvec.extend_to_basis"), "s"),
            "chains.power_profile.calls": (profiles, "count"),
            "chains.power_profile.self_s": (s("chains.power_profile"), "s"),
            "chains.products_per_profile": (profile_muls / max(profiles, 1), "count"),
            "chains.powers_held": (max(notes["chains.power_profile"], default=0), "count"),
            "chains.relation_report.self_s": (s("chains.relation_report"), "s"),
            "chains.matrix_atoms.self_s": (s("chains.matrix_atoms"), "s"),
            "chains.verify_power_theorem.self_s": (s("chains.verify_power_theorem"), "s"),
            "oracle.objects_checked": (checked, "count"),
            "oracle.brute_check.self_s": (s("oracle.brute_check"), "s"),
            "oracle.sample_check.self_s": (s("oracle.sample_check"), "s"),
            "oracle.objects_per_s": (checked / oracle_s if oracle_s else 0.0, "1/s"),
            "model.parse_model.self_s": (s("model.parse_model"), "s"),
            "model.bytes_parsed": (sum(notes["model.parse_model"]), "bytes"),
            "cli.main.self_s": (s("cli.main"), "s"),
        }
        for shape in report_shapes:
            keys = [key for key in shape_calls if key[1] == shape]
            total = sum(shape_ns[key] for key in keys) / 1e3
            out[f"kernel.matmul.us_per_call.{shape}"] = (total / max(sum(shape_calls[key] for key in keys), 1), "us")
        by_backend = {f"{b}/{shape}": shape_ns[b, shape] / 1e3 / shape_calls[b, shape] for b, shape in shape_calls}
        return out, by_backend
