#!/usr/bin/env python3
"""boolmat benchmark: seeded closed-loop workloads, end to end or traced by layer.

Run from the root of a source checkout; it imports ``boolmat`` from
``./src`` and measures whichever kernel backend that import selects:

    python3 perfbench/run.py --workload products --seed 1 --seconds 10 --trace 0

Workloads (see ``workloads.py``): ``products`` (``bmatrix.mul`` on distinct
stochastic operand pairs), ``chains`` (analysis commands through
``boolmat.cli.main``) and ``oracle`` (``boolmat verify`` runs). One client,
one thread, one process: the next op starts when the previous one ended.

Set-up (import ``boolmat``, generate the inputs, run the warm-up ops) is
repeated ``SETUP_PASSES`` times and ``setup_s`` is its median. The timed window is
the time spent inside ops; checking an output against the naive reference
happens between ops and is not timed. The runner stops between passes once
the window reaches ``--seconds``.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` wraps boolmat's
layers (``spans.py``), runs the workload traced, replays the first quarter
of its passes untraced to get ``trace.overhead_ratio``, prints the per-layer metrics and
writes the spans to ``.perfbench_out/``. The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``;
the line before it records the environment and the sample counts.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
from array import array
from time import perf_counter
from types import SimpleNamespace

SETUP_PASSES = 7


def import_boolmat(src):
    """Import boolmat afresh from ``src`` and return the modules the benchmark drives."""
    for key in [k for k in sys.modules if k == "boolmat" or k.startswith("boolmat.")]:
        del sys.modules[key]
    boolmat = importlib.import_module("boolmat")
    if not os.path.realpath(boolmat.__file__).startswith(os.path.realpath(src) + os.sep):
        raise SystemExit(f"boolmat imported from {boolmat.__file__}, not from {src}")
    try:
        packed = importlib.import_module("boolmat._kernel._packed")
    except ImportError:
        packed = None
    return SimpleNamespace(
        boolmat=boolmat,
        bmatrix=importlib.import_module("boolmat.bmatrix"),
        cli=importlib.import_module("boolmat.cli"),
        rand=importlib.import_module("boolmat.rand"),
        kernel=importlib.import_module("boolmat._kernel"),
        pure=importlib.import_module("boolmat._kernel.pure"),
        packed=packed,
    )


class Tally:
    """Latencies, failures and output volume of the ops one phase ran."""

    def __init__(self):
        self.latencies = array("d")
        self.by_kind = {}  # kind -> [ops, seconds]
        self.traced_kinds = []  # kind of each traced op, in op id order
        self.busy = 0.0
        self.failed = 0
        self.output_bytes = 0
        self.problems = []

    def run(self, ops, tracer=None):
        for kind, call, check in ops:
            if tracer is not None:
                tracer.op_id += 1
                self.traced_kinds.append(kind)
            start = perf_counter()
            try:
                out = call()
            except Exception as exc:  # an op that raises counts as failed; keep measuring
                self._time(kind, start)
                self._fail(kind, f"raised {exc!r}")
                continue
            self._time(kind, start)
            if isinstance(out, tuple):
                self.output_bytes += len(out[1].encode())
            try:
                problem = check(out)
            except Exception as exc:  # output too malformed for its check
                problem = f"check raised {exc!r}"
            if problem is not None:
                self._fail(kind, problem)

    def _time(self, kind, start):
        took = perf_counter() - start
        self.latencies.append(took)
        self.busy += took
        entry = self.by_kind.setdefault(kind, [0, 0.0])
        entry[0] += 1
        entry[1] += took

    def _fail(self, kind, problem):
        self.failed += 1
        if len(self.problems) < 5:
            self.problems.append(f"{kind}: {problem}")


def measure(deck, seconds, tracer=None):
    """Run whole passes until the ops' own time reaches ``seconds``.

    A traced run also returns its passes with their traced time, so that
    some can be replayed untraced; an untraced run keeps none, so memory
    stays flat.
    """
    tally = Tally()
    passes = []
    wall = perf_counter()
    while tally.busy < seconds and perf_counter() - wall < 6 * seconds:
        ops = deck.next_pass()
        before = tally.busy
        tally.run(ops, tracer)
        if tracer is not None:
            passes.append((ops, tally.busy - before))
    return tally, passes


def environment(mods, seed):
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "active_backend": mods.kernel.ACTIVE_BACKEND,
        "packed_importable": mods.packed is not None,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "seed": seed,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "boolmat", "__init__.py")):
        print(f"perfbench: no boolmat sources under {src}; run from a checkout root", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    from spans import Tracer
    from workloads import PRODUCT_SHAPES, WORKLOADS, shape_name

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; have {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    out_dir = os.path.join(root, ".perfbench_out")
    workdir = os.path.join(out_dir, f"work-{args.workload}-{os.getpid()}")

    setups, imports, generates = [], [], []
    warm = Tally()
    try:
        for _ in range(SETUP_PASSES):
            deck = mods = None
            start = perf_counter()
            mods = import_boolmat(src)
            imported = perf_counter()
            deck = WORKLOADS[args.workload](mods, args.seed, workdir)
            generated = perf_counter()
            warmed = warm.busy
            warm.run(deck.warmup())
            setups.append(generated - start + warm.busy - warmed)
            imports.append(imported - start)
            generates.append(generated - imported)

        tracer = Tracer() if args.trace else None
        if tracer is not None:
            tracer.install()
        try:
            tally, passes = measure(deck, args.seconds, tracer)
        finally:
            if tracer is not None:
                tracer.uninstall()
        # Replaying the first quarter of the passes untraced gives the
        # tracing overhead at a quarter of the cost of a full replay.
        replay = Tally()
        replayed = passes[: -(-len(passes) // 4)]
        for ops, _ in replayed:
            replay.run(ops)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    lat = tally.latencies
    busy = tally.busy
    attempted = len(warm.latencies) + len(lat) + len(replay.latencies)
    failed = warm.failed + tally.failed + replay.failed
    problems = warm.problems + tally.problems + replay.problems
    if args.trace:
        layers, per_shape = tracer.layer_metrics([shape_name(*shape[:4]) for shape in PRODUCT_SHAPES])
        if args.workload == "oracle" and layers["kernel.matmul.calls"][0] + layers["kernel.matvec.calls"][0]:
            failed += 1
            problems.append("the oracle called the kernel it is meant to check independently")
    p90 = statistics.quantiles(lat, n=10)[8]
    info = {
        "workload": args.workload,
        "env": environment(mods, args.seed),
        "latency_samples": len(lat),
        "samples_beyond_p90": sum(x > p90 for x in lat),
        "failed_ratio": failed / attempted,
        "failed_base": attempted,
        "window_s": busy,
        "ops_and_mean_ms_by_kind": {k: [n, t / n * 1e3] for k, (n, t) in sorted(tally.by_kind.items())},
        "problems": problems,
    }

    if not args.trace:
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "ops_per_s": (len(lat) / busy, "1/s"),
            "latency_p50_ms": (statistics.median(lat) * 1e3, "ms"),
            "latency_p90_ms": (p90 * 1e3, "ms"),
            "success_ratio": ((attempted - failed) / attempted, "ratio"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    else:
        os.makedirs(out_dir, exist_ok=True)
        tracer.write(os.path.join(out_dir, f"spans-{args.workload}-seed{args.seed}.jsonl.gz"), tally.traced_kinds)
        info["matmul_us_per_call_by_backend"] = per_shape
        metrics = dict(layers)
        metrics["cli.output_bytes"] = (tally.output_bytes, "bytes")
        metrics["setup.import_s"] = (statistics.median(imports), "s")
        metrics["setup.generate_s"] = (statistics.median(generates), "s")
        metrics["trace.overhead_ratio"] = (sum(t for _, t in replayed) / replay.busy, "ratio")

    print(json.dumps(info))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
