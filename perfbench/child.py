"""Time hessmc CLI calls made inside one process, optionally traced.

Usage:
    python3 perfbench/child.py --plan PLAN.json --result R.json [--spans F.npz]

PLAN.json holds {"seconds": S, "min_calls": K, "out": DIR, "calls": [{"label":
L, "args": [...]}, ...]}. After importing the package once, the process calls
``hessmc.cli.main(args + ["--out", DIR/L_i])`` for each entry in turn, for
i = 0, 1, ... until S seconds of wall time have passed on that entry and at
least K calls were made (at least one call, and none after a call that
failed). Each call's wall time, CPU time (``time.process_time``, all
threads) and exit code go to R.json, with the CPU time of a fixed
calibration task run just before the call.
Interpreter start and imports are paid once per process, so the per-call
figures hold the CLI's own work: target set-up, sampling, diagnostics and
CSV writes.

Each entry whose label is listed in the plan's optional "alloc" key then
makes one more call, untimed, with ``tracemalloc`` on. Its record carries
``alloc_mb``: the peak of memory allocated by Python and numpy during the
call, which holds the retained chain samples and the diagnostics' work arrays.

With ``--spans F.npz`` spans are recorded around the public calls of each
layer and written to F.npz at exit. The wrappers live here, not in the
package: each listed function is replaced in every hessmc module that binds
it, because ``samplers`` and ``targets`` import the ``linalg`` functions by
name (``samplers.solve`` is a separate binding from ``linalg.solve``). Spans
are kept in per-thread buffers, each with its parent on the same thread.
Results are unchanged: a wrapper only reads the clock and the arguments or
result it is given.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import threading
import time
import tracemalloc

import numpy as np
import scipy.linalg

import hessmc
from hessmc import cli, diagnostics, linalg, samplers, targets

MODULES = (hessmc, cli, diagnostics, linalg, samplers, targets)


def _out_of_domain(position) -> float:
    return 0.0 if bool(np.all(np.asarray(position) > 0.0)) else 1.0


# (layer, owner, attribute, value recorded with the span or None).
# Owners are modules, except the target's methods, which are patched on the
# class. The recorded values feed the per-layer ratios in run.py.
WRAPPED = (
    ("targets", targets.LogNormalField, "potential", None),
    ("targets", targets.LogNormalField, "gradient", None),
    ("targets", targets.LogNormalField, "hessian", None),
    ("targets", targets.LogNormalField, "map_point", None),
    ("targets", targets, "build_grid_covariance", None),
    ("linalg", linalg, "factorize", None),
    ("linalg", linalg, "solve", None),
    ("linalg", linalg, "inverse", None),
    ("linalg", linalg, "sample_gaussian", None),
    ("linalg", linalg, "repair_to_pd", None),
    ("samplers", samplers, "run_chain", lambda a, r: float(np.mean(r.accept_flags))),
    ("samplers", samplers, "leapfrog", lambda a, r: _out_of_domain(r.position)),
    ("samplers", samplers, "mh_propose", lambda a, r: _out_of_domain(r)),
    ("samplers", samplers, "hmap_mass", None),
    ("diagnostics", diagnostics, "summarize_chain", None),
    ("diagnostics", diagnostics, "correlation_time", lambda a, r: float(len(r[1]))),
    ("diagnostics", diagnostics, "credible_band", None),
    ("cli", cli, "run_experiment", None),
    ("cli", cli, "build_target", None),
    ("cli", cli, "write_csv", lambda a, r: float(os.path.getsize(a[0]))),
)


class _Buffer:
    """Spans of one thread; parent indices point into the same buffer."""

    def __init__(self):
        self.name: list[int] = []
        self.start: list[int] = []
        self.end: list[int] = []
        self.parent: list[int] = []
        self.value: list[float] = []
        self.stack: list[int] = []


class Tracer:
    """Records spans in memory and writes them out on demand."""

    def __init__(self):
        self.names: list[str] = []
        self._local = threading.local()
        self._buffers: list[_Buffer] = []
        self._lock = threading.Lock()

    def _buffer(self) -> _Buffer:
        buf = getattr(self._local, "buf", None)
        if buf is None:
            buf = _Buffer()
            self._local.buf = buf
            with self._lock:
                self._buffers.append(buf)
        return buf

    def wrap(self, name: str, fn, value=None):
        name_id = len(self.names)
        self.names.append(name)
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            buf = self._buffer()
            i = len(buf.start)
            buf.name.append(name_id)
            buf.parent.append(buf.stack[-1] if buf.stack else -1)
            buf.end.append(0)
            buf.value.append(np.nan)
            buf.stack.append(i)
            buf.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                buf.end[i] = clock()
                buf.stack.pop()
            if value is not None:
                buf.value[i] = value(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        for layer, owner, attr, value in WRAPPED:
            fn = getattr(owner, attr)
            traced = self.wrap(f"{layer}.{attr}", fn, value)
            if isinstance(owner, type):
                setattr(owner, attr, traced)
                continue
            for module in MODULES:
                for key, bound in list(vars(module).items()):
                    if bound is fn:
                        setattr(module, key, traced)

    def save(self, path: str) -> None:
        name, start, end, parent, value = [], [], [], [], []
        offset = 0
        for buf in self._buffers:
            name.extend(buf.name)
            start.extend(buf.start)
            end.extend(buf.end)
            parent.extend(p + offset if p >= 0 else -1 for p in buf.parent)
            value.extend(buf.value)
            offset += len(buf.start)
        np.savez(
            path,
            names=np.array(self.names),
            name=np.array(name, dtype=np.int32),
            start=np.array(start, dtype=np.int64),
            end=np.array(end, dtype=np.int64),
            parent=np.array(parent, dtype=np.int64),
            value=np.array(value, dtype=float),
        )


def calibration_task(spd: np.ndarray, factor: np.ndarray) -> float:
    """CPU seconds of a fixed task shaped like a sampler's inner loop.

    Triangular solves against a fixed 64x64 Cholesky factor, each with a few
    vector operations, and every other step a rank-one update and a fresh
    Cholesky factorization: interpreter, numpy-call and dense linear algebra
    cost in about the proportions of a desk-scale transition. It runs no
    hessmc code, so a change to the package cannot move it; run just before
    each call, it measures how fast the machine is at that moment.
    """
    start = time.process_time()
    v = np.ones(factor.shape[0])
    for i in range(400):
        for _ in range(4):
            v = scipy.linalg.cho_solve((factor, True), v)
            v = v / np.sqrt(v @ v)
        if i % 2 == 0:
            scipy.linalg.cholesky(spd + np.outer(v, v), lower=True)
    return time.process_time() - start


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--plan", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--spans")
    args = parser.parse_args(argv)
    with open(args.plan) as fh:
        plan = json.load(fh)

    rng = np.random.default_rng(0)
    a = rng.standard_normal((64, 64))
    spd = a @ a.T + 64.0 * np.eye(64)
    factor = scipy.linalg.cholesky(spd, lower=True)
    tracer = None
    if args.spans:
        tracer = Tracer()
        tracer.install()
    calls = []
    try:
        for entry in plan["calls"]:
            start, n = time.perf_counter(), 0
            # A failed call ends the loop: its error would only repeat.
            while n == 0 or calls[-1]["exit"] == 0 and (
                n < plan["min_calls"] or time.perf_counter() - start < plan["seconds"]
            ):
                out = os.path.join(plan["out"], f"{entry['label']}_{n}")
                calib = calibration_task(spd, factor)
                wall, cpu = time.perf_counter(), time.process_time()
                code = cli.main([*entry["args"], "--out", out])
                wall, cpu = time.perf_counter() - wall, time.process_time() - cpu
                calls.append({"label": entry["label"], "out": out, "wall_s": wall, "cpu_s": cpu,
                              "calib_s": calib, "exit": code})
                n += 1
        for entry in plan["calls"]:
            if entry["label"] not in plan.get("alloc", ()):
                continue
            out = os.path.join(plan["out"], f"alloc_{entry['label']}")
            tracemalloc.start()
            code = cli.main([*entry["args"], "--out", out])
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
            calls.append({"label": entry["label"], "out": out, "exit": code, "alloc_mb": peak / 1e6})
    finally:
        if tracer is not None:
            tracer.save(args.spans)
        with open(args.result, "w") as fh:
            json.dump(calls, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
