"""Benchmark of the ballisticwaves stack: four workloads, traced per module.

Usage (from the repository root):

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: detector_images, vortex_lattice, spectra, pointwise (see
bench/README.md).  The run first times SETUP_SAMPLES fresh interpreters
that import the package from ./src and make its first calls, then imports
the package itself and repeats whole rounds of the workload's operations
until the measured time would pass S seconds.  Every round's outputs are
checked after the round, outside its timing.  The last line of standard
output is one JSON object with "correct", "attempted", "failed" and
"metrics": the end-to-end metrics with --trace 0, the per-layer metrics
with --trace 1.  A run that cannot import the package exits with code 2.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import resource
import shutil
import statistics
import subprocess
import sys
import time
import warnings
from types import SimpleNamespace

BENCH = pathlib.Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

#: Fresh interpreters timed for setup_s; the median is reported.
SETUP_SAMPLES = 3

#: Calibration kernel time at the speed all timings are scaled to (seconds).
KERNEL_REF_S = 2.5e-3

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "op_p50_ms": "ms",
                    "peak_rss_mb": "MB", "accuracy_digits": "digits"}


class SetupError(Exception):
    """The package could not be imported from the checkout."""


def _pin_threads() -> None:
    """Hold numeric thread pools to the CPUs this process may use."""
    n = str(len(os.sched_getaffinity(0)))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS"):
        os.environ[var] = n


def _in_src(path: str) -> bool:
    return pathlib.Path(path).resolve().is_relative_to(SRC.resolve())


def probe_setup(gauge) -> tuple[float, dict]:
    """Time of one fresh interpreter from start to package ready, scaled by
    the speed gauge measured just before and just after it."""
    before = gauge.measure()
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, str(BENCH / "probe.py"), str(SRC)],
                          capture_output=True, text=True, timeout=150)
    wall = time.perf_counter() - t0
    after = gauge.measure()
    if proc.returncode != 0:
        lines = proc.stderr.strip().splitlines() or ["no output"]
        raise SetupError(f"set-up probe failed: {lines[-1]}")
    info = json.loads(proc.stdout.strip().splitlines()[-1])
    if not _in_src(info["file"]):
        raise SetupError(f"package imported from {info['file']}, not from {SRC}")
    factor = gauge.REF_S / (0.5 * (before + after))
    info = dict(info, import_s=info["import_s"] * factor,
                first_call_s=info["first_call_s"] * factor)
    return wall * factor, info


def import_library() -> SimpleNamespace:
    sys.path.insert(0, str(SRC))
    try:
        import ballisticwaves
        from ballisticwaves import (airyq, atomlaser, ballistic, cli, errors, freespace,
                                    harmonics, semiclassical, specfun)
    except ImportError as exc:
        raise SetupError(f"cannot import ballisticwaves from {SRC}: {exc}") from None
    if not _in_src(ballisticwaves.__file__):
        raise SetupError(f"package imported from {ballisticwaves.__file__}, not from {SRC}")
    return SimpleNamespace(package=ballisticwaves, specfun=specfun, airyq=airyq,
                           harmonics=harmonics, ballistic=ballistic, atomlaser=atomlaser,
                           freespace=freespace, semiclassical=semiclassical, cli=cli,
                           errors=errors)


class _NoSpan:
    """Stands in for a tracer span in untraced rounds."""

    def __enter__(self):
        return [None] * 6

    def __exit__(self, *exc):
        return False


def _no_span(layer: str, name: str, count: int = 0):
    return _NoSpan()


def _qi_mp_misses(lib) -> int:
    """Arbitrary-precision Qi recursions computed so far (memo misses)."""
    fn = getattr(lib.airyq, "_qi_scaled_mp", None)
    info = getattr(fn, "cache_info", None)
    return info().misses if info else 0


class SpeedGauge:
    """Times a fixed calibration kernel now and then, to correct timings for
    the machine's speed at that moment.

    On a shared host the same operation can take 2-3x longer from one
    minute to the next, and its CPU time moves with its wall time.  The
    kernel (vectorized Airy functions plus an interpreter-bound loop, like
    the grid and the scalar layers) slows down with it, so a timing is
    reported as ``raw * REF_S / reading``, the reading being the mean of the
    kernel times taken just before and just after it: seconds at the speed
    where the kernel takes REF_S, about this machine's speed when quiet.
    The kernel never calls the package, so no change to the package can
    move it.
    """

    REF_S = KERNEL_REF_S
    INTERVAL_S = 0.2

    def __init__(self):
        import math

        import numpy as np
        import scipy.special as sc

        x = np.linspace(-30.0, 30.0, 512)

        def kernel():
            sc.airy(x)
            sc.airye(x + 31.0)
            acc = 0.0
            for i in range(6000):
                acc += math.sqrt(i + 0.5)
            return acc

        self._kernel = kernel
        self._last_t = -math.inf
        self.samples: list[float] = []

    def measure(self) -> float:
        """Take a reading: the median of three kernel timings."""
        runs = []
        for _ in range(3):
            t0 = time.perf_counter()
            self._kernel()
            runs.append(time.perf_counter() - t0)
        self.samples.append(statistics.median(runs))
        self._last_t = time.perf_counter()
        return self.samples[-1]

    def refresh(self) -> None:
        """Take a reading if the last one is older than INTERVAL_S."""
        if time.perf_counter() - self._last_t >= self.INTERVAL_S:
            self.measure()


def measure(wl, lib, seconds: float, tracer, gauge: SpeedGauge, OpError) -> dict:
    """Run whole rounds until the next one would pass the time budget.

    Each operation's time is scaled by the mean of the gauge readings taken
    just before and just after it; a round's time is the sum of its
    operations' times.  The budget counts unscaled time.
    """
    BallisticError = lib.errors.BallisticError
    StabilityWarning = lib.errors.StabilityWarning
    rounds, checks, attempted, failed = [], [], 0, 0
    measured, r = 0.0, 0
    min_rounds = 2 if tracer else 1
    while True:
        traced = tracer is not None and r % 2 == 1
        ops = wl.ops(r, tracer.span if traced else _no_span)
        if traced:
            first, misses = len(tracer.spans), _qi_mp_misses(lib)
            tracer.install()
        outs, raws, cals = [], [], []
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            for kind, call in ops:
                gauge.refresh()
                cals.append(len(gauge.samples) - 1)
                n_warn = len(caught)
                t0 = time.perf_counter()
                try:
                    value, error = call(), None
                except (BallisticError, OpError) as exc:
                    value, error = None, exc
                raws.append(time.perf_counter() - t0)
                outs.append((kind, value, error, n_warn))
        rd = dict(traced=traced, kinds=[o[0] for o in outs], raws=raws, cals=cals)
        if traced:
            tracer.uninstall()
            rd["layer"] = tracer.metrics(first, len(tracer.spans))
            rd["layer"]["airyq.qi_mp_calls"] = _qi_mp_misses(lib) - misses
            rd["layer"]["airyq.stability_warnings"] = sum(
                1 for w in caught if issubclass(w.category, StabilityWarning))
        rounds.append(rd)
        bounds = [n for _, _, _, n in outs] + [len(caught)]
        round_ok = True
        for i, (kind, value, error, _) in enumerate(outs):
            warned = any(issubclass(w.category, StabilityWarning)
                         for w in caught[bounds[i]:bounds[i + 1]])
            attempted += 1
            if wl.is_fault(kind):
                failed += error is None and not warned and wl.fault_wrong(value)
            elif error is not None:
                failed += 1
                round_ok = False
                print(f"operation {kind} failed: {error}", file=sys.stderr)
        if round_ok:
            checks.extend(wl.check(r, [(kind, value) for kind, value, _, _ in outs]))
        shutil.rmtree(wl.workdir / f"round{r}", ignore_errors=True)
        measured += sum(raws)
        r += 1
        if r >= min_rounds and measured + measured / r > seconds:
            break
    gauge.measure()  # the reading after the last operation
    samples = gauge.samples
    untraced_walls, traced_walls, kind_times, layer_rounds = [], [], {}, []
    for rd in rounds:
        factors = [gauge.REF_S / (0.5 * (samples[c] + samples[c + 1])) for c in rd["cals"]]
        times = [t * f for t, f in zip(rd["raws"], factors)]
        if rd["traced"]:
            traced_walls.append(sum(times))
            layer, scale = rd["layer"], statistics.mean(factors)
            for name, unit in tracer.UNITS.items():
                if unit in ("s", "us", "ns"):
                    layer[name] *= scale
            layer_rounds.append(layer)
        else:
            untraced_walls.append(sum(times))
            for kind, t in zip(rd["kinds"], times):
                kind_times.setdefault(kind, []).append(t)
    return dict(untraced_walls=untraced_walls, traced_walls=traced_walls, kind_times=kind_times,
                layer_rounds=layer_rounds, checks=checks, attempted=attempted, failed=failed,
                rounds=r)


def end_to_end(res: dict, setup_walls: list) -> dict:
    digits = [d for _, ok, d in res["checks"] if ok and d is not None]
    return {
        "setup_s": statistics.median(setup_walls),
        "wall_s": statistics.median(res["untraced_walls"]),
        "op_p50_ms": statistics.median(
            statistics.median(v) for v in res["kind_times"].values()) * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        "accuracy_digits": min(digits) if digits else 0.0,
    }


def per_layer(res: dict, infos: list, units: dict) -> dict:
    """Counts from the first traced round (they repeat exactly for a seed),
    times as the median over traced rounds."""
    rounds = res["layer_rounds"]
    out = {}
    for name, unit in units.items():
        if name.startswith("setup."):
            out[name] = statistics.median(i[name.split(".", 1)[1]] for i in infos)
        elif name == "trace.overhead_s":
            out[name] = (statistics.median(res["traced_walls"])
                         - statistics.median(res["untraced_walls"]))
        elif unit == "count":
            out[name] = int(rounds[0][name])
        elif unit == "MB":
            out[name] = rounds[0][name]
        else:
            out[name] = statistics.median(lr[name] for lr in rounds)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _pin_threads()
    gauge = SpeedGauge()
    try:
        probes = [probe_setup(gauge) for _ in range(SETUP_SAMPLES)]
        lib = import_library()
    except (SetupError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    import probe
    import spans
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    probe.first_use()
    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        wl = workloads.WORKLOADS[args.workload](lib, args.seed, workdir)
        tracer = None
        if args.trace:
            modules = {name: getattr(lib, name) for name in spans.LAYERS}
            tracer = spans.Tracer(lib.package, modules)
        res = measure(wl, lib, args.seconds, tracer, gauge, workloads.OpError)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if tracer:
        tracer.dump(WORK / f"trace-{args.workload}-seed{args.seed}.json")
        values = per_layer(res, [info for _, info in probes], spans.METRIC_UNITS)
        units = spans.METRIC_UNITS
    else:
        values = end_to_end(res, [wall for wall, _ in probes])
        units = END_TO_END_UNITS
    bad = [label for label, ok, _ in res["checks"] if not ok]
    for label in bad:
        print(f"check failed: {label}", file=sys.stderr)
    print(f"{args.workload}: {res['rounds']} rounds, {len(res['checks'])} checks, "
          f"{len(bad)} failed", file=sys.stderr)
    print(json.dumps({
        "correct": not bad,
        "attempted": res["attempted"],
        "failed": int(res["failed"]),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
