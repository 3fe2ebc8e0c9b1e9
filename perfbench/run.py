"""Run the vvtrack benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload (or ``all``, each in its own process) from the root of a
checkout, against the package under ``src/``.  Set-up builds the inputs
from the seed; the run then repeats whole passes of the workload's jobs,
one job at a time, for about ``--seconds`` seconds, checking every output.
With ``--trace 0`` it reports the end-to-end metrics of ``BENCHMARK.json``;
with ``--trace 1`` it makes one untraced pass, then traced passes, writes
the spans to ``.perfbench/trace-<workload>-seed<N>.jsonl`` and reports the
per-layer metrics.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 5
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def cap_blas_threads() -> int:
    """Cap BLAS threads at nproc before numpy loads; returns the cap."""
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_THREAD_VARS:
        current = os.environ.get(var, "")
        if not current.isdigit() or int(current) > nproc or int(current) < 1:
            os.environ[var] = str(nproc)
    return nproc


def blas_threads():
    """Threads OpenBLAS reports, or None when that cannot be asked."""
    import ctypes

    import numpy as np

    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*.so*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def git_state():
    def git(*args):
        try:
            done = subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True,
                                  text=True, timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            return None
        return done.stdout.strip() if done.returncode == 0 else None

    commit = git("rev-parse", "HEAD")
    status = git("status", "--porcelain") if commit else None
    return commit, (None if status is None else bool(status))


def environment(seed, nproc):
    import numpy as np
    import scipy

    cpu = None
    with contextlib.suppress(OSError), open("/proc/cpuinfo") as fh:
        cpu = next((line.split(":", 1)[1].strip() for line in fh
                    if line.startswith("model name")), None)
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit, dirty = git_state()
    return {"seed": seed, "nproc": nproc, "cpu": cpu or platform.processor(),
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": blas_threads(), "blas_thread_cap": nproc,
            "git_commit": commit, "git_dirty": dirty}


class ReferenceClock:
    """Rescales measured seconds to reference seconds.

    The machines this runs on change speed by up to 2x over tens of
    seconds (co-tenants, frequency), and CPU time drifts with wall time.
    So a fixed loop of the kinds of work the program does (small
    projections in a Python loop, a broadcast distance reduction) is timed
    between jobs, and each job's seconds are scaled by REF_LOOP_S over the
    mean of the loops just before and after it: reference seconds are the
    job's seconds on a machine that runs the loop in REF_LOOP_S.
    """

    REF_LOOP_S = 0.25

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        self._np = np
        self._v = rng.random(1024)
        self._u = np.linalg.qr(rng.random((1024, 8)))[0]
        self._x = rng.random((400, 128))
        self._c = rng.random((50, 128))
        self.loops = []

    def loop(self) -> float:
        np, v, u, x, c = self._np, self._v, self._u, self._x, self._c
        t0 = time.perf_counter()
        acc = 0.0
        for i in range(12000):
            o = v - u @ (u.T @ v)
            acc += float(np.exp(-(o @ o) / 51.2)) + i
        for _ in range(12):
            acc += float(((x[:, None, :] - c[None, :, :]) ** 2).sum(axis=2).min(axis=1).sum())
        elapsed = time.perf_counter() - t0
        self.loops.append(elapsed)
        return elapsed

    def scale(self, before: float, after: float) -> float:
        return self.REF_LOOP_S / ((before + after) / 2.0)


@dataclass
class Passes:
    """Outcome of run_passes; times are reference seconds unless raw."""

    times: list = field(default_factory=list)
    raw_times: list = field(default_factory=list)
    jobs: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0


def run_passes(workload, seconds, clock, on_pass=None) -> Passes:
    """Whole passes of the workload's jobs for about ``seconds``.

    Another pass starts while it should end within half a pass of
    ``seconds``; at least one pass runs.  A job's time excludes its check;
    a pass time sums its jobs.
    """
    out = Passes()
    start = time.perf_counter()
    before = clock.loop()
    while True:
        if on_pass is not None:
            on_pass(len(out.times))
        pass_start = time.perf_counter()
        total = raw = 0.0
        for job, fn in workload.jobs():
            out.attempted += 1
            t0 = time.perf_counter()
            try:
                with contextlib.redirect_stdout(sys.stderr):
                    output = fn()
            except Exception:
                out.failed += 1
                print(f"{workload.name}/{job}: job raised", file=sys.stderr)
                traceback.print_exc()
                continue
            elapsed = time.perf_counter() - t0
            after = clock.loop()
            raw += elapsed
            elapsed *= clock.scale(before, after)
            before = after
            total += elapsed
            out.jobs.setdefault(job, []).append(elapsed)
            try:
                workload.check(job, output)
            except Exception as exc:
                out.failed += 1
                print(f"{workload.name}/{job}: check failed: {exc}", file=sys.stderr)
        out.times.append(total)
        out.raw_times.append(raw)
        now = time.perf_counter()
        if now - start + (now - pass_start) / 2 > seconds:
            return out


def set_up(workload_cls, seed, work, clock):
    """Set up SETUP_REPEATS times; keep the last; return (workload, median s)."""
    times = []
    before = clock.loop()
    for r in range(SETUP_REPEATS):
        root = work / f"inputs{r}"
        workload = workload_cls(root, seed)
        t0 = time.perf_counter()
        workload.setup()
        times.append(time.perf_counter() - t0)
        if r < SETUP_REPEATS - 1:
            shutil.rmtree(root, ignore_errors=True)
    return workload, statistics.median(times) * clock.scale(before, clock.loop())


def quality(workload):
    try:
        return workload.quality()
    except Exception:
        print(f"{workload.name}: quality metrics unavailable", file=sys.stderr)
        traceback.print_exc()
        return {}


def timed_run(workload, args, clock, setup_s):
    """Untraced passes: every end-to-end metric the workload has."""
    with contextlib.ExitStack() as stack:
        for p in workload.probes():
            stack.enter_context(p)
        passes = run_passes(workload, args.seconds, clock)
    shown = {"wall_s": (statistics.median(passes.times), "s"),
             "setup_s": (setup_s, "s"),
             "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                             "MB")}
    for job, metric in workload.job_metrics.items():
        shown[metric] = (statistics.median(passes.jobs.get(job, [0.0])), "s")
    shown.update(quality(workload))
    shown["passes"] = (len(passes.times), "count")
    shown["raw_wall_s"] = (statistics.median(passes.raw_times), "s")
    shown["ref_loop_s"] = (statistics.median(clock.loops), "s")
    return shown, passes.attempted, passes.failed


def traced_run(workload, args, clock, names):
    """One untraced pass, then traced passes; per-layer metrics per pass."""
    from layers import HOOKS, layer_metrics
    from tracing import Tracer

    tracer = Tracer(HOOKS)
    start = time.perf_counter()
    with contextlib.ExitStack() as stack:
        for p in workload.probes():
            stack.enter_context(p)
        base = run_passes(workload, 0.0, clock)
    left = args.seconds - (time.perf_counter() - start)
    with tracer.install(), contextlib.ExitStack() as stack:
        for p in workload.probes():
            stack.enter_context(p)

        def label(index):
            tracer.run = f"{workload.name}/seed{args.seed}/pass{index}"

        traced = run_passes(workload, left, clock, on_pass=label)
    out = ROOT / ".perfbench" / f"trace-{workload.name}-seed{args.seed}.jsonl"
    tracer.write_jsonl(out)
    print(f"spans: {len(tracer.spans)} written to {out.relative_to(ROOT)}")
    metrics = layer_metrics(names, tracer.spans, tracer.counts, traced, base.times[0])
    return metrics, base.attempted + traced.attempted, base.failed + traced.failed


def run_one(args, spec) -> int:
    nproc = cap_blas_threads()
    names = {w["name"] for w in spec["workloads"]}
    if args.workload not in names:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(names)}",
              file=sys.stderr)
        return 2
    if not (ROOT / "src" / "vvtrack" / "__init__.py").is_file():
        print(f"error: no vvtrack sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    t0 = time.perf_counter()
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import workloads  # imports numpy, scipy and every vvtrack module
    import_s = time.perf_counter() - t0
    clock = ReferenceClock()
    import_s *= clock.scale(clock.loop(), clock.loop())

    env = environment(args.seed, nproc)
    print("env " + json.dumps(env))
    (ROOT / ".perfbench").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=ROOT / ".perfbench"))
    try:
        workload, setup_s = set_up(workloads.WORKLOADS[args.workload], args.seed, work,
                                   clock)
        if args.trace:
            wanted = [m["name"] for m in spec["per_layer"]]
            units = {m["name"]: m["unit"] for m in spec["per_layer"]}
            values, attempted, failed = traced_run(workload, args, clock, wanted)
            shown = {k: (v, units[k]) for k, v in values.items()}
        else:
            wanted = [m["name"] for m in spec["end_to_end"]]
            shown, attempted, failed = timed_run(workload, args, clock,
                                                 import_s + setup_s)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for name, (value, unit) in shown.items():
        print(f"{args.workload:14s} {name:36s} {value:14.6g} {unit}")
    print(f"{args.workload:14s} {'failed/attempted':36s} {failed}/{attempted}")
    missing = [m for m in wanted if m not in shown]
    if missing:
        print(f"error: metrics not measured: {missing}", file=sys.stderr)
        return 1
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": {m: {"value": shown[m][0], "unit": shown[m][1]}
                                  for m in wanted}}))
    return 0


def run_all(args, spec) -> int:
    """Each workload in its own process, so peak memory belongs to it."""
    results = {}
    status = 0
    for w in spec["workloads"]:
        done = subprocess.run([sys.executable, str(Path(__file__).resolve()),
                               "--workload", w["name"], "--seed", str(args.seed),
                               "--seconds", str(args.seconds),
                               "--trace", str(args.trace)],
                              capture_output=True, text=True)
        sys.stderr.write(done.stderr)
        lines = done.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if done.returncode != 0 or not lines:
            print(f"error: workload {w['name']} exited {done.returncode}",
                  file=sys.stderr)
            status = 1
            continue
        results[w["name"]] = json.loads(lines[-1])
    print(json.dumps({"workloads": results}))
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    spec_path = ROOT / "BENCHMARK.json"
    try:
        spec = json.loads(spec_path.read_text())
    except (OSError, ValueError) as exc:
        print(f"error: cannot read {spec_path}: {exc}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args, spec)
    return run_one(args, spec)


if __name__ == "__main__":
    sys.exit(main())
