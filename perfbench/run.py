"""loem benchmark: one workload, one seed, one run; the last line is the result.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload campaign --seed 1 --seconds 30 --trace 0

Workloads are described in ``workloads.py``.  The benchmark imports loem from
``src/`` of the checkout, calls ``loem.cli.main(argv)`` in-process (writing
``--output`` files to a temporary directory inside the checkout, removed at
exit) and the library directly for ``geometry``.  It is one process and one
closed-loop caller; BLAS is pinned to one thread.  It repeats whole passes
until ``--seconds`` have elapsed.

``--trace 0`` reports the end-to-end metrics: setup_s (median of fresh
interpreters that import loem and build the inputs), wall_s (median pass),
work_per_s (median over passes), item_ms_p50, item_ms_tail and
peak_rss_mb.  The speed of the host this was written on drifts by up to
half over tens of seconds, and most work slows together, so the time
metrics are reported at a nominal host speed: ``reference_loop``, a fixed
numpy loop that does not involve loem, is timed between items every
REFERENCE_EVERY_S, and each setup run, pass and item is multiplied by
REFERENCE_NOMINAL_S over the median reference time around it (see
``HostSpeed``).  The unscaled values are in the details line.

``--trace 1`` runs untraced passes for half the time, then wraps the traced
functions (see ``spans.py``) for the other half and reports unscaled
per-layer metrics per traced pass, the failed fraction (items hit by known
defects included) and the tracing overhead; it also checks exact call
counts.  Both print, before the result, a ``details`` line with the
environment, each first-pass CLI output's sha256, the tail percentile and
item count, and every problem found.  Exit status is 0 whenever a result
is printed; it is 2 when the checkout has no loem sources.
"""

from __future__ import annotations

import os

BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

SETUP_RUNS = 7
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
MIN_BEYOND = 10
REFERENCE_NOMINAL_S = 0.020
REFERENCE_EVERY_S = 0.5
REFERENCE_WINDOW_S = 1.5


def _median(values):
    return statistics.median(values) if values else 0.0


def _percentile(values, q):
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    low = int(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def tail_percentile(preferred: float, items: int) -> float:
    """The preferred percentile, or the highest lower one with MIN_BEYOND items beyond it."""
    for q in (preferred,) + tuple(q for q in TAIL_LADDER if q < preferred):
        if items * (1.0 - q / 100.0) >= MIN_BEYOND:
            return q
    return 50.0


def reference_loop() -> float:
    """Seconds taken by a fixed loop of small and medium numpy operations that does not involve loem."""
    import numpy as np

    start = time.perf_counter()
    rng = np.random.Generator(np.random.Philox(key=7))
    x = rng.standard_normal(16)
    acc = 0.0
    for _ in range(1800):
        y = np.cos(0.5 * x) ** 4 + np.sin(x) ** 2
        acc += float(y.sum()) + float(rng.multinomial(100, [0.25] * 4)[0])
    v = rng.standard_normal(256) + 1j * rng.standard_normal(256)
    for _ in range(24):
        acc += abs(np.vdot(np.outer(v, v.conj()) @ v, v)) + abs(np.kron(v[:64], v[:64]).sum())
    if not math.isfinite(acc):
        raise RuntimeError("reference loop produced a non-finite value")
    return time.perf_counter() - start


class HostSpeed:
    """Follows the host's speed by timing reference_loop between items."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (when, reference_loop seconds)
        self.spent = 0.0
        self._last = -math.inf

    def tick(self) -> None:
        """Run reference_loop if REFERENCE_EVERY_S have gone by since the last run."""
        now = time.perf_counter()
        if now - self._last >= REFERENCE_EVERY_S:
            self.samples.append((now, reference_loop()))
            self._last = time.perf_counter()
            self.spent += self._last - now

    def scale(self, start: float, end: float) -> float:
        """REFERENCE_NOMINAL_S over the median reference time from start to end, widened by REFERENCE_WINDOW_S."""
        near = [d for t, d in self.samples if start - REFERENCE_WINDOW_S <= t <= end + REFERENCE_WINDOW_S]
        if not near:
            near = [min(self.samples, key=lambda sample: abs(sample[0] - end))[1]]
        return REFERENCE_NOMINAL_S / statistics.median(near)


def time_setup(name: str, seed: int) -> tuple[float, float, float]:
    """Seconds taken by a fresh interpreter that imports loem and builds the inputs, with start and end."""
    code = (
        f"import sys; sys.path[:0] = [{str(SRC)!r}, {str(BENCH)!r}]; "
        f"import workloads; workloads.build({name!r}, {seed})"
    )
    start = time.perf_counter()
    # No timeout: Popen.wait polls in 50 ms steps when given one.
    subprocess.run([sys.executable, "-c", code], cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
    end = time.perf_counter()
    return end - start, start, end


def measure(workload, tally, seconds: float, first_index: int, traced: bool) -> list[tuple]:
    """Run whole passes until ``seconds`` have elapsed.

    Returns each pass's wall time (without the reference loops run inside
    it), start, end, the range of its items in ``tally.item_ms`` and the
    work it did.
    """
    passes = []
    start = time.perf_counter()
    index = first_index
    while not passes or time.perf_counter() - start < seconds:
        tally.tick()
        inputs = workload.inputs(index)
        spent = tally.speed.spent if tally.speed else 0.0
        first_item, work = len(tally.item_ms), tally.work
        pass_start = time.perf_counter()
        workload.run_pass(inputs, tally, index == 0, traced)
        pass_end = time.perf_counter()
        inside = (tally.speed.spent if tally.speed else 0.0) - spent
        passes.append(
            (pass_end - pass_start - inside, pass_start, pass_end, first_item, len(tally.item_ms), tally.work - work)
        )
        workload.check_pass(inputs, tally, index == 0)
        index += 1
    tally.tick()
    return passes


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    lines = sum(len(p.read_text(encoding="utf-8").splitlines()) for p in (SRC / "loem").rglob("*.py"))
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": int(BLAS_THREADS),
        "git_commit": git_commit(),
        "src_loem_lines": lines,
    }


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git; None outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def end_to_end(workload, tally, passes, setups) -> tuple[dict, dict]:
    """End-to-end metrics at nominal host speed: each time is multiplied by the host-speed scale around it.

    A pass is scaled piecewise: each of its items by the scale around that
    item, and the rest of the pass by the scale around the whole pass, so a
    pass that spans a change of host speed is weighted by time spent.
    """
    speed = tally.speed
    items = [ms * speed.scale(end - ms / 1e3, end) for ms, end in zip(tally.item_ms, tally.item_end)]
    walls = [
        (sum(items[first:last]) + (wall * 1e3 - sum(tally.item_ms[first:last])) * speed.scale(start, end)) / 1e3
        for wall, start, end, first, last, _ in passes
    ]
    q = tail_percentile(workload.TAIL_PERCENTILE, len(items))
    metrics = {
        "setup_s": (_median([t * speed.scale(start, end) for t, start, end in setups]), "s"),
        "wall_s": (_median(walls), "s"),
        "work_per_s": (_median([p[5] / wall for p, wall in zip(passes, walls)]), "1/s"),
        "item_ms_p50": (_percentile(items, 50.0), "ms"),
        "item_ms_tail": (_percentile(items, q), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    refs = [d for _, d in speed.samples]
    raw_walls = [p[0] for p in passes]
    info = {
        "tail_percentile": q,
        "items_timed": len(items),
        "passes": len(passes),
        "reference_loop_s": {"median": _median(refs), "min": min(refs), "max": max(refs), "runs": len(refs)},
        "unscaled": {
            "setup_s": _median([t for t, _, _ in setups]),
            "wall_s": _median(raw_walls),
            "work_per_s": _median([p[5] / p[0] for p in passes]),
            "item_ms_p50": _percentile(tally.item_ms, 50.0),
            "item_ms_tail": _percentile(tally.item_ms, q),
        },
    }
    return metrics, info


def per_layer(workload, tally, tracer, untraced, traced, traced_bytes) -> tuple[dict, dict]:
    import spans

    passes = len(traced)
    metrics = {}
    layer_ms: dict[str, float] = {}
    for key in spans.FUNCTIONS:
        calls, self_ns, _ = tracer.stats[key]
        metrics[f"{key}.calls"] = (calls / passes, "count/pass")
        metrics[f"{key}.self_ms"] = (self_ns / 1e6 / passes, "ms/pass")
        layer = key.split(".")[0]
        layer_ms[layer] = layer_ms.get(layer, 0.0) + self_ns / 1e6 / passes
    for layer, ms in layer_ms.items():
        metrics[f"{layer}.self_ms"] = (ms, "ms/pass")
    metrics["information.uhlmann_curvature.errors"] = (
        tracer.stats["information.uhlmann_curvature"][2] / passes, "count/pass")
    metrics["estimation.useful_ratio"] = (tracer.useful / tracer.trials if tracer.trials else 0.0, "ratio")
    metrics["cli.bytes_out"] = (traced_bytes / passes, "bytes/pass")
    for d, calls in getattr(workload, "curvature_calls", {}).items():
        ms = workload.curvature_ms[d] / calls if calls else 0.0
        metrics[f"information.uhlmann_curvature.d{d}.ms_per_call"] = (ms, "ms")
    for d in range(2, 7):
        metrics.setdefault(f"information.uhlmann_curvature.d{d}.ms_per_call", (0.0, "ms"))
    # Failed items over attempted, including those hit by the known defect.
    metrics["failed_frac"] = ((tally.failed + tally.known_failures) / tally.attempted, "ratio")
    metrics["trace_overhead_s"] = (_median(traced) - _median(untraced), "s")
    wall_ms = sum(traced) * 1e3 / passes
    info = {
        "traced_passes": passes,
        "untraced_passes": len(untraced),
        "traced_pass_s": _median(traced),
        "outcome_probability_points": tracer.points,
        "layer_share_of_traced_wall": {layer: round(ms / wall_ms, 4) for layer, ms in layer_ms.items()},
        "functions_missing": sorted(set(spans.FUNCTIONS) - tracer.found),
    }
    return metrics, info


def run(args, outdir: str) -> tuple[dict, dict]:
    import spans
    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed, outdir)
    tally = workloads.Tally()
    problems = []
    details = {"workload": args.workload, "seed": args.seed, "trace": args.trace}
    if spans.installed_wrappers():
        problems.append(f"wrappers installed before the run: {spans.installed_wrappers()}")
    if args.trace == 0:
        tally.speed = HostSpeed()
        setups = []
        for _ in range(SETUP_RUNS):
            tally.tick()
            setups.append(time_setup(args.workload, args.seed))
        passes = measure(workload, tally, args.seconds, 0, False)
        workload.finish(tally)
        metrics, info = end_to_end(workload, tally, passes, setups)
    else:
        untraced = [p[0] for p in measure(workload, tally, args.seconds / 2.0, 0, False)]
        tracer = spans.Tracer()
        bytes_before = tally.bytes_out
        tracer.install()
        try:
            traced = [p[0] for p in measure(workload, tally, args.seconds / 2.0, len(untraced), True)]
        finally:
            tracer.remove()
        workload.finish(tally)
        problems.extend(workload.self_check(tracer))
        metrics, info = per_layer(workload, tally, tracer, untraced, traced, tally.bytes_out - bytes_before)
    if spans.installed_wrappers():
        problems.append(f"wrappers left installed: {spans.installed_wrappers()}")
    problems = problems + tally.problems
    details.update(info)
    details.update(
        attempted=tally.attempted,
        failed=tally.failed,
        known_failures=tally.known_failures,
        problems=problems[:20],
        outputs_sha256=tally.outputs,
        environment=environment(),
    )
    result = {
        "correct": not problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    return details, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("campaign", "tables", "geometry"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "loem" / "__init__.py").is_file():
        print(f"error: no loem package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # Turn SIGTERM into SystemExit so the output directory is still removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    outdir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        details, result = run(args, outdir)
    finally:
        shutil.rmtree(outdir, ignore_errors=True)
    print(json.dumps({"details": details}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
