"""Benchmark of the preference-chain library, one workload per CLI command.

Usage, from the repository root:

    python3 bench/run.py --workload eval-large-ref --seed 0 --seconds 20 --trace 0

Workloads (see ``workloads.py``):

* ``eval-large-ref``: ``evaluate`` with 5,000 reference and 1,000
  validation records; top-k retrieval dominates.
* ``sweep-small-ref``: ``sweep`` with the CLI defaults; it rebuilds small
  graphs, so path scoring, calibration and extraction dominate.
* ``city-day``: ``simulate`` with 320 agents on a 40x40 grid; routing
  dominates.

Everything runs in this one process on one thread. Inputs are generated
from ``--seed`` and written under ``.bench_out/`` before anything is timed.
The command is set up several times and the median is reported as
``setup_s``; then whole passes of its body run until ``--seconds`` of body
time and at least ``MIN_QUERIES`` queries are done.

Times are CPU time of this process, reported at a fixed host speed. On a
shared host, other work preempts this process now and then, which adds
milliseconds of wall time to a query, and the speed of the CPU can drift
by tens of percent over minutes. CPU time leaves the first out. Against the second, the benchmark times a fixed reference computation
of its own (``Gauge``) every ``GAUGE_INTERVAL_S`` of the body and around
each set-up, and scales every measured time by ``GAUGE_NOMINAL_S`` over
the gauge's median duration at that moment: a query by the rolling median
of the nearest gauge samples, a pass and a set-up by the median of the
samples taken during and around it. A change to the library moves the
scaled times; a host that runs everything slower moves the gauge with
them. The unscaled CPU times are kept in the record.

With ``--trace 0`` the last line of output reports the end-to-end metrics:
``setup_s``; ``throughput_per_s``, work finished per second of body
(validation records, sweep records, or trips); ``query_p50_ms`` and
``query_p99_ms``, the latency of each ``PreferenceChain.predict_all`` call
in the body over the whole run; and ``peak_rss_mb``. ``attempted`` and
``failed`` count those calls and the ones that raised or returned an
invalid posterior, so their ratio is the error rate. The line before it
records the Python and numpy versions, the git SHA, ``nproc``, the seed,
the unscaled times, the gauge and, when traced, the tracing overhead.
With ``--trace 1`` the run is traced instead: one set-up and one pass with
every module boundary wrapped (see ``tracer.py``), then one untraced set-up
and pass to measure the tracing overhead; the last line reports the
per-layer metrics and the spans go to ``.bench_out/``.

Every pass hashes the bytes the CLI would write (``report.csv``,
``sweep.csv``, ``edge_tally.csv``/``poi_tally.csv``). The run is incorrect,
and exits with code 1, if the passes disagree, if a digest pinned in
``digests.json`` for this workload and seed differs, if a workload
invariant breaks, if any query returns an invalid posterior, or, when
traced, if an expected boundary recorded no call.
"""

from __future__ import annotations

import argparse
import hashlib
import heapq
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from contextlib import contextmanager
from pathlib import Path
from time import process_time

# One thread for numpy's linear algebra too; set before numpy is imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
DIGESTS = BENCH_DIR / "digests.json"

SETUP_REPEATS = 7
# The gauge is sampled this often in the body, this many times on each side
# of a set-up, and a query's speed is the median of this many samples on
# each side of it.
GAUGE_INTERVAL_S = 0.03
GAUGE_AROUND_SETUP = 5
GAUGE_WINDOW = 10
# Scaled times are what they would be if one gauge sample took this long.
GAUGE_NOMINAL_S = 1e-3
GAUGE_ROWS = 1200
# A p99 needs at least ten samples beyond it.
MIN_QUERIES = 1000
POSTERIOR_TOLERANCE = 1e-9

END_TO_END = (
    ("setup_s", "s"),
    ("throughput_per_s", "1/s"),
    ("query_p50_ms", "ms"),
    ("query_p99_ms", "ms"),
    ("peak_rss_mb", "MiB"),
)


class Gauge:
    """A fixed reference computation whose duration tracks the host's speed.

    Its mix follows the library's hot paths: heap and dict operations in
    Python, as in routing and path scoring, then a top-k search as in
    retrieval, a matrix-vector product in numpy and a Python sort of
    row indices keyed on the scores.
    """

    def __init__(self):
        rng = numpy.random.default_rng(0)
        self._matrix = rng.random((GAUGE_ROWS, 256))
        self._vector = rng.random(256)
        self.samples: list[float] = []
        self.spent = 0.0
        self.last = -math.inf

    def sample(self) -> float:
        start = process_time()
        heap = []
        for i in range(400):
            heapq.heappush(heap, ((i * 7919) % 1009, i))
        totals = {}
        while heap:
            key, i = heapq.heappop(heap)
            totals[key % 97] = totals.get(key % 97, 0) + i
        scores = numpy.clip(self._matrix @ self._vector, 0.0, 1.0)
        sorted(range(len(scores)), key=lambda i: (-scores[i], i))
        self.last = process_time()
        duration = self.last - start
        self.samples.append(duration)
        self.spent += duration
        return duration

    def due(self) -> bool:
        return process_time() - self.last >= GAUGE_INTERVAL_S

    def median_of(self, n: int) -> float:
        return statistics.median(self.sample() for _ in range(n))

    def rolling_scale(self) -> list[float]:
        """Per sample: nominal over the median of the samples around it."""
        samples, w = self.samples, GAUGE_WINDOW
        return [
            GAUGE_NOMINAL_S / statistics.median(samples[max(0, i - w) : i + w + 1])
            for i in range(len(samples))
        ]


class QueryProbe:
    """Class-level wrapper on ``PreferenceChain.predict_all``.

    While active it records each call's latency and counts calls that raise
    or return a posterior that is non-finite, negative or does not sum to 1.
    With a gauge, it samples the gauge before a call once the gauge is due,
    and records with each latency the index of the last gauge sample.
    """

    def __init__(self, gauge: Gauge | None = None):
        self.active = False
        self.gauge = gauge
        self.latencies: list[float] = []
        self.gauge_index: list[int] = []
        self.failed = 0

    def wrap(self, predict_all):
        probe = self

        def probed(chain, *args, **kwargs):
            if not probe.active:
                return predict_all(chain, *args, **kwargs)
            gauge = probe.gauge
            if gauge is not None:
                if gauge.due():
                    gauge.sample()
                probe.gauge_index.append(len(gauge.samples) - 1)
            start = process_time()
            try:
                results = predict_all(chain, *args, **kwargs)
            except Exception:
                probe.failed += 1
                raise
            finally:
                probe.latencies.append(process_time() - start)
            if not all(_valid(r.posterior.probabilities) for r in results.values()):
                probe.failed += 1
            return results

        return probed

    @contextmanager
    def installed(self):
        from preference_chain.pipeline import PreferenceChain

        original = PreferenceChain.predict_all
        PreferenceChain.predict_all = self.wrap(original)
        try:
            yield self
        finally:
            PreferenceChain.predict_all = original

    @property
    def attempted(self) -> int:
        return len(self.latencies)


def _valid(probabilities: dict) -> bool:
    values = list(probabilities.values())
    return (
        all(math.isfinite(p) and p >= 0 for p in values)
        and abs(math.fsum(values) - 1.0) <= POSTERIOR_TOLERANCE
    )


def _percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def _windowed_p99(latencies: list[float]) -> float:
    """Median over consecutive windows of MIN_QUERIES calls of each window's p99.

    Kept in the record only: a tail confined to fewer than half the windows
    does not show in it. A shorter last window joins the one before it.
    """
    starts = range(0, max(1, len(latencies) - MIN_QUERIES + 1), MIN_QUERIES)
    windows = [latencies[s : s + MIN_QUERIES] for s in starts]
    windows[-1] = latencies[starts[-1] :]
    return statistics.median(_percentile(window, 0.99) for window in windows)


def _git_sha(root: Path):
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def environment(seed: int) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": _git_sha(ROOT),
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
    }


def digests_of(artefacts: dict[str, bytes]) -> dict[str, str]:
    return {name: hashlib.sha256(data).hexdigest() for name, data in sorted(artefacts.items())}


def output_problems(workload, seed: int, passes) -> list[str]:
    """Identity of every pass's artefacts with each other and with the pins."""
    problems = [p for each in passes for p in each.problems]
    first = passes[0].artefacts
    for i, each in enumerate(passes[1:], start=2):
        if each.artefacts != first:
            problems.append(f"pass {i} wrote different bytes from pass 1")
    pinned = json.loads(DIGESTS.read_text()).get(workload.name, {}).get(str(seed))
    if pinned is not None and pinned != digests_of(first):
        problems.append(f"artefact digests {digests_of(first)} differ from pinned {pinned}")
    return problems


def measure(workload, root: Path, seconds: float, probe: QueryProbe):
    """Untraced run: repeated set-up, then passes until the time is used.

    Every time is scaled by the gauge sampled during or around it.
    """
    gauge = probe.gauge
    setups = []
    setups_scaled = []
    for _ in range(SETUP_REPEATS):
        state = None  # so that two set-ups never hold memory at once
        before = gauge.median_of(GAUGE_AROUND_SETUP)
        start = process_time()
        state = workload.setup(root)
        setups.append(process_time() - start)
        speed = statistics.median([before, gauge.median_of(GAUGE_AROUND_SETUP)])
        setups_scaled.append(setups[-1] * GAUGE_NOMINAL_S / speed)
    passes = []
    bodies = []
    bodies_scaled = []
    probe.active = True
    while not passes or sum(bodies) < seconds or probe.attempted < MIN_QUERIES:
        first, spent = len(gauge.samples), gauge.spent
        passes.append(workload.run(state))
        bodies.append(passes[-1].seconds - (gauge.spent - spent))
        if len(gauge.samples) == first:
            gauge.sample()  # a pass shorter than the gauge interval
        speed = statistics.median(gauge.samples[first:])
        bodies_scaled.append(bodies[-1] * GAUGE_NOMINAL_S / speed)
    probe.active = False
    scale = gauge.rolling_scale()
    latencies = [t * scale[i] for t, i in zip(probe.latencies, probe.gauge_index)]
    work = sum(p.work for p in passes)
    metrics = {
        "setup_s": statistics.median(setups_scaled),
        "throughput_per_s": work / math.fsum(bodies_scaled),
        "query_p50_ms": statistics.median(latencies) * 1e3,
        "query_p99_ms": _percentile(latencies, 0.99) * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    gauge_quartiles = statistics.quantiles(gauge.samples, n=4)
    extra = {
        "unscaled": {
            "setup_s": statistics.median(setups),
            "setup_s_each": setups,
            "body_s_each": bodies,
            "throughput_per_s": work / math.fsum(bodies),
            "query_p50_ms": statistics.median(probe.latencies) * 1e3,
            "query_p99_ms": _percentile(probe.latencies, 0.99) * 1e3,
            "query_p99_ms_windowed": _windowed_p99(probe.latencies) * 1e3,
        },
        "gauge": {
            "samples": len(gauge.samples),
            "spent_s": gauge.spent,
            "quartiles_ms": [q * 1e3 for q in gauge_quartiles],
        },
        "tracing_overhead_s": None,
    }
    return passes, metrics, extra


def measure_traced(workload, root: Path, probe: QueryProbe, spans_path: Path):
    """Traced set-up and pass, then an untraced one for the overhead."""
    from tracer import Tracer, missing_boundaries, per_layer_metrics, self_time_by_name

    tracer = Tracer()
    with tracer.installed():
        state = workload.setup(root)
        probe.active = True
        traced = workload.run(state)
        probe.active = False
    state = None  # so that two set-ups never hold memory at once
    state = workload.setup(root)
    probe.active = True
    untraced = workload.run(state)
    probe.active = False

    overhead = traced.seconds - untraced.seconds
    metrics = per_layer_metrics(tracer, overhead)
    tracer.write(spans_path)
    missing = missing_boundaries(tracer, workload.expected_boundaries)
    extra = {
        "tracing_overhead_s": overhead,
        "body_traced_s": traced.seconds,
        "body_untraced_s": untraced.seconds,
        "spans": len(tracer.spans),
        "self_time_s": self_time_by_name(tracer),
    }
    problems = [f"boundary {name} recorded no call" for name in missing]
    return [traced, untraced], metrics, extra, problems


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--workload", required=True, choices=("eval-large-ref", "sweep-small-ref", "city-day")
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "preference_chain" / "__init__.py").is_file():
        print(f"error: no library source at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from tracer import PER_LAYER
    from workloads import WORKLOADS

    probe = QueryProbe(gauge=None if args.trace else Gauge())
    workload = WORKLOADS[args.workload](seed=args.seed)
    root = OUT / workload.name / f"seed-{args.seed}"
    root.mkdir(parents=True, exist_ok=True)
    workload.prepare(root)

    with probe.installed():
        if args.trace:
            passes, metrics, extra, problems = measure_traced(
                workload, root, probe, root / "spans.jsonl"
            )
            units = PER_LAYER
        else:
            passes, metrics, extra = measure(workload, root, args.seconds, probe)
            problems = []
            units = END_TO_END

    problems += output_problems(workload, args.seed, passes)
    if probe.failed:
        problems.append(f"{probe.failed} of {probe.attempted} queries failed")
    result = {
        "correct": not problems,
        "attempted": probe.attempted,
        "failed": probe.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units},
    }
    record = {
        "workload": workload.name,
        "trace": args.trace,
        **environment(args.seed),
        "passes": [{"seconds": p.seconds, "work": p.work} for p in passes],
        "digests": digests_of(passes[0].artefacts),
        "problems": problems,
        **extra,
        "result": result,
    }
    (root / f"record-trace{args.trace}.json").write_text(json.dumps(record, indent=2) + "\n")
    for problem in problems:
        print(f"incorrect: {problem}", file=sys.stderr)
    print(json.dumps({"record": {k: v for k, v in record.items() if k != "result"}}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
