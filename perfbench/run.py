"""Benchmark of the coverslide CLI and library.

Run from the repository root:

    python3 perfbench/run.py --workload cli --seed 1 --seconds 55 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 55 --trace 0

Each workload runs in its own process with one client in a closed loop: the
next request starts when the previous one has returned.  Requests are drawn
from ``--seed`` (see ``inputs.py``).

``--trace 0`` warms up on the first request(s) of the stream, then measures
whole request cycles until ``--seconds`` of wall time have passed, and prints
the end-to-end metrics.  Throughput counts request time only, not the checks.  ``--trace 1`` runs a
fixed list of requests for the seed, each once untraced and once with the
layer tracer bound, and prints the per-layer metrics; its counts repeat exactly
for a given seed.  Every output is checked outside the timed region, and the
last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  A results file with the environment, every
request's latency and stdout sha256, and (traced) a span file go to
``.perfbench_out/`` in the repository root.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from itertools import islice
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
sys.path.insert(0, str(SRC))

from inputs import BATCH_COVER, WORKLOADS, request_stream  # noqa: E402

TAIL_BEYOND = 10
# Enough samples that the tail percentile is at or above the median.
MIN_SAMPLES = 2 * TAIL_BEYOND
SETUP_REPEATS = 15
# Untimed requests before the timed phase, from the start of the stream.
WARMUP_S = 1.0
# Request cycles in the traced run's fixed list, sized to a few seconds each.
TRACED_CYCLES = {"cli": 1, "move-batch": 25}

END_TO_END_UNITS = {
    "throughput_rps": "req/s",
    "latency_p50_s": "s",
    "latency_tail_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# Child process for one set-up measurement: interpreter start, the import a
# user of the workload pays for, and on move-batch the cover and basis build.
# It prints the monotonic clock, which parent and child share, when done.
_SETUP_CHILD = {
    "cli": "import time\nimport coverslide.cli\nprint(time.perf_counter())\n",
    "batch": (
        "import time\nimport coverslide\n"
        "G = coverslide.builtin_group_from_string({group!r})\n"
        "Y = coverslide.make_cover(G, coverslide.standard_images(G, {n}))\n"
        "coverslide.cycle_basis(Y)\nprint(time.perf_counter())\n"
    ),
}


def import_coverslide():
    """Import the package from this checkout's ``src``, never another copy."""
    try:
        import coverslide
    except ModuleNotFoundError as exc:
        raise SystemExit(f"cannot import coverslide from {SRC}: {exc}") from exc

    found = Path(coverslide.__file__).resolve().parent
    if found != SRC / "coverslide":
        raise SystemExit(f"coverslide imported from {found}, expected {SRC / 'coverslide'}")
    return coverslide


def measure_setup(workload: str) -> list[float]:
    if workload == "move-batch":
        group, n = BATCH_COVER
        code = _SETUP_CHILD["batch"].format(group=group, n=n)
    else:
        code = _SETUP_CHILD["cli"]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        done = subprocess.run(
            [sys.executable, "-c", code], env=env, cwd=ROOT,
            capture_output=True, text=True, timeout=60, check=True,
        )
        times.append(float(done.stdout.strip().splitlines()[-1]) - t0)
    return times


def host_probe() -> float:
    """Seconds for a fixed pure-Python loop: a reading of the host's speed,
    stored next to the metrics so runs on a slowed host can be recognised."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(300_000):
        acc += i * i % 7
    return time.perf_counter() - t0


def run_request(runner, req):
    from workloads import Outcome

    try:
        return runner.execute(req)
    except Exception:
        return Outcome(status=-1, output="", error=traceback.format_exc())


def check_request(runner, req, outcome) -> str | None:
    try:
        return runner.check(req, outcome)
    except Exception:
        return "check raised: " + traceback.format_exc()


def record(req, outcome, latency: float, failure: str | None) -> dict:
    return {
        "cover": req.label,
        "latency_s": latency,
        "stdout_sha256": outcome.sha256,
        "failure": failure,
    }


def tail(latencies: list[float]) -> tuple[float, float]:
    """The highest percentile with TAIL_BEYOND samples above it, and its value."""
    xs = sorted(latencies)
    idx = len(xs) - TAIL_BEYOND - 1
    return 100.0 * (idx + 1) / len(xs), xs[idx]


def untraced_run(workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    setup_times = measure_setup(workload)
    from workloads import make

    runner = make(workload)
    runner.setup()
    warm_start = time.perf_counter()
    for req in next(request_stream(workload, seed)):
        run_request(runner, req)
        if time.perf_counter() - warm_start >= WARMUP_S:
            break

    records = []
    busy = 0.0
    probe_before = host_probe()
    stream = request_stream(workload, seed)
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or len(records) < MIN_SAMPLES:
        for req in next(stream):
            t0 = time.perf_counter()
            outcome = run_request(runner, req)
            latency = time.perf_counter() - t0
            busy += latency
            records.append(record(req, outcome, latency, check_request(runner, req, outcome)))
    wall = time.perf_counter() - start
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    latencies = [r["latency_s"] for r in records]
    ok = sum(r["failure"] is None for r in records)
    pct, tail_value = tail(latencies)
    metrics = {
        "throughput_rps": ok / busy,
        "latency_p50_s": statistics.median(latencies),
        "latency_tail_s": tail_value,
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": peak_rss_kb / 1024,
    }
    details = {
        "latency_tail_percentile": pct,
        "latency_tail_samples_beyond": TAIL_BEYOND,
        "samples": len(records),
        "error_rate": (len(records) - ok) / len(records),
        "busy_s": busy,
        "wall_s": wall,
        "host_probe_s": [probe_before, host_probe()],
        "setup_runs_s": setup_times,
        "requests": records,
    }
    return metrics, details


def traced_run(workload: str, seed: int) -> tuple[dict, dict]:
    from tracer import REQUEST, SETUP, Tracer
    from workloads import make

    requests = [req for cyc in islice(request_stream(workload, seed), TRACED_CYCLES[workload])
                for req in cyc]
    # Each request runs once untraced and once traced, each on its own runner;
    # the ratio of the two sums is the tracing overhead.
    plain, traced_runner = make(workload), make(workload)
    plain.setup()
    tracer = Tracer()
    records = []
    plain_hashes = []
    untraced = 0.0
    with tracer.span(SETUP, 0):
        traced_runner.setup()
    for k, req in enumerate(requests, 1):
        # alternate which pass goes first, so neither always runs on a warm heap
        for traced_pass in ((False, True) if k % 2 else (True, False)):
            runner = traced_runner if traced_pass else plain
            span = tracer.span(REQUEST, k) if traced_pass else nullcontext()
            t0 = time.perf_counter()
            with span:
                outcome = run_request(runner, req)
            latency = time.perf_counter() - t0
            if traced_pass:  # before the check, which fills move-batch's output
                tracer.output_bytes += len(outcome.output.encode())
            records.append(record(req, outcome, latency, check_request(runner, req, outcome)))
            if not traced_pass:
                untraced += latency
                plain_hashes.append(outcome.sha256)

    durations = tracer.durations()
    traced = sum(d for d, nid in zip(durations, tracer.name) if tracer.names[nid] == REQUEST) / 1e9
    metrics = tracer.layer_metrics(overhead_ratio=traced / untraced)
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-{workload}-seed{seed}.tsv.gz"
    tracer.dump(spans_path)
    details = {
        "traced_requests": len(requests),
        # over the stdout hashes of the fixed request list, in order; it
        # changes when the program's output bytes change
        "outputs_sha256": hashlib.sha256("".join(plain_hashes).encode()).hexdigest(),
        "untraced_s": untraced,
        "traced_s": traced,
        "spans": len(tracer.name),
        "span_file": spans_path.name,
        "requests": records,
    }
    return metrics, details


def environment() -> dict:
    src_lines = sum(len(p.read_text().splitlines()) for p in sorted((SRC / "coverslide").glob("*.py")))
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "src_coverslide_lines": src_lines,
    }


def run_one(workload: str, seed: int, seconds: float, trace: int) -> int:
    import_coverslide()
    from tracer import PER_LAYER_UNITS

    if trace:
        metrics, details = traced_run(workload, seed)
        units = PER_LAYER_UNITS
    else:
        metrics, details = untraced_run(workload, seed, seconds)
        units = END_TO_END_UNITS
    failed = sum(r["failure"] is not None for r in details["requests"])
    attempted = len(details["requests"])

    reported = {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}
    OUT.mkdir(exist_ok=True)
    results = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "environment": environment(), "metrics": reported, **details,
    }
    (OUT / f"{workload}-seed{seed}-trace{trace}.json").write_text(json.dumps(results, indent=1))

    for r in details["requests"]:
        if r["failure"] is not None:
            print(f"FAILED {r['cover']}: {r['failure']}", file=sys.stderr)
    print(f"{workload} seed={seed} trace={trace}: {attempted} requests, {failed} failed")
    for name, value in metrics.items():
        print(f"  {name} = {value:.6g} {units[name]}")
    if trace:
        print(f"  (outputs sha256 {details['outputs_sha256']})")
    else:
        print(f"  (tail is p{details['latency_tail_percentile']:.1f} of {attempted} samples,"
              f" {TAIL_BEYOND} beyond it; error_rate = {details['error_rate']:.6g})")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": reported,
    }))
    return 0


def run_all(seed: int, seconds: float, trace: int) -> int:
    """Every workload, each in its own process, one after another."""
    status = 0
    summary = {}
    for workload in WORKLOADS:
        done = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(trace)],
            capture_output=True, text=True,
        )
        sys.stderr.write(done.stderr)
        lines = done.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if done.returncode != 0 or not lines:
            status = done.returncode or 1
            continue
        summary[workload] = json.loads(lines[-1])
    print(json.dumps(summary))
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    return run_one(args.workload, args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    sys.exit(main())
