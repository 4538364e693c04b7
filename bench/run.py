"""End-to-end benchmark of `textforage pipeline`.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  A first, untimed reference
round runs the pipeline with the other thread count and applies every
output check to its artifacts.  Timed rounds follow until `--seconds`
is spent.  The first three write the workload's inputs from the seed
and time a fresh interpreter's `import textforage` (together: one
set-up sample, as before the reference round); later rounds reuse the
inputs.  Each round runs the pipeline as one child process, timed
between two timed runs of the fixed reference task in `calibrate.py`,
and checks that its artifacts match the reference byte for byte, so
they pass every check too.

With `--trace 0` the last stdout line reports the end-to-end metrics,
medians over the rounds; `wall_s` is scaled by the host's speed as
`calibrate.py` gauges it (see README.md).  With `--trace 1` each round
runs the pipeline twice, plainly and under `bench/tracer.py`, and the
line reports the per-layer metrics plus the tracing overhead.  Progress
goes to stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path.cwd()
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent
WORK = ROOT / ".bench_work"
KS = (4, 6)  # every k a workload trains; each gets an lda.tokens_per_s.k<K>
MIN_ROUNDS = 3
PIPELINE_TIMEOUT_S = 150
# median time of `calibrate.py` on the machine in README.md; `wall_s` is
# the pipeline's median wall time in seconds of a host at that speed
CALIBRATION_REF_S = 0.80


def run_pipeline(w, out: Path, env: dict, threads: int | None = None,
                 spans: Path | None = None) -> dict:
    """One `textforage pipeline` child process, with its wall time and
    peak resident memory (from wait4, so only that process counts)."""
    args = ["pipeline", "--config", str(w.config_path), "--out", str(out)]
    if threads is not None:
        args += ["--threads", str(threads)]
    if spans is None:
        cmd = [sys.executable, "-m", "textforage.cli", *args]
    else:
        cmd = [sys.executable, str(BENCH / "tracer.py"), str(spans), *args]
    log = out.with_suffix(".log")
    with open(log, "w", encoding="utf-8") as fh:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=fh, stderr=subprocess.STDOUT, env=env, cwd=ROOT)
        killer = threading.Timer(PIPELINE_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        print(f"pipeline exited {proc.returncode}:\n{log.read_text()[-2000:]}", file=sys.stderr)
    return {"rc": proc.returncode, "wall_s": wall, "peak_rss_mb": usage.ru_maxrss / 1024.0}


def calibrate(env: dict) -> float:
    """Wall time of one run of the fixed reference task."""
    start = time.perf_counter()
    subprocess.run([sys.executable, str(BENCH / "calibrate.py")], env=env, check=True,
                   timeout=PIPELINE_TIMEOUT_S)
    return time.perf_counter() - start


class Tally:
    """Tally of operations: one per pipeline stage and one per check."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def stages(self, w, result: dict) -> None:
        n = len(w.stages())
        self.attempted += n
        if result["rc"] != 0:
            self.failed += n

    def checks(self, problems: dict[str, list[str]]) -> None:
        for name, found in problems.items():
            self.attempted += 1
            if found:
                self.failed += 1
                print(f"check {name} failed: {'; '.join(found[:3])}", file=sys.stderr)


def measure(name: str, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    import checks
    import tracer
    from workloads import GENERATORS

    inputs = work / "inputs"

    def setup(i: int):
        """Fresh inputs and a fresh interpreter's import; per-round HOME
        and cache directories so nothing cached by an earlier round is
        reused."""
        home = work / f"home{i}"
        env = dict(os.environ, PYTHONPATH=str(SRC), HOME=str(home),
                   XDG_CACHE_HOME=str(home / ".cache"), TMPDIR=str(home))
        start = time.perf_counter()
        shutil.rmtree(inputs, ignore_errors=True)
        home.mkdir(parents=True)
        w = GENERATORS[name](inputs, seed)
        subprocess.run([sys.executable, "-c", "import textforage"], env=env, check=True)
        return w, env, time.perf_counter() - start

    tally = Tally()
    setups, cals, walls, rss, sizes, layer_runs, overheads = [], [], [], [], [], [], []
    deadline = time.perf_counter() + seconds

    w, env, took = setup(0)
    setups.append(took)
    threads = w.config.get("threads", 1)
    ref_out = work / "reference"
    ref = run_pipeline(w, ref_out, env, threads=2 if threads == 1 else 1)
    tally.stages(w, ref)
    tally.checks(checks.run_all(ref_out, w, None))
    reference = checks.digests(ref_out)

    durations = []
    i = 0
    while i < MIN_ROUNDS or time.perf_counter() + statistics.median(durations) < deadline:
        i += 1
        started = time.perf_counter()
        if i <= MIN_ROUNDS:  # later rounds reuse the same inputs
            w, env, took = setup(i)
            setups.append(took)
        if not trace:  # bracket the timed pipeline with the reference task
            cals.append(calibrate(env))
        out = work / f"round{i}"
        plain = run_pipeline(w, out, env)
        if not trace:
            cals.append(calibrate(env))
        tally.stages(w, plain)
        tally.checks({"identical": checks.check_identical(out, reference)})
        walls.append(plain["wall_s"])
        rss.append(plain["peak_rss_mb"])
        sizes.append(sum(p.stat().st_size for p in out.iterdir()))
        if trace:
            traced_out, spans = work / f"traced{i}", work / f"spans{i}.json"
            traced = run_pipeline(w, traced_out, env, spans=spans)
            tally.stages(w, traced)
            tally.checks({"identical": checks.check_identical(traced_out, reference)})
            layers = tracer.summarize(json.loads(spans.read_text()), list(KS))
            layers["corpus.bytes"] = (traced_out / "corpus.json").stat().st_size
            layers["lda.model_bytes"] = sum(p.stat().st_size
                                            for p in traced_out.glob("model_k*.json"))
            layer_runs.append(layers)
            overheads.append(traced["wall_s"] - plain["wall_s"])
        durations.append(time.perf_counter() - started)
        print(f"round {i}: wall {plain['wall_s']:.3f} s, set-up {setups[-1]:.3f} s, "
              f"calibration {cals[-2:]}", file=sys.stderr)

    if trace:
        metrics = {key: (statistics.median(r[key] for r in layer_runs), unit(key))
                   for key in layer_runs[0]}
        metrics["trace.overhead_s"] = (statistics.median(overheads), "s")
    else:
        scale = CALIBRATION_REF_S / statistics.median(cals)
        print(f"median wall {statistics.median(walls):.3f} s over {len(walls)} rounds, "
              f"host speed scale {scale:.3f}", file=sys.stderr)
        metrics = {
            "wall_s": (statistics.median(walls) * scale, "s"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (statistics.median(rss), "MB"),
            "artifact_bytes": (statistics.median(sizes), "bytes"),
        }
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def unit(metric: str) -> str:
    if metric.endswith("_per_s") or ".tokens_per_s." in metric:
        return "1/s"
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("bytes"):
        return "bytes"
    return "count"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "textforage" / "cli.py").is_file():
        print(f"no textforage sources under {SRC}; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(BENCH)]
    from workloads import GENERATORS

    if args.workload not in GENERATORS:
        print(f"unknown workload {args.workload!r}; one of {sorted(GENERATORS)}",
              file=sys.stderr)
        return 2
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
