"""Seeded end-to-end benchmark of the uppertail CLI, with a traced per-layer run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Set-up (imports, seeded input files, oracle values) runs five times in
fresh interpreters and ``setup_s`` is the median.  Then whole workload passes
repeat until S seconds have gone.  A pass is a fixed list of in-process
``uppertail.cli.main(argv)`` calls; each call is timed from outside, its
stdout must be exactly one JSON object, and its result is checked against
the oracle values.  Untraced calls and set-up are timed against the speed
probe (``speed.py``) and reported in its normalised seconds.  With
``--trace 0`` the last stdout line reports the end-to-end metrics (medians
over passes); with ``--trace 1`` untraced and traced passes alternate and it
reports the per-layer metrics.  The line before it records the machine,
versions, seed, raw and normalised times of every pass.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
# One thread per process, set before numpy loads its BLAS; set-up inherits it.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("UPPERTAIL_THREADS", None)

import numpy as np  # noqa: E402

from prepare import import_package  # noqa: E402
from speed import SpeedProbe  # noqa: E402
from tracer import LAYERS, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_REPEATS = 5
END_TO_END = {"norm_wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_EDGE = {"counting.count_labelled_using_edge", "counting.star_count_using_edge"}
DETECTORS = {"structures.detect_hub", "structures.detect_clique",
             "structures.detect_high_degree", "structures.detect_tilde_hub"}
# Per-layer counts that must repeat exactly from one traced pass to the next.
EXACT_COUNTS = ("counting.calls", "counting.per_edge_calls", "graphs.host_builds",
                "structures.deletions", "structures.recounts_per_deletion")
PER_LAYER = {
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "montecarlo.graphs_per_s": "graphs/s",
    "montecarlo.exact_s": "s",
    "montecarlo.ess_ratio": "ratio",
    "montecarlo.accept_ratio": "ratio",
    "counting.path4_s": "s",
    "counting.cycle4_s": "s",
    "counting.clique3_s": "s",
    "counting.star3_s": "s",
    "counting.sets_path4_s": "s",
    "counting.calls": "count",
    "counting.per_edge_calls": "count",
    "counting.per_edge_s": "s",
    "structures.deletions": "count",
    "structures.recounts_per_deletion": "calls/deletion",
    "structures.detect_s": "s",
    "graphs.host_builds": "count",
    "graphs.host_build_s": "s",
    "graphs.load_s": "s",
    "trace.overhead_s": "s",
    "samples_per_s": "graphs/s",
    "fail_ratio": "fraction",
}


class Session:
    """Runs CLI calls for one pass, timing each from outside, and tallies
    checks.  A call that exits non-zero, raises, or does not print exactly
    one JSON object counts as a failed check.  With a speed probe (untraced
    passes), each call is bracketed by probes and probed while it runs."""

    def __init__(self, package, tracer: Tracer | None = None, probe: SpeedProbe | None = None):
        self.package = package
        self.tracer = tracer
        self.probe = probe
        self.wall = 0.0
        self.cpu = 0.0
        self.norm = 0.0
        # label -> (wall, cpu, normalised wall), net of probe time
        self.call_times: dict[str, tuple[float, float, float]] = {}
        self.attempted = 0
        self.failed: list[str] = []

    def call(self, label: str, argv: list[str]):
        if self.tracer is not None:
            self.tracer.begin_job(label)
        out, err = io.StringIO(), io.StringIO()
        code = None
        probe = self.probe
        if probe is not None:
            first = probe.mark()
            probe.sample()
            inside = probe.mark()
        r0 = resource.getrusage(resource.RUSAGE_SELF)
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = self.package.cli.main(argv)
            except SystemExit as exc:  # argparse rejects bad argv this way
                code = exc.code
            except Exception:  # a crash is a failed call, not a failed benchmark
                traceback.print_exc()
        t1 = time.perf_counter()
        r1 = resource.getrusage(resource.RUSAGE_SELF)
        wall = t1 - t0
        cpu = (r1.ru_utime - r0.ru_utime) + (r1.ru_stime - r0.ru_stime)
        norm = wall
        if probe is not None:
            span = (inside, probe.mark())
            probe.sample()
            net, norm = probe.normalise(wall, first, span)
            cpu -= wall - net  # the probe is cpu-bound and in this process
            wall = net
        self.call_times[label] = (wall, cpu, norm)
        self.wall += wall
        self.cpu += cpu
        self.norm += norm
        lines = out.getvalue().splitlines()
        payload = None
        if code == 0 and len(lines) == 1:
            try:
                payload = json.loads(lines[0])
            except ValueError:
                payload = None
        if not isinstance(payload, dict):
            payload = None
            sys.stderr.write(f"perfbench: call {label} failed (exit {code}): {err.getvalue()[-2000:]}\n")
        self.check(f"{label}.envelope", payload is not None)
        return payload

    def check(self, name: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failed.append(name)


def median_pass(sessions: list[Session], which: int) -> float:
    """Time of a pass assembled from each call's median over the passes, so
    that a burst of machine noise during one call of one pass is dropped."""
    labels = sessions[0].call_times
    return sum(statistics.median(s.call_times[label][which] for s in sessions) for label in labels)


def layer_metrics(summary, facts: dict) -> dict:
    m = {f"{layer}.self_s": summary.self_time(layer) for layer in LAYERS}
    mc_time = summary.layer_time("montecarlo")
    m["montecarlo.graphs_per_s"] = facts.get("graphs", 0) / mc_time if mc_time > 0 else 0.0
    m["montecarlo.exact_s"] = summary.function_time({"montecarlo.exact_tail"})
    m["montecarlo.ess_ratio"] = facts["effective"] / facts["weighted"] if "weighted" in facts else 0.0
    m["montecarlo.accept_ratio"] = facts["accepted"] / facts["drawn"] if "drawn" in facts else 0.0
    for spec, key in (("path:4", "path4"), ("cycle:4", "cycle4"), ("clique:3", "clique3"),
                      ("star:3", "star3"), ("sets.path:4", "sets_path4")):
        m[f"counting.{key}_s"] = summary.layer_time("counting", job_prefix=f"count.{spec}")
    m["counting.calls"] = summary.calls(layer="counting")
    m["counting.per_edge_calls"] = summary.calls(names=PER_EDGE, job_prefix="core.")
    m["counting.per_edge_s"] = summary.function_time(PER_EDGE, job_prefix="core.")
    deletions = facts.get("deletions", 0)
    m["structures.deletions"] = deletions
    m["structures.recounts_per_deletion"] = (
        m["counting.per_edge_calls"] / deletions if deletions else 0.0)
    m["structures.detect_s"] = summary.function_time(DETECTORS)
    m["graphs.host_builds"] = summary.calls(names={"graphs.HostGraph.__init__"})
    m["graphs.host_build_s"] = summary.function_time({"graphs.HostGraph.__init__"})
    m["graphs.load_s"] = summary.function_time({"graphs.load_edge_list"})
    return m


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as handle:
            ref = handle.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:]), encoding="utf-8") as handle:
                return handle.read().strip()
        return ref
    except OSError:
        return "unknown"


class Benchmark:
    def __init__(self, workload: str, seed: int, size: str = "full"):
        self.name = workload
        self.workload = WORKLOADS[workload]
        self.seed = seed
        self.size = size
        self.package = import_package()
        self.workdir = os.path.join(ROOT, ".perfbench", f"{workload}-{seed}-{os.getpid()}")
        self.plan = None
        self.setup_times: list[float] = []  # normalised
        self.setup_raw: list[float] = []

    def prepare(self, repeats: int = SETUP_REPEATS) -> None:
        os.makedirs(self.workdir, exist_ok=True)
        cmd = [sys.executable, os.path.join(HERE, "prepare.py"), "--workload", self.name,
               "--seed", str(self.seed), "--size", self.size, "--out", self.workdir]
        speed = os.path.join(self.workdir, "speed.json")
        for _ in range(repeats):
            # The set-up process probes its own speed and leaves the samples
            # in speed.json; the probes here bracket it.
            probe = SpeedProbe()
            probe.sample()
            t0 = time.perf_counter()
            proc = subprocess.run(cmd + ["--speed", speed], cwd=ROOT, capture_output=True,
                                  text=True, timeout=170)
            elapsed = time.perf_counter() - t0
            if proc.returncode != 0:
                raise RuntimeError(f"set-up failed: {proc.stderr.strip()[-2000:]}")
            with open(speed, encoding="utf-8") as handle:
                inside = json.load(handle)
            probe.durations.extend(inside)
            probe.sample()
            net, norm = probe.normalise(elapsed, 0, (1, 1 + len(inside)))
            self.setup_raw.append(net)
            self.setup_times.append(norm)
        with open(os.path.join(self.workdir, "plan.json"), encoding="utf-8") as handle:
            self.plan = json.load(handle)

    def run_pass(self, tracer: Tracer | None = None):
        if tracer is None:
            session = Session(self.package, probe=SpeedProbe())
            with session.probe.running():
                facts = self.workload.run_pass(self.plan, self.workdir, session)
        else:
            session = Session(self.package, tracer)
            with tracer.installed(self.package):
                facts = self.workload.run_pass(self.plan, self.workdir, session)
        return session, facts

    def measure(self, seconds: float, trace: bool) -> dict:
        """Repeat rounds while the next one is expected to end within
        ``seconds``.  A round is one pass, or in traced mode an untraced and
        a traced pass; at least one round runs (two when traced, so that
        counts can be compared)."""
        untraced, traced = [], []
        t_start = time.perf_counter()
        while True:
            untraced.append(self.run_pass())
            if trace:
                tracer = Tracer()
                session, facts = self.run_pass(tracer)
                traced.append((session, facts, tracer))
            rounds = len(untraced)
            elapsed = time.perf_counter() - t_start
            if rounds >= (2 if trace else 1) and elapsed * (rounds + 1) / rounds > seconds:
                break
        sessions = [s for s, _ in untraced] + [s for s, _, _ in traced]
        attempted = sum(s.attempted for s in sessions)
        failed = [name for s in sessions for name in s.failed]
        plain = [s for s, _ in untraced]
        record = {"passes": len(untraced), "norm_wall": [s.norm for s in plain],
                  "wall": [s.wall for s in plain], "cpu": [s.cpu for s in plain],
                  "median_wall": median_pass(plain, 0), "median_cpu": median_pass(plain, 1),
                  "setup": self.setup_times, "setup_raw": self.setup_raw,
                  "failed_checks": sorted(set(failed))}
        if not trace:
            metrics = {
                "norm_wall_s": median_pass(plain, 2),
                "setup_s": statistics.median(self.setup_times),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            }
            units = END_TO_END
        else:
            per_pass = [layer_metrics(t.summary(), f) for _, f, t in traced]
            metrics = {}
            for key in per_pass[0]:
                values = [m[key] for m in per_pass]
                metrics[key] = values[0] if key in EXACT_COUNTS else statistics.median(values)
            for key in EXACT_COUNTS:
                repeat_ok = all(m[key] == per_pass[0][key] for m in per_pass)
                attempted += 1
                if not repeat_ok:
                    failed.append(f"repeat.{key}")
            traced_walls = [s.wall for s, _, _ in traced]
            untraced_wall = median_pass([s for s, _ in untraced], 0)
            metrics["trace.overhead_s"] = median_pass([s for s, _, _ in traced], 0) - untraced_wall
            metrics["samples_per_s"] = untraced[0][1].get("graphs", 0) / untraced_wall
            metrics["fail_ratio"] = len(failed) / attempted
            record["traced_wall"] = traced_walls
            self.save_spans(traced[-1][2])
            units = PER_LAYER
        return {
            "record": record,
            "result": {
                "correct": not failed,
                "attempted": attempted,
                "failed": len(failed),
                "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
            },
        }

    def save_spans(self, tracer: Tracer) -> None:
        out = os.path.join(ROOT, ".perfbench", "spans")
        os.makedirs(out, exist_ok=True)
        tracer.save(os.path.join(out, f"{self.name}-seed{self.seed}.npz"))

    def meta(self) -> dict:
        return {
            "workload": self.name, "seed": self.seed, "size": self.size,
            "nproc": os.cpu_count(), "cpu_model": _cpu_model(),
            "python": platform.python_version(), "numpy": np.__version__,
            "uppertail": self.package.__version__, "git_commit": _git_commit(),
        }

    def cleanup(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], required=True)
    parser.add_argument("--size", choices=["full", "tiny"], default="full",
                        help="input sizes; tiny is for the smoke test")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    # On SIGTERM, unwind so that set-up processes are killed and awaited and
    # the work directory is removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    bench = Benchmark(args.workload, args.seed, args.size)
    try:
        bench.prepare()
        outcome = bench.measure(args.seconds, bool(args.trace))
    finally:
        bench.cleanup()
    for name in outcome["record"]["failed_checks"]:
        sys.stderr.write(f"perfbench: check failed: {name}\n")
    print(json.dumps({"meta": bench.meta(), "record": outcome["record"]}))
    print(json.dumps(outcome["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
