#!/usr/bin/env python3
"""The armstice benchmark: one command per workload, outputs checked, metrics
printed as one JSON line (the last line of standard output).

    python3 perfbench/run.py --workload repro-cold --seed 1 --seconds 30 --trace 0

Run from the repository root. The first run configures and builds the
libraries, the armstice_serve daemon and perfbench_driver into
$CARGO_TARGET_DIR (default .bench_build); later runs rebuild incrementally.

--trace 0 measures the workload and prints its end-to-end metrics.
--trace 1 runs the layer profile (repro, serve and kernel parts, traced) and
prints every per-layer metric; spans are written to
.bench_runs/trace-<workload>-seed<seed>.json. See perfbench/NOTES.md.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("repro-cold", "serve-hit", "kernels-ref")
SETUPS = 9            # serve-hit set-ups per run; setup_s is their median
REPRO_SETUPS = 101    # repro-cold set-ups (~0.15 ms each); setup_s is the fastest
DAEMON_WORKERS = 2
TRACE_SERVE_S = 8     # length of the serve session in the layer profile
RUN_BUDGET_S = 170    # every child is killed once this much has passed after the build


class BenchError(Exception):
    pass


def log(msg):
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


def child_env():
    env = dict(os.environ)
    # The benchmark fixes pool sizes and cache dirs itself.
    for var in ("ARMSTICE_JOBS", "ARMSTICE_CACHE"):
        env.pop(var, None)
    return env


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise BenchError("no armstice sources next to perfbench/ (run from a repository checkout)")
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, build_dir)
    os.makedirs(build_dir, exist_ok=True)
    logfile = os.path.join(build_dir, "perfbench-build.log")
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", build_dir, "-j", jobs,
                  "--target", "perfbench_driver", "armstice_serve"])
    with open(logfile, "w") as out:
        for cmd in steps:
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT, cwd=ROOT).returncode:
                with open(logfile) as f:
                    sys.stderr.write("".join(f.readlines()[-40:]))
                raise BenchError("build failed: " + " ".join(cmd))
    return os.path.join(build_dir, "perfbench_driver"), os.path.join(build_dir, "armstice_serve")


class Child:
    """A child process whose stdout is read line by line. A timer kills its
    process group at `deadline` (perf_counter seconds)."""

    deadline = float("inf")

    def __init__(self, cmd):
        self.t0 = time.perf_counter()
        self.timed_out = False
        self.proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                                     text=True, start_new_session=True)
        self.timer = threading.Timer(max(1.0, Child.deadline - self.t0), self._expire)
        self.timer.start()

    def _expire(self):
        self.timed_out = True
        self.kill()

    def name(self):
        return os.path.basename(self.proc.args[0])

    def wait_line(self, prefix):
        """(seconds from spawn, the line) for the first stdout line starting
        with `prefix`."""
        for line in iter(self.proc.stdout.readline, ""):
            if line.startswith(prefix):
                return time.perf_counter() - self.t0, line
        raise BenchError(f"{self.name()} exited before printing '{prefix}'")

    def finish(self):
        """Wait for exit; return the last stdout line parsed as JSON."""
        lines = [l for l in self.proc.stdout.read().splitlines() if l.strip()]
        self.proc.wait()
        self.timer.cancel()
        if self.timed_out:
            raise BenchError(f"{self.name()} timed out")
        if self.proc.returncode != 0 or not lines:
            raise BenchError(f"{self.name()} exited with {self.proc.returncode}")
        return json.loads(lines[-1])

    def stop(self):
        """SIGINT (the daemon's clean shutdown), then wait for exit."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
        self.proc.stdout.read()
        self.proc.wait()
        self.timer.cancel()

    def kill(self):
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.proc.wait()
        self.timer.cancel()


def vm_hwm_mib(pid):
    with open(f"/proc/{pid}/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise BenchError("no VmHWM for the daemon")


def run_driver(driver, args, setups):
    """Spawn the driver `setups` times (all but the last in --probe mode);
    returns (the fastest in-process set-up, in seconds, as the driver's
    "ready <seconds>" line gives it; report of the last run)."""
    times = []
    for i in range(setups):
        probe = i < setups - 1
        child = Child([driver] + args + (["--probe"] if probe else []))
        try:
            _, line = child.wait_line("ready ")
            times.append(float(line.split()[1]))
            report = child.finish()
        finally:
            if child.proc.poll() is None:
                child.kill()
    return min(times), report


def run_serve(driver, daemon, work, mode, seed, seconds, trace_file, setups):
    """Start a fresh daemon per set-up; the last one serves the timed run."""
    times = []
    for i in range(setups):
        probe = i < setups - 1
        cache = os.path.join(work, f"daemon-cache-{i}")
        sock = os.path.relpath(os.path.join(work, f"serve-{i}.sock"), ROOT)
        if os.path.exists(cache):
            raise BenchError("daemon cache dir is not fresh: " + cache)
        d = Child([daemon, "--unix", sock, "--workers", str(DAEMON_WORKERS),
                   "--cache-dir", cache])
        g = None
        try:
            d.wait_line("[serve] listening")
            args = ["serve", "--socket", sock, "--seed", str(seed), "--seconds", str(seconds),
                    "--mode", mode, "--work", work,
                    "--daemon-cache", cache]
            if trace_file:
                args += ["--trace", trace_file]
            g = Child([driver] + args + (["--probe"] if probe else []))
            g.t0 = d.t0  # set-up runs from daemon spawn to generator ready
            t, _ = g.wait_line("ready")
            times.append(t)
            report = g.finish()
            if not probe:
                report["values"]["peak_rss_mib"] = vm_hwm_mib(d.proc.pid)
        finally:
            if g is not None and g.proc.poll() is None:
                g.kill()
            d.stop()
    return statistics.median(times), report


def measure(workload, seed, seconds, driver, daemon, work, prewarm):
    """Untraced run: end-to-end numbers."""
    if workload == "repro-cold":
        args = ["repro", "--seconds", str(seconds), "--goldens", ROOT]
        if prewarm:  # the guard self-test: one launch, its set-up warms the memo
            args.append("--prewarm-memo")
        setup_s, rep = run_driver(driver, args, 1 if prewarm else REPRO_SETUPS)
    elif workload == "kernels-ref":
        # Set-up builds a >400 MiB matrix (~5 s); it runs once per run.
        setup_s, rep = run_driver(driver, ["kernels", "--seed", str(seed), "--seconds",
                                           str(seconds)], 1)
    else:
        setup_s, rep = run_serve(driver, daemon, work, "hit", seed, seconds, None, SETUPS)
    rep["values"]["setup_s"] = setup_s
    return rep


def profile(workload, seed, driver, daemon, work):
    """Traced run: every layer, whatever the workload (see NOTES.md)."""
    parts = {}
    _, parts["repro"] = run_driver(
        driver, ["repro", "--goldens", ROOT,
                 "--trace", os.path.join(work, "spans-repro.json")], 1)
    # Cold mode on every workload: it sees cold, coalesced and hit requests.
    _, parts["serve"] = run_serve(driver, daemon, work, "cold", seed, TRACE_SERVE_S,
                                  os.path.join(work, "spans-serve.json"), 1)
    _, parts["kernels"] = run_driver(
        driver, ["kernels", "--seed", str(seed),
                 "--trace", os.path.join(work, "spans-kernels.json")], 1)
    spans = {}
    for name in parts:
        with open(os.path.join(work, f"spans-{name}.json")) as f:
            spans[name] = json.load(f)
    merged = {"ok": all(p["ok"] for p in parts.values()),
              "errors": [e for p in parts.values() for e in p["errors"]],
              "attempted": sum(p["attempted"] for p in parts.values()),
              "failed": sum(p["failed"] for p in parts.values()),
              "values": {}}
    for p in parts.values():
        merged["values"].update(p["values"])
    out = os.path.join(ROOT, ".bench_runs", f"trace-{workload}-seed{seed}.json")
    with open(out, "w") as f:
        json.dump({"workload": workload, "seed": seed, "spans": spans}, f)
    log(f"spans written to {os.path.relpath(out, ROOT)}")
    return merged


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--prewarm", action="store_true",
                    help="guard self-test: warm the memo before timing (repro-cold); "
                         "the run must then fail its cold-run check")
    a = ap.parse_args()
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        metrics = spec["per_layer" if a.trace else "end_to_end"]
        driver, daemon = build()
        Child.deadline = time.perf_counter() + RUN_BUDGET_S
        work = os.path.join(ROOT, ".bench_runs", f"{a.workload}-seed{a.seed}-{os.getpid()}")
        shutil.rmtree(work, ignore_errors=True)
        os.makedirs(work)
        try:
            if a.trace:
                rep = profile(a.workload, a.seed, driver, daemon, work)
            else:
                rep = measure(a.workload, a.seed, a.seconds, driver, daemon, work, a.prewarm)
        finally:
            shutil.rmtree(work, ignore_errors=True)
    except (BenchError, OSError, ValueError, KeyError) as e:
        log(f"error: {e}")
        return 2
    if not rep["ok"]:
        for e in rep["errors"]:
            log(f"check failed: {e}")
        print(json.dumps({"correct": False, "attempted": max(1, rep["attempted"]),
                          "failed": max(1, rep["failed"]), "metrics": {}}))
        return 1
    missing = [m["name"] for m in metrics if m["name"] not in rep["values"]]
    if missing:
        log("metrics not measured: " + ", ".join(missing))
        return 2
    print(json.dumps({
        "correct": True,
        "attempted": rep["attempted"],
        "failed": rep["failed"],
        "metrics": {m["name"]: {"value": rep["values"][m["name"]], "unit": m["unit"]}
                    for m in metrics},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
