#!/usr/bin/env python3
"""The repository's benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

Run from the root of a checkout. The first run builds the simulator
libraries, cameo-shard and the runner into .bench_build/perfbench (an
optimized build of the benchmark's own CMake project; the repository's
build files are not touched). Each run then starts the workload in fresh
processes, checks every simulated result row (check.py), and prints one
line per metric followed, as the last line of standard output, by

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones
(layers.py). A full record of the run, host fingerprint included, goes
to .bench_build/results/. README.md documents the workloads and
metrics.

Exit status is non-zero only when no metrics can be produced (the
source tree is incomplete, the build fails, or no job ran); failed jobs
are counted in "failed".
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True

import check  # noqa: E402
import layers  # noqa: E402

BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
BUILD_TYPE = "RelWithDebInfo"
WORKLOADS = ("queued-detailed", "functional-warmup", "shard-fleet")

# Set-up is measured this many times per run; the median is reported.
SETUP_REPS = 3

# The fleet command of README.md's cameo-shard quick start, on the
# benchmark's job matrix.
FLEET_SHARDS = 2
FLEET_ACCESSES = 25000
FLEET_WARM_PREFIX = 2500
FLEET_STREAMS = "mcf,milc"


class BenchError(Exception):
    """The benchmark cannot produce metrics."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


# --- Build ----------------------------------------------------------


def require_sources():
    for needed in ("src/CMakeLists.txt", "tools/CMakeLists.txt",
                   "perfbench/CMakeLists.txt", "perfbench/runner.cc"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            raise BenchError(f"source tree incomplete: {needed} is missing")


def build():
    """Configure (once) and build; returns {"runner", "shard"} paths."""
    cache = os.path.join(BUILD_DIR, "CMakeCache.txt")
    if os.path.exists(cache):
        with open(cache, encoding="utf-8", errors="replace") as f:
            home = [line.split("=", 1)[1].strip() for line in f
                    if line.startswith("CMAKE_HOME_DIRECTORY:")]
        if home != [HERE]:
            shutil.rmtree(BUILD_DIR)
    build_log = os.path.join(BUILD_ROOT, "perfbench-build.log")
    with open(build_log, "a", encoding="utf-8") as out:
        steps = []
        if not os.path.exists(cache):
            generator = ["-G", "Ninja"] if shutil.which("ninja") else []
            steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                          f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"] + generator)
        jobs = str(max(1, min(4, os.cpu_count() or 1)))
        steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs])
        for cmd in steps:
            out.flush()
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                with open(build_log, encoding="utf-8") as f:
                    tail = f.read()[-4000:]
                raise BenchError(f"build failed ({' '.join(cmd)}):\n{tail}")
    paths = {"runner": os.path.join(BUILD_DIR, "perfbench-runner"),
             "shard": os.path.join(BUILD_DIR, "cameo_tools", "cameo-shard")}
    for path in paths.values():
        if not os.access(path, os.X_OK):
            raise BenchError(f"build produced no {path}")
    return paths


def fingerprint(clock_read_ns):
    """Host and build identity recorded with every result."""
    compiler = "unknown"
    cache = os.path.join(BUILD_DIR, "CMakeCache.txt")
    with open(cache, encoding="utf-8", errors="replace") as f:
        for line in f:
            if line.startswith("CMAKE_CXX_COMPILER:"):
                path = line.split("=", 1)[1].strip()
                try:
                    compiler = subprocess.run(
                        [path, "--version"], capture_output=True,
                        text=True).stdout.splitlines()[0]
                except (OSError, IndexError):
                    compiler = path
    rev = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                         capture_output=True, text=True)
    digest = hashlib.sha256()
    for top in ("src", "tools", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith(".pyc"):
                    continue
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "compiler": compiler,
        "build_type": BUILD_TYPE,
        "git_rev": rev.stdout.strip() if rev.returncode == 0
        else "none (not a git checkout)",
        "source_sha256": digest.hexdigest(),
        "clock_read_ns": clock_read_ns,
        "python": platform.python_version(),
        "kernel": platform.release(),
    }


# --- Processes ------------------------------------------------------


def spawn(cmd, tmp, name, timeout):
    """Run @cmd in its own process group to completion; returns (exit
    code, stdout, stderr, seconds, peak RSS in KB of it and its
    descendants). The whole group is killed after @timeout seconds."""
    out_path = os.path.join(tmp, f"{name}.out")
    err_path = os.path.join(tmp, f"{name}.err")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, cwd=ROOT,
                                start_new_session=True)
        watchdog = threading.Timer(
            timeout, lambda: os.killpg(proc.pid, signal.SIGKILL))
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        seconds = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path, encoding="utf-8", errors="replace") as f:
        stdout = f.read()
    with open(err_path, encoding="utf-8", errors="replace") as f:
        stderr = f.read()
    return proc.returncode, stdout, stderr, seconds, usage.ru_maxrss


def runner(paths, tmp, name, workload, seed, mode, timeout=170, **extra):
    """Start the in-process runner; returns (report dict, peak RSS KB)."""
    report = os.path.join(tmp, f"{name}.json")
    cmd = [paths["runner"], f"--workload={workload}", f"--seed={seed}",
           f"--mode={mode}", f"--out={report}"]
    cmd += [f"--{k.replace('_', '-')}={v}" for k, v in extra.items()]
    code, _, stderr, _, rss = spawn(cmd, tmp, name, timeout)
    if code != 0 or not os.path.exists(report):
        raise BenchError(f"runner {mode} exited {code}: {stderr[-2000:]}")
    with open(report, encoding="utf-8") as f:
        return json.load(f), rss


def fleet_command(paths, seed, orgs, traces, warm, out, orgs_override=None,
                  shards=FLEET_SHARDS, extra=()):
    cmd = [paths["shard"], f"--shards={shards}", "--jobs=1",
           "--timing=blocking", f"--workloads={FLEET_STREAMS}",
           f"--orgs={orgs_override or ','.join(orgs)}", f"--seed={seed}",
           f"--accesses={FLEET_ACCESSES}",
           f"--trace-cache-dir={traces}", f"--out={out}"]
    if orgs_override is None:
        cmd += [f"--warm-prefix={FLEET_WARM_PREFIX}",
                f"--warm-cache-dir={warm}"]
    return cmd + list(extra)


def dir_state(path):
    if not os.path.isdir(path):
        return {}
    return {name: (st.st_ino, st.st_mtime_ns, st.st_size)
            for name in sorted(os.listdir(path))
            for st in [os.stat(os.path.join(path, name))]}


def run_fleet(paths, tmp, n, seed, orgs, progress=False):
    """One fleet: record its trace cache (set-up), then launch it."""
    base = os.path.join(tmp, f"fleet{n}")
    traces = os.path.join(base, "traces")
    warm = os.path.join(base, "warm")
    os.makedirs(traces)
    os.makedirs(warm)
    # Set-up: an in-process cameo-shard run of one cheap organization
    # records every stream of the fleet into the shared trace cache.
    setup_cmd = fleet_command(paths, seed, orgs, traces, warm,
                              os.path.join(base, "setup.csv"),
                              orgs_override=orgs[0], shards=0)
    code, _, stderr, setup_s, setup_rss = spawn(
        setup_cmd, tmp, f"fleet{n}-setup", 170)
    notes = [] if code == 0 else [f"fleet set-up exited {code}: "
                                  f"{stderr[-500:]}"]
    before = dir_state(traces)
    csv_path = os.path.join(base, "fleet.csv")
    cmd = fleet_command(paths, seed, orgs, traces, warm, csv_path,
                        extra=["--progress"] if progress else [])
    code, _, stderr, wall_s, rss = spawn(cmd, tmp, f"fleet{n}", 170)
    after = dir_state(traces)
    if code != 0:
        notes.append(f"fleet exited {code}: {stderr[-1000:]}")
    elif not before:
        notes.append("set-up left no trace cache; the fleet recorded its own")
    elif any(after.get(name) != state for name, state in before.items()):
        notes.append("fleet workers re-recorded the shared trace cache")
    rows = []
    if code == 0 and os.path.exists(csv_path):
        with open(csv_path, encoding="utf-8") as f:
            rows = [line.rstrip("\n") for line in f if line.strip()][1:]
    job_seconds = {}
    for line in stderr.splitlines():
        # ProgressReporter: "  [k/N] <label> (<seconds>s)"
        line = line.strip()
        if line.startswith("[") and line.endswith("s)") and " (" in line:
            label = line.split("] ", 1)[1].rsplit(" (", 1)[0]
            try:
                job_seconds[label] = float(line.rsplit(" (", 1)[1][:-2])
            except ValueError:
                pass
    shutil.rmtree(base, ignore_errors=True)
    return {"ok": code == 0 and len(rows) > 0, "rows": rows,
            "setup_s": setup_s, "wall_s": wall_s,
            "rss_kb": max(rss, setup_rss), "notes": notes,
            "job_seconds": job_seconds}


# --- Workloads --------------------------------------------------------


def rate_of(jobs, pick):
    """Simulated accesses per second over the @pick-ed run time of
    every job that completed (one figure per job label).

    The host's speed drifts by tens of percent over seconds, so each
    job is run once per round and the fastest of its runs (pick=min)
    is the steadiest estimate of what the code costs."""
    times, accesses = {}, {}
    for job in jobs:
        if job["error"] or job["run_s"] <= 0:
            continue
        times.setdefault(job["label"], []).append(job["run_s"])
        accesses[job["label"]] = job["sim_accesses"]
    if not times:
        raise BenchError("no job completed")
    return (sum(accesses.values()) / sum(pick(t) for t in times.values()),
            sum(len(t) for t in times.values()))


def timed_in_process(paths, tmp, args, labels):
    """Rounds of a set-up process and a one-pass sweep process, each
    fresh, until --seconds have passed."""
    start = time.perf_counter()
    setups, rss, jobs, notes = [], [], [], []
    n = 0
    while n == 0 or time.perf_counter() - start < args.seconds:
        try:
            report, peak = runner(paths, tmp, f"setup{n}", args.workload,
                                  args.seed, "setup")
            setups.append(report["setup_s"])
            rss.append(peak)
        except BenchError as e:
            notes.append(f"round {n} set-up: {e}")
        try:
            report, peak = runner(paths, tmp, f"run{n}", args.workload,
                                  args.seed, "run")
            rss.append(peak)
            round_jobs = report["jobs"]
        except BenchError as e:
            notes.append(f"round {n} sweep: {e}")
            round_jobs = [{"label": label, "row": "", "error": "sweep failed",
                           "run_s": 0.0} for label in labels]
        for job in round_jobs:
            job["pass"] = n
        jobs += round_jobs
        n += 1
    if not setups:
        raise BenchError("every set-up failed: " + "; ".join(notes))
    rate, samples = rate_of(jobs, min)
    metrics = {
        "accesses_per_s": (rate, "1/s", samples),
        "setup_s": (statistics.median(setups), "s", len(setups)),
        "peak_rss_mb": (max(rss) / 1024.0, "MB", len(rss)),
    }
    return metrics, jobs, notes, {
        "accesses_per_s.median_runs": rate_of(jobs, statistics.median)[0]}


def timed_fleet(paths, tmp, args, labels, orgs):
    start = time.perf_counter()
    fleets = []
    while not fleets or time.perf_counter() - start < args.seconds:
        fleets.append(run_fleet(paths, tmp, len(fleets), args.seed, orgs))
    good = [f for f in fleets if f["ok"]]
    if not good:
        raise BenchError("every fleet failed: " +
                         "; ".join(n for f in fleets for n in f["notes"]))
    rates = []
    jobs = []
    notes = []
    for f in fleets:
        notes += f["notes"]
        if f["ok"]:
            simulated = 0
            for row in f["rows"]:
                values = row.split(",")
                simulated += int(values[7]) + int(values[8])
            rates.append(simulated / f["wall_s"])
            jobs += [{"label": check.label_of(r), "row": r, "error": ""}
                     for r in f["rows"]]
        else:
            jobs += [{"label": label, "row": "", "error": "fleet failed"}
                     for label in labels]
    setups = [f["setup_s"] for f in fleets]
    metrics = {
        "accesses_per_s": (statistics.median(rates), "1/s", len(rates)),
        "setup_s": (statistics.median(setups), "s", len(setups)),
        "peak_rss_mb": (max(f["rss_kb"] for f in fleets) / 1024.0, "MB",
                        len(fleets)),
    }
    return metrics, jobs, notes, {"fleet_rates": rates}


def traced(paths, tmp, args, labels, orgs):
    fleet = None
    notes = []
    if args.workload == "shard-fleet":
        f = run_fleet(paths, tmp, 0, args.seed, orgs, progress=True)
        notes += f["notes"]
        fleet_jobs = [{"label": check.label_of(r), "row": r, "error": ""}
                      for r in f["rows"]] if f["ok"] else [
            {"label": label, "row": "", "error": "fleet failed"}
            for label in labels]
    trace_path = os.path.join(tmp, "spans.json")
    report, _ = runner(paths, tmp, "trace", args.workload, args.seed, "trace",
                       trace_out=trace_path)
    jobs = report["jobs"]
    if args.workload == "shard-fleet":
        jobs = jobs + fleet_jobs
        if f["ok"]:
            if len(f["job_seconds"]) != len(labels):
                notes.append("fleet progress lines incomplete; shard "
                             "overhead and imbalance use what was seen")
            fleet = {"wall_s": f["wall_s"], "job_seconds": f["job_seconds"],
                     "shard_of": report["shard_of"],
                     "accesses": sum(int(r.split(",")[7]) +
                                     int(r.split(",")[8]) for r in f["rows"])}
    spans = layers.load_spans(trace_path)
    values, shares, host_ns = layers.layer_metrics(
        spans, labels, orgs, report["clock_read_ns"], fleet)
    kept = os.path.join(args.results_dir,
                        f"trace-{args.workload}-seed{args.seed}.json")
    os.makedirs(os.path.dirname(kept), exist_ok=True)
    shutil.copyfile(trace_path, kept)
    metrics = {name: (value, unit_of(name), 1)
               for name, value in values.items()}
    return metrics, jobs, notes, shares, host_ns, kept


def unit_of(name):
    if name.endswith("_ns") or "_ns." in name:
        return "ns"
    if name.endswith("_mb_per_s"):
        return "MB/s"
    if name.endswith("_s"):
        return "s"
    if "dram_cmds_per_miss" in name:
        return "cmds/miss"
    if name.endswith("steps_per_access"):
        return "steps/access"
    return "ratio"


# --- Main -------------------------------------------------------------


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--results-dir",
                        default=os.path.join(BUILD_ROOT, "results"),
                        help="where the full record of the run goes")
    parser.add_argument("--write-reference", action="store_true",
                        help="record this run's rows as the seed's "
                             "reference instead of checking them")
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    import selftest
    failures = selftest.run_all()
    if failures:
        raise BenchError("benchmark self-test failed: " + "; ".join(failures))

    # Everything the run and its children write stays in the checkout,
    # compilers' temporary files included.
    require_sources()
    os.makedirs(os.path.join(BUILD_ROOT, "tmp"), exist_ok=True)
    os.environ["TMPDIR"] = os.path.join(BUILD_ROOT, "tmp")
    paths = build()
    tmp = tempfile.mkdtemp(prefix=f"{args.workload}-",
                           dir=os.path.join(BUILD_ROOT, "tmp"))
    try:
        listing, _ = runner(paths, tmp, "list", args.workload, args.seed,
                            "list")
        labels, orgs = listing["labels"], listing["orgs"]
        header = listing["csv_header"]
        shares = host_ns = trace_file = estimators = None
        if args.trace:
            (metrics, jobs, notes, shares, host_ns,
             trace_file) = traced(paths, tmp, args, labels, orgs)
        elif args.workload == "shard-fleet":
            metrics, jobs, notes, estimators = timed_fleet(
                paths, tmp, args, labels, orgs)
        else:
            metrics, jobs, notes, estimators = timed_in_process(
                paths, tmp, args, labels)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    if args.write_reference:
        rows = {}
        for job in jobs:
            if job["row"]:
                rows.setdefault(job["label"], job["row"])
        if sorted(rows) != sorted(labels):
            raise BenchError("cannot write a reference: jobs missing")
        check.write_reference(args.workload, args.seed, header,
                              [rows[label] for label in labels])
        log(f"wrote {check.reference_path(args.workload, args.seed)}")
    reference = check.load_reference(args.workload, args.seed)
    if reference is None:
        notes.append(f"seed {args.seed} has no reference; rows checked "
                     "against the conservation identities")
    elif sorted(reference) != sorted(labels):
        raise BenchError("reference does not cover the workload's jobs")
    attempted, failed, problems = check.check_jobs(
        args.workload, labels, header, jobs, reference)

    fp = fingerprint(listing["clock_read_ns"])
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"({fp['compiler']}, {fp['build_type']}, {fp['nproc']} cpus, "
          f"rev {fp['git_rev'][:12]}, clock read "
          f"{fp['clock_read_ns']:.1f} ns)")
    for name, (value, unit, samples) in metrics.items():
        print(f"  {name:34s} {value:16.6g} {unit:12s} n={samples}")
    print(f"  {'error_rate':34s} {failed / attempted:16.6g} {'ratio':12s} "
          f"n={attempted}")
    if shares:
        print(f"  per-access host time {host_ns:.1f} ns; layer shares:")
        for name, share in shares.items():
            print(f"    {name:30s} {share:8.1%}")
    for note in notes + problems:
        print(f"  note: {note}")

    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "fingerprint": fp,
        "metrics": {k: {"value": v, "unit": u, "samples": n}
                    for k, (v, u, n) in metrics.items()},
        "error_rate": failed / attempted, "attempted": attempted,
        "failed": failed, "notes": notes, "problems": problems,
        "shares": shares, "host_ns_per_access": host_ns,
        "trace_file": trace_file, "estimators": estimators, "jobs": jobs,
    }
    os.makedirs(args.results_dir, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    with open(os.path.join(args.results_dir,
                           f"{args.workload}-seed{args.seed}-trace"
                           f"{args.trace}-{stamp}-{os.getpid()}.json"),
              "w", encoding="utf-8") as f:
        json.dump(record, f, indent=1)

    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u, _) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as e:
        log(f"perfbench: {e}")
        sys.exit(1)
