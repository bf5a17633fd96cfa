"""qwsearch benchmark: one workload as a closed loop of fresh CLI processes.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run from the repository root; the program is imported from ``src/``.  One
client starts a ``qwsearch`` process, waits for it to exit, then starts the
next, for about S seconds, so at most one child (with its BLAS and pool
threads) runs at a time.  Each workload fixes the CLI flags and the BLAS
thread count of its children, because both the output bytes and the times
depend on it.

With ``--trace 0`` it reports, as medians over the children of the run:
  wall_s       child spawn to exit, outputs written
  setup_s      child spawn to entry of ``qwsearch.cli.main`` (interpreter and
               imports); set-up-only processes add samples
  cpu_s        user + system CPU of the child
  peak_rss_mb  maximum resident set of the child
With ``--trace 1`` it alternates untraced and traced children and reports the
per-layer counters and times of ``layers.py`` instead.

An operation is one output file of one child.  It fails when the child exits
non-zero, the file is missing, its bytes differ from the first child's, or
an oracle check in ``workloads.py`` rejects it; checks run after the timed
loop.  The last line of stdout is the JSON result; the lines before it give
every metric with its unit and the run manifest.
"""

from __future__ import annotations

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
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / ".work"
REFERENCE = HERE / "ref" / "seed0.json"

BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_VARS:
    os.environ[_var] = "1"  # the checks in this process; children get their own

import layers  # noqa: E402
from workloads import WORKLOADS, sha256  # noqa: E402

SETUP_SPAWNS = 2  # set-up-only children per run, after one warm-up
MIN_CHILDREN = 2
RUN_LIMIT_S = 170.0  # a child still running at this point of the run is killed

# The metric names and units this command reports, as BENCHMARK.json declares them.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}


@dataclass
class Child:
    rc: int
    wall: float
    cpu: float
    rss_mb: float
    setup: float | None
    out: Path
    traced: bool = False
    hashes: dict[str, str] = field(default_factory=dict)
    spans: list | None = None


class Runner:
    """Starts children of one workload, one at a time, inside one run directory."""

    def __init__(self, workload, run_dir: Path, config_path: Path, started: float):
        self.workload = workload
        self.run_dir = run_dir
        self.config_path = config_path
        self.started = started
        self.count = 0
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        for var in BLAS_VARS:
            self.env[var] = str(workload.blas_threads)

    def spawn(self, *, setup_only: bool = False, traced: bool = False) -> Child:
        self.count += 1
        tag = self.run_dir / f"c{self.count}"
        out = tag.with_suffix(".out")
        stamp, trace, log = tag.with_suffix(".stamp"), tag.with_suffix(".trace"), tag.with_suffix(".log")
        argv = [sys.executable, str(HERE / "child.py"), str(stamp), str(trace) if traced else "-"]
        argv += ["--setup-only"] if setup_only else []
        argv += ["--", *self.workload.cli_args(self.config_path, out)]
        limit = max(1.0, RUN_LIMIT_S - (time.monotonic() - self.started))
        with open(log, "wb") as log_fh:
            start = time.monotonic()
            proc = subprocess.Popen(argv, env=self.env, cwd=ROOT, stdout=log_fh, stderr=subprocess.STDOUT)
            killer = threading.Timer(limit, proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:  # interrupted or terminated: leave no child behind
                proc.kill()
                proc.wait()
                raise
            finally:
                killer.cancel()
            wall = time.monotonic() - start
        proc.returncode = rc = os.waitstatus_to_exitcode(status)
        setup = float(stamp.read_text()) - start if stamp.exists() else None
        child = Child(rc, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0, setup, out, traced)
        if rc != 0:
            sys.stderr.write(f"child exited {rc}: {' '.join(argv)}\n{log.read_text(errors='replace')}")
        if traced and trace.exists():
            child.spans = json.loads(trace.read_text())["spans"]
        for name in self.workload.outputs:
            if (out / name).is_file():
                child.hashes[name] = sha256(out / name)
        return child


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def manifest(workload, seed: int, config: dict) -> dict:
    import numpy
    import scipy

    def cpu_model() -> str | None:
        try:
            for line in Path("/proc/cpuinfo").read_text().splitlines():
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
        except OSError:
            pass
        return platform.processor() or None

    def cache(level: int) -> str | None:
        for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
            try:
                if (index / "level").read_text().strip() == str(level):
                    return (index / "size").read_text().strip()
            except OSError:
                return None
        return None

    commit = None  # a checkout without .git is identified by src_sha256 alone
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
            ).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    sources = sorted((ROOT / "src").rglob("*.py"))
    digest = hashlib.sha256()
    for path in sources:
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return {
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "l2_cache": cache(2),
        "l3_cache": cache(3),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "workload": workload.name,
        "seed": seed,
        "cli": list(workload.command) + ["--threads", str(workload.threads)],
        "blas_threads_env": workload.blas_threads,
        "config": config,
        "load": "closed loop, 1 client",
    }


def run(args, workload) -> dict:
    started = time.monotonic()
    config = workload.inputs(args.seed)
    run_dir = WORK / f"{workload.name}-s{args.seed}-t{args.trace}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    try:
        config_path = run_dir / "config.json"
        config_path.write_text(json.dumps(config, indent=2, sort_keys=True))
        runner = Runner(workload, run_dir, config_path, started)
        if runner.spawn(setup_only=True).rc != 0:
            raise SystemExit(f"error: cannot start qwsearch from {ROOT / 'src'}")
        setups = [runner.spawn(setup_only=True).setup for _ in range(SETUP_SPAWNS)]

        children: list[Child] = []
        kept = False  # outputs stay for the first complete child and for traced ones
        deadline = time.monotonic() + args.seconds
        while True:
            traced = bool(args.trace) and len(children) % 2 == 1
            child = runner.spawn(traced=traced)
            children.append(child)
            complete = child.rc == 0 and len(child.hashes) == len(workload.outputs)
            if kept and not traced:
                shutil.rmtree(child.out, ignore_errors=True)
            kept = kept or complete
            typical = statistics.median(c.wall for c in children)
            if len(children) >= MIN_CHILDREN and time.monotonic() + typical > deadline:
                break
        return report(args, workload, config, setups, children)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass  # another run still uses it


def report(args, workload, config: dict, setups: list, children: list[Child]) -> dict:
    references = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
    ref = references.get(workload.name) if args.seed == 0 else None
    problems: list[str] = []
    if ref is not None and ref["config"] != config:
        problems.append("seed-0 inputs differ from those of the stored reference")
        ref = None

    first = next((c for c in children if c.rc == 0 and len(c.hashes) == len(workload.outputs)), None)
    expected: dict[str, int] = {}
    if first is None:
        problems.append("no child produced every output")
        oracle_failed = set(workload.outputs)
    else:
        try:
            found = workload.check(config, first.out, ref)
            expected = workload.expected_counts(config, first.out)
        except Exception as exc:  # a malformed output must count as failed, not stop the run
            found = [f"check raised {exc!r}"]
        problems += found
        # a problem names its file before the first colon; one that names none fails them all
        named = {p.split(":", 1)[0] for p in found}
        oracle_failed = set(workload.outputs) if named - set(workload.outputs) else named

    attempted = len(workload.outputs) * len(children)
    failed = 0
    for c in children:
        if c.rc != 0:
            failed += len(workload.outputs)
            continue
        for name in workload.outputs:
            if name in oracle_failed or first is None or c.hashes.get(name) != first.hashes.get(name):
                failed += 1

    if args.trace:
        metrics = per_layer(workload, children, first, ref, expected, problems)
    else:
        samples = {
            "wall_s": [c.wall for c in children],
            "setup_s": [s for s in setups + [c.setup for c in children] if s is not None],
            "cpu_s": [c.cpu for c in children],
            "peak_rss_mb": [c.rss_mb for c in children],
        }
        metrics = {}
        for name in (m["name"] for m in SPEC["end_to_end"]):
            q1, med, q3 = quartiles(samples[name])
            metrics[name] = {"value": med, "unit": UNITS[name]}
            print(f"  {name:<12} {med:12.6g} {UNITS[name]:<3} median of {len(samples[name])}, quartiles {q1:.6g} .. {q3:.6g}")

    print(f"  {'fail_frac':<12} {failed / attempted:12.6g} fraction, {failed} of {attempted} operations failed")
    for p in problems:
        print(f"  problem: {p}")
    print("manifest: " + json.dumps(manifest(workload, args.seed, config), sort_keys=True))
    return {"correct": failed == 0 and not problems, "attempted": attempted, "failed": failed, "metrics": metrics}


def per_layer(workload, children, first, ref, expected: dict[str, int], problems: list[str]) -> dict:
    traced = [c for c in children if c.traced and c.spans is not None]
    plain = [c for c in children if not c.traced]
    if not traced:
        problems.append("no traced child completed")
        return {}
    runs = []
    for c in traced:
        m = layers.layer_metrics(c.spans)
        m["cli.bytes_written"] = sum(f.stat().st_size for f in c.out.iterdir()) if c.out.is_dir() else 0
        baseline = ref["files"] if ref is not None else (first.hashes if first is not None else {})
        m["cli.files_identical"] = sum(1 for n in workload.outputs if c.hashes.get(n) == baseline.get(n))
        m["cli.files_total"] = len(workload.outputs)
        runs.append(m)
    for name in layers.COUNTS:
        if len({r[name] for r in runs}) > 1:
            problems.append(f"{name} differs between traced runs: {[r[name] for r in runs]}")

    values = {name: statistics.median(r[name] for r in runs) for name in runs[0]}
    values["trace.wall_s"] = statistics.median(c.wall for c in traced)
    values["trace.overhead_s"] = values["trace.wall_s"] - statistics.median(c.wall for c in plain)
    mismatched = {k: (v, values[k]) for k, v in expected.items() if values[k] != v}
    for k, (want, got) in mismatched.items():
        print(f"  note: {k} = {got}, the config implies {want}")
    values["check.counts_as_configured"] = 0 if mismatched else 1

    metrics = {}
    for name in (m["name"] for m in SPEC["per_layer"]):
        metrics[name] = {"value": values[name], "unit": UNITS[name]}
        print(f"  {name:<30} {values[name]:14.6g} {UNITS[name]}")
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not (ROOT / "src" / "qwsearch" / "cli.py").is_file():
        print(f"error: no qwsearch sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        print(f"{name} seed {args.seed}, trace {args.trace}: closed loop of qwsearch processes, 1 client")
        print(json.dumps(run(args, WORKLOADS[name])))
    return 0


if __name__ == "__main__":
    sys.exit(main())
