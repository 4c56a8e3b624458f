"""Benchmark of markovj: end-to-end and per-layer metrics on four workloads.

Usage (from the repository root):

    python3 bench/bench.py --workload NAME [--seed N] [--seconds S]
                           [--trace 0|1] [--smoke]

NAME is one of table_cold, verify_warm, tree_deep, value_deep, or
``all`` for every workload in turn.  The program is run from ``src/``
in child processes, one at a time and with ``--jobs 1``; repetitions
go on for about ``--seconds``, and every output is checked.

With ``--trace 0`` the end-to-end metrics are printed (wall time and
rate are means over the repetitions, the rest medians).  With
``--trace 1`` untraced and traced repetitions alternate; the traced ones
wrap every layer from outside the package (see tracer.py) and give the
per-layer metrics and the tracing overhead.
``--smoke`` runs the same code at tiny sizes.  The last line of stdout
is one JSON object: correct, attempted, failed and metrics.  The exit
code is 0 when every check passed (the known ``value_deep`` failures
below count as failed operations but not as incorrect output), 1 when a
check failed, and 2 when the source tree is missing.

NOTES.md gives the reason for each workload and the layer-to-metric map.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

import checks
import tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

# A run must end within 180 s; children still running at this point are killed.
RUN_LIMIT_S = 170.0

SIZES = {
    False: {"table_depth": 9, "tree_depth": 12, "value_paths": 48,
            "value_levels": (10, 13), "setup_spawns": 5},
    True: {"table_depth": 4, "tree_depth": 6, "value_paths": 4,
           "value_levels": (5, 6), "setup_spawns": 1},
}

# (exception, layer) of the value_deep failures the code is known to
# raise at levels 10-13: float overflow in cf's exact cycle check once
# c exceeds about 1e154, and quadrature that cannot reach the default
# tolerance.  They count as failed operations; any other failure, or a
# wrong value, makes the run incorrect.
KNOWN_FAILURES = {("OverflowError", "cf"), ("QuadratureError", "integrals")}

E2E_UNITS = {"wall_s": "s", "ok_nodes_per_s": "1/s", "peak_rss_mb": "MB", "setup_s": "s"}


@dataclass
class Sample:
    """One repetition: a child process running the workload's calls."""

    wall_s: float
    rss_mb: float
    attempted: int
    failed: int
    failures: list[str] = field(default_factory=list)  # "Type@layer" per failed call
    problems: list[str] = field(default_factory=list)  # what makes the run incorrect
    layers: dict | None = None  # per-layer metrics of a traced repetition


class Bench:
    def __init__(self, args: argparse.Namespace, work: Path):
        self.args = args
        self.sizes = SIZES[args.smoke]
        self.work = work
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self._verdicts: dict[tuple, tuple[int, int, list[str]]] = {}
        self._spawns = 0

    # -- processes ---------------------------------------------------------

    def _watchdog(self, proc: subprocess.Popen) -> threading.Timer:
        """Kill the child if it is still running at the run's deadline."""
        timer = threading.Timer(max(1.0, self.deadline - time.monotonic()), proc.kill)
        timer.start()
        return timer

    def spawn(self, argv: list[str]) -> tuple[int, float, float, str, str]:
        """Run one child to completion; (rc, wall s, peak RSS MB, stdout, stderr)."""
        self._spawns += 1
        out = self.work / f"p{self._spawns}.out"
        err = self.work / f"p{self._spawns}.err"
        with open(out, "wb") as fo, open(err, "wb") as fe:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=fo, stderr=fe, env=self.env, cwd=self.work)
            timer = self._watchdog(proc)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        texts = [path.read_text() for path in (out, err)]
        out.unlink()
        err.unlink()
        return proc.returncode, wall, usage.ru_maxrss / 1024.0, *texts

    def setup_time(self) -> float:
        """Seconds from starting a fresh interpreter to `import markovj.cli` returning."""
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-c", "import markovj.cli; print('ready', flush=True)"],
            stdout=subprocess.PIPE, env=self.env, cwd=self.work)
        timer = self._watchdog(proc)
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
        finally:
            proc.stdout.close()
            proc.wait()
            timer.cancel()
        if line.strip() != b"ready" or proc.returncode != 0:
            raise RuntimeError("importing markovj.cli failed")
        return elapsed

    def execute(self, calls: list[list[str]], traced: bool):
        """Run the calls in one child (child.py, traced or not); returns
        (wall, rss, ops, trace) where ops holds (rc, stdout text, failure
        label or None) per call."""
        job_path = self.work / "job.json"
        result_path = self.work / "result.json"
        result_path.unlink(missing_ok=True)
        job_path.write_text(json.dumps({
            "src": str(SRC), "calls": calls, "dir": str(self.work),
            "trace": traced, "result": str(result_path)}))
        rc, wall, rss, _, err = self.spawn([sys.executable, str(BENCH / "child.py"), str(job_path)])
        if rc != 0 or not result_path.exists():
            failure = checks.failure_of(err)
            return wall, rss, [(rc or 1, "", failure)] * len(calls), None
        result = json.loads(result_path.read_text())
        ops = []
        for op in result["ops"]:
            error = op["error"]
            failure = (f"{error['type']}@{error['layer']}" if error
                       else None if op["rc"] == 0 else "Exit@cli")
            stdout = Path(op["stdout"])
            ops.append((op["rc"], stdout.read_text(), failure))
            stdout.unlink()
        return wall, rss, ops, result["trace"]

    def verdict(self, check, text: str, rc: int, depth: int):
        """Run a check, once per distinct output within this run."""
        key = (check.__name__, depth, rc, hashlib.sha256(text.encode()).hexdigest())
        if key not in self._verdicts:
            self._verdicts[key] = check(text, rc, depth)
        return self._verdicts[key]

    # -- workloads -----------------------------------------------------------

    def prepare(self, name: str) -> Sample | None:
        """Set-up outside the timed repetitions; returns a Sample if it failed."""
        if name == "verify_warm":
            depth = self.sizes["table_depth"]
            cache = self.work / "prefill.jsonl"
            wall, rss, ops, _ = self.execute(
                [["--depth", str(depth), "--jobs", "1", "--cache", str(cache), "table"]], False)
            rc, text, failure = ops[0]
            attempted, failed, problems = self.verdict(checks.check_table, text, rc, depth)
            if failed:
                return Sample(wall, rss, attempted, failed, [failure] if failure else [],
                              ["prefilling the cache failed"] + problems)
        elif name == "value_deep":
            rng = random.Random(self.args.seed)
            lo, hi = self.sizes["value_levels"]
            self.value_paths = [
                "".join(rng.choice("LR") for _ in range(rng.randint(lo, hi) - 1))
                for _ in range(self.sizes["value_paths"])
            ]
        return None

    def calls(self, name: str) -> list[list[str]]:
        """Argument vectors of one repetition (and its per-repetition set-up)."""
        table_depth = str(self.sizes["table_depth"])
        if name == "table_cold":
            cache = self.work / "cold.jsonl"
            cache.unlink(missing_ok=True)
            return [["--depth", table_depth, "--jobs", "1", "--cache", str(cache), "table"]]
        if name == "verify_warm":
            cache = self.work / "warm.jsonl"
            shutil.copyfile(self.work / "prefill.jsonl", cache)
            return [["--depth", table_depth, "--jobs", "1", "--cache", str(cache), "verify"]]
        if name == "tree_deep":
            return [["--depth", str(self.sizes["tree_depth"]), "--jobs", "1", "tree"]]
        return [["--jobs", "1", "--format", "json", "value", p] for p in self.value_paths]

    def judge(self, name: str, ops) -> tuple[int, int, list[str], list[str]]:
        """(attempted, failed, failure labels, problems) of one repetition."""
        failures = [f for _, _, f in ops if f]
        if name == "value_deep":
            problems = []
            for path, (rc, text, failure) in zip(self.value_paths, ops):
                if failure:
                    kind, _, layer = failure.partition("@")
                    if (kind, layer) not in KNOWN_FAILURES:
                        problems.append(f"{path}: {failure}")
                else:
                    problem = checks.check_value(text, path)
                    if problem:
                        failures.append(f"WrongValue@{path}")
                        problems.append(f"{path}: {problem}")
            return len(ops), len(failures), failures, problems
        check, depth = {
            "table_cold": (checks.check_table, self.sizes["table_depth"]),
            "verify_warm": (checks.check_verify, self.sizes["table_depth"]),
            "tree_deep": (checks.check_tree, self.sizes["tree_depth"]),
        }[name]
        rc, text, _ = ops[0]
        attempted, failed, problems = self.verdict(check, text, rc, depth)
        return attempted, failed, failures, problems + failures

    def repetition(self, name: str, traced: bool) -> Sample:
        wall, rss, ops, raw = self.execute(self.calls(name), traced)
        attempted, failed, failures, problems = self.judge(name, ops)
        layers = None
        if traced:
            if raw is None:
                problems.append("traced child produced no trace")
            else:
                if raw["missing"]:
                    print(f"warning: trace targets not found: {raw['missing']}", file=sys.stderr)
                out_bytes = sum(len(text.encode()) for _, text, _ in ops)
                layers = tracer.metrics(raw, out_bytes)
        return Sample(wall, rss, attempted, failed, failures, problems, layers)

    def run(self, name: str) -> dict:
        setups = []
        if not self.args.trace:
            self.setup_time()  # warm-up: byte-compiles the package
            setups = [self.setup_time() for _ in range(self.sizes["setup_spawns"])]
        failed_setup = self.prepare(name)
        if failed_setup is not None:
            return summarise(name, [failed_setup], [], setups)
        plain, traced = [], []
        start = time.perf_counter()
        # Stop before a repetition that would likely end past --seconds.
        while True:
            plain.append(self.repetition(name, traced=False))
            if self.args.trace:
                traced.append(self.repetition(name, traced=True))
            elapsed = time.perf_counter() - start
            if elapsed * (len(plain) + 1) / len(plain) > self.args.seconds:
                break
        return summarise(name, plain, traced, setups)


def _median(values):
    return statistics.median(values) if values else 0.0


def _quartiles(values) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def summarise(name: str, plain: list[Sample], traced: list[Sample], setups: list[float]) -> dict:
    samples = plain + traced
    attempted = sum(s.attempted for s in samples)
    failed = sum(s.failed for s in samples)
    walls = [s.wall_s for s in plain]
    if traced:
        layer_names = sorted(traced[0].layers or {})
        metrics = {m: {"value": _median([(s.layers or {}).get(m, 0) for s in traced]),
                       "unit": tracer.unit_of(m)} for m in layer_names}
        metrics["trace.overhead_share"] = {
            "value": _median([s.wall_s for s in traced]) / _median(walls) - 1.0,
            "unit": "share"}
    else:
        values = {
            # Means, not medians: a repetition's time jumps between host
            # speed regimes, and the median of a bimodal sample flips
            # between them from run to run.
            "wall_s": statistics.fmean(walls),
            "ok_nodes_per_s": sum(s.attempted - s.failed for s in plain) / sum(walls),
            "peak_rss_mb": _median([s.rss_mb for s in plain]),
            "setup_s": _median(setups),
        }
        metrics = {m: {"value": v, "unit": E2E_UNITS[m]} for m, v in values.items()}
    failures: dict[str, int] = {}
    for s in samples:
        for f in s.failures:
            failures[f] = failures.get(f, 0) + 1
    problems = [p for s in samples for p in s.problems]
    q1, q3 = _quartiles(walls)
    return {
        "workload": name,
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "failed_share": failed / attempted if attempted else 0.0,
        "failures": failures,
        "problems": problems[:20],
        "repetitions": len(plain),
        "wall_s_samples": walls,
        "wall_s_quartiles": [q1, q3],
        "setup_s_samples": setups,
        "metrics": metrics,
    }


def machine() -> dict:
    commit = "unknown"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or commit
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = "missing"
    return {
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "commit": commit,
        "src_sha256": digest.hexdigest()[:16],
    }


def print_summary(result: dict) -> None:
    name = result["workload"]
    print(f"{name}: {result['repetitions']} repetitions, attempted {result['attempted']}, "
          f"failed {result['failed']} (failed_share {result['failed_share']:.4g} share)")
    for metric, m in result["metrics"].items():
        print(f"  {metric:32s} {m['value']:.6g} {m['unit']}")
    q1, q3 = result["wall_s_quartiles"]
    print(f"  untraced wall_s quartiles {q1:.4g} .. {q3:.4g} s over "
          f"{len(result['wall_s_samples'])} repetitions: "
          + " ".join(f"{w:.4g}" for w in result["wall_s_samples"]))
    if result["setup_s_samples"]:
        print("  setup_s samples: " + " ".join(f"{t:.4g}" for t in result["setup_s_samples"]))
    if result["failures"]:
        print(f"  failures by type@layer: {json.dumps(result['failures'], sort_keys=True)}")
    for problem in result["problems"]:
        print(f"  PROBLEM {problem}")


WORKLOADS = ("table_cold", "verify_warm", "tree_deep", "value_deep")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for checking the benchmark")
    args = parser.parse_args(argv)
    if not (SRC / "markovj" / "cli.py").is_file():
        print(f"error: no markovj source under {SRC}", file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    work_root = ROOT / ".bench_work"
    work = work_root / str(os.getpid())
    work.mkdir(parents=True, exist_ok=True)
    try:
        results = []
        for name in names:
            result = Bench(args, work).run(name)
            print_summary(result)
            results.append(result)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass
    info = machine()
    print("machine " + json.dumps(info, sort_keys=True))
    prefix = len(results) > 1
    final = {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {(f"{r['workload']}.{m}" if prefix else m): v
                    for r in results for m, v in r["metrics"].items()},
    }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
