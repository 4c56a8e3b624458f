"""Parent-against-change runs of markovj, in alternating pairs.

Usage (from anywhere inside the repository):

    python3 tools/deep_bench.py --out BENCH_N.json [--parent REV] [--change REV]
        [--pairs N] [--run NAME ARGS]... [--bench WORKLOAD]... [--bench-pairs N]
        [--what TEXT] [--note TEXT]... [--work DIR]

Each side is a copy of the source tree in a temporary directory: the
parent is exported from revision REV (default HEAD) with ``git
archive``, and the change from REV too, or else from the working tree
(the files git tracks or would track), so neither side holds bytecode
from earlier runs and the repository is left as it was.  Children run
with PYTHONDONTWRITEBYTECODE=1.

``--run NAME ARGS`` runs ``python3 -m markovj ARGS`` (say ``--run
table14 "--depth 14 table"``) in ``--pairs`` pairs, alternating which
side runs first.  A small launcher process spawns each child, so that
no large parent sets a floor under the child's peak RSS; it records
wall time, CPU time (ru_utime + ru_stime) and peak RSS (ru_maxrss)
from os.wait4.  ``--bench WORKLOAD`` runs ``bench/bench.py --workload
WORKLOAD --seconds 10 --trace 0 --seed 1`` on each side in
``--bench-pairs`` pairs and records the metrics of its last output
line.  The start path, ``import markovj.cli``, is listed on each side
as the modules it loads, and each side's ``src/`` is counted in lines.

The output file has the layout of BENCH_28.json: machine, commits,
command lines, per-workload pair summaries (quartiles of each side,
pairs where the change is better, relative change of the medians)
with every run, and the same per command line under ``deep``.  The
exit code is 1 when a run failed or a benchmark run was incorrect.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shlex
import shutil
import statistics
import subprocess
import sys
import tempfile
from importlib import metadata
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: What a side needs: the package and the benchmark.
SIDE_PATHS = ("src", "bench")
SIDES = ("parent", "change")
#: Spawns the child, waits for it, and prints its measurements as JSON.
#: It imports only what it needs, so that its own RSS stays small.
LAUNCHER = """\
import json, os, sys, time
argv, env = json.loads(sys.argv[1]), json.loads(sys.argv[2])
null = os.open(os.devnull, os.O_WRONLY)
start = time.perf_counter()
pid = os.posix_spawn(argv[0], argv, env, file_actions=[(os.POSIX_SPAWN_DUP2, null, 1)])
_, status, usage = os.wait4(pid, 0)
wall = time.perf_counter() - start
print(json.dumps({"rc": os.waitstatus_to_exitcode(status), "wall_s": round(wall, 4),
                  "cpu_s": round(usage.ru_utime + usage.ru_stime, 4),
                  "peak_rss_mb": round(usage.ru_maxrss / 1024, 2)}))
"""
#: The modules that ``import markovj.cli`` adds to a bare interpreter.
IMPORTS = ("import sys; before = set(sys.modules); import markovj.cli; "
           "print('\\n'.join(sorted(set(sys.modules) - before)))")
#: The run length of each bench.py run, as in the earlier BENCH_<n>.json files.
BENCH_SECONDS = 10.0
DEEP_METRICS = ("wall_s", "cpu_s", "peak_rss_mb")
BENCH_METRICS = {"wall_s": "lower", "ok_nodes_per_s": "higher", "peak_rss_mb": "lower",
                 "setup_s": "lower"}


def git(*args: str) -> str:
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True, capture_output=True,
                          text=True).stdout.strip()


def export(rev: str | None, into: Path) -> str:
    """Copy SIDE_PATHS of revision ``rev``, or of the working tree when
    ``rev`` is None, into ``into``; return what was copied."""
    into.mkdir(parents=True)
    if rev is None:
        listed = git("ls-files", "-z", "--cached", "--others", "--exclude-standard", "--",
                     *SIDE_PATHS)
        for name in filter(None, listed.split("\0")):
            if (ROOT / name).is_file():  # deleted files are still listed as cached
                (into / name).parent.mkdir(parents=True, exist_ok=True)
                shutil.copy2(ROOT / name, into / name)
        return f"working tree on top of {git('rev-parse', 'HEAD')}"
    sha = git("rev-parse", "--verify", f"{rev}^{{commit}}")
    archive = subprocess.Popen(["git", "-C", str(ROOT), "archive", sha, "--", *SIDE_PATHS],
                               stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", str(into)], stdin=archive.stdout, check=True)
    archive.stdout.close()
    if archive.wait():
        raise SystemExit(f"error: git archive {sha} failed")
    return sha


def src_lines(side: Path) -> int:
    """The lines of the side's src/**/*.py, as ``wc -l`` counts them."""
    return sum(path.read_bytes().count(b"\n") for path in (side / "src").rglob("*.py"))


def environment(side: Path) -> dict[str, str]:
    return dict(os.environ, PYTHONPATH=str(side / "src"), PYTHONDONTWRITEBYTECODE="1")


def run_markovj(side: Path, args: list[str], cwd: Path) -> dict:
    """One launcher-spawned ``python3 -m markovj ARGS`` in ``cwd``."""
    argv = [sys.executable, "-m", "markovj", *args]
    proc = subprocess.run(
        [sys.executable, "-S", "-c", LAUNCHER, json.dumps(argv), json.dumps(environment(side))],
        cwd=cwd, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout)


def run_bench(side: Path, workload: str) -> dict:
    """One ``bench/bench.py`` run: its metrics, correctness and failures."""
    proc = subprocess.run(
        [sys.executable, str(side / "bench" / "bench.py"), "--workload", workload,
         "--seconds", str(BENCH_SECONDS), "--trace", "0", "--seed", "1"],
        cwd=side, env=environment(side), capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    final = json.loads(lines[-1]) if lines else {"metrics": {}}
    record = {m: round(v["value"], 5) for m, v in final["metrics"].items()}
    record.update(attempted=final.get("attempted"), failed=final.get("failed"),
                  correct=final.get("correct", False), rc=proc.returncode)
    return record


def start_imports(side: Path) -> list[str]:
    proc = subprocess.run([sys.executable, "-c", IMPORTS], env=environment(side),
                          capture_output=True, text=True, check=True)
    return proc.stdout.split()


def pairs(count: int, run) -> list[dict]:
    """``count`` pairs of run(side), the parent first in odd pairs."""
    out = []
    for k in range(1, count + 1):
        order = SIDES if k % 2 else SIDES[::-1]
        record = {"pair": k, "first": order[0]}
        for name in order:
            record[name] = run(name)
        out.append(record)
    return out


def quartiles(values: list[float]) -> dict[str, float]:
    if len(values) < 2:
        return {"q1": values[0], "median": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": round(q1, 5), "median": round(median, 5), "q3": round(q3, 5)}


def summary(runs: list[dict], metrics: dict[str, str]) -> dict:
    """Per metric: each side's quartiles over the pairs, the pairs where
    the change is better, and the relative change of the medians."""
    out = {}
    for metric, better in metrics.items():
        got = {name: [r[name][metric] for r in runs if r[name].get(metric) is not None]
               for name in SIDES}
        if not all(got.values()) or len(got["parent"]) != len(got["change"]):
            continue
        sign = 1 if better == "higher" else -1
        parent, change = quartiles(got["parent"]), quartiles(got["change"])
        out[metric] = {
            "parent": parent,
            "change": change,
            "change_better_in_pairs": sum(sign * (c - p) > 0
                                          for p, c in zip(got["parent"], got["change"])),
            "relative_change_of_median": (round(change["median"] / parent["median"] - 1, 4)
                                          if parent["median"] else None),
        }
    return out


def machine() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = "missing"
    return {"cores": os.cpu_count(), "cpu": cpu,
            "os": f"{platform.system()} {platform.release()}",
            "python": platform.python_version(), "numpy": numpy_version,
            "env": "PYTHONDONTWRITEBYTECODE=1 on both sides, each a fresh copy of its "
                   "source tree, so neither holds __pycache__"}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--parent", default="HEAD", help="revision (default HEAD)")
    parser.add_argument("--change", help="revision (default: the working tree)")
    parser.add_argument("--pairs", type=int, default=3, help="pairs per --run")
    parser.add_argument("--run", nargs=2, action="append", default=[], metavar=("NAME", "ARGS"),
                        help="a markovj command line, say: table14 '--depth 14 table'")
    parser.add_argument("--bench", action="append", default=[], metavar="WORKLOAD")
    parser.add_argument("--bench-pairs", type=int, default=10)
    parser.add_argument("--what", default="", help="what the change is")
    parser.add_argument("--note", action="append", default=[])
    parser.add_argument("--work", type=Path, help="directory for the copies (default: a temp dir)")
    args = parser.parse_args(argv)
    if args.pairs < 1 or args.bench_pairs < 1:
        parser.error("--pairs and --bench-pairs must be >= 1")

    with tempfile.TemporaryDirectory(prefix="deep_bench-", dir=args.work) as tmp:
        work = Path(tmp)
        trees = {name: work / name for name in SIDES}
        commits = {"parent": export(args.parent, trees["parent"]),
                   "change": export(args.change, trees["change"])}
        runs_dir = work / "runs"
        runs_dir.mkdir()
        deep = {}
        for name, line in args.run:
            runs = pairs(args.pairs, lambda side: run_markovj(trees[side], shlex.split(line),
                                                              runs_dir))
            deep[name] = {
                "command": f"python3 -m markovj {line}",
                "pairs": args.pairs,
                "median": {side: {m: round(statistics.median(r[side][m] for r in runs), 4)
                                  for m in DEEP_METRICS} for side in SIDES},
                "summary": summary(runs, {m: "lower" for m in DEEP_METRICS}),
                "runs": runs,
            }
        workloads = {}
        for workload in args.bench:
            runs = pairs(args.bench_pairs,
                         lambda side: run_bench(trees[side], workload))
            workloads[workload] = {"pairs": args.bench_pairs,
                                   "summary": summary(runs, BENCH_METRICS), "runs": runs}
        imports = {side: start_imports(trees[side]) for side in SIDES}
        lines = {side: src_lines(trees[side]) for side in SIDES}

    result = {
        "what": args.what,
        "machine": machine(),
        "commits": commits,
        "src_lines": lines,
        "commands": {
            "pairs": f"python3 bench/bench.py --workload WORKLOAD --seconds {BENCH_SECONDS:g} "
                     "--trace 0 --seed 1",
            "pairs_note": "each side run from its own copy of its source tree; metric values "
                          "are bench.py's own (wall_s and ok_nodes_per_s means, peak_rss_mb "
                          "and setup_s medians over its repetitions); quartiles are over the "
                          "pairs",
            "deep": "python3 -m markovj ARGS > /dev/null with PYTHONPATH=<side>/src, spawned "
                    "by a small launcher; wall from perf_counter around the child, CPU "
                    "(ru_utime + ru_stime) and peak RSS (ru_maxrss) from os.wait4",
            "imports": "the modules that `import markovj.cli` adds to a bare interpreter",
        },
        "claim": None,
        "notes": args.note,
        "workloads": workloads,
        "deep": deep,
        "imports": {"same": imports["parent"] == imports["change"],
                    "added": sorted(set(imports["change"]) - set(imports["parent"])),
                    "removed": sorted(set(imports["parent"]) - set(imports["change"])),
                    "count": {side: len(imports[side]) for side in SIDES},
                    "modules": imports},
    }
    args.out.write_text(json.dumps(result, indent=1) + "\n")
    failed = [f"{name} pair {r['pair']} {side}" for name, entry in {**deep, **workloads}.items()
              for r in entry["runs"] for side in SIDES
              if r[side]["rc"] != 0 or r[side].get("correct") is False]
    for line in failed:
        print(f"failed: {line}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
