"""Correctness checks on markovj's outputs, parsed value by value.

Each check returns (attempted, failed, problems): the number of
operations the output should cover, how many of them are missing or
wrong, and a short description of each problem.  Outputs are parsed
rather than compared with stored bytes, so an added column or
provenance line does not read as a failure.
"""

from __future__ import annotations

import csv
import io
import json
import re
from pathlib import Path

GOLDEN_CSV = Path(__file__).with_name("golden_rows.csv")
GOLDEN_RTOL = 1e-11

# The paper's value bounds; Im j may exceed 0 by float rounding at the tips.
J_RE_RANGE = (681.5, 742.1)
J_IM_MIN = -0.94
J_IM_SLACK = 1e-10
# Rows print 12 significant digits, so j and J/q agree to about 1e-11.
J_CONSISTENCY_RTOL = 1e-9

_TRACE_LAYER_RE = re.compile(r'File ".*[/\\]markovj[/\\](\w+)\.py"')


def load_golden(depth: int) -> dict[tuple[int, int], dict[str, float]]:
    """Published rows of the nodes with level <= depth, keyed by (p, q)."""
    with open(GOLDEN_CSV) as fh:
        return {
            (int(r["p"]), int(r["q"])): {k: float(r[k]) for k in ("Jq_re", "Jq_im", "j_re", "j_im")}
            for r in csv.DictReader(fh) if int(r["level"]) <= depth
        }


def tree_size(depth: int) -> int:
    """Nodes with level <= depth, the two level-0 tips included."""
    return 2 ** depth + 1


def _rel(got: float, want: float) -> float:
    return abs(got) if want == 0 else abs(got - want) / abs(want)


def _value_problem(row: dict) -> str | None:
    """Bounds and J/q-versus-j consistency of one value row."""
    try:
        int(row["p"])
        q = int(row["q"])
        jq = complex(float(row["Jq_re"]), float(row["Jq_im"]))
        j = complex(float(row["j_re"]), float(row["j_im"]))
        log_eps = float(row["log_eps"])
    except (KeyError, TypeError, ValueError) as exc:
        return f"unparsable row: {exc}"
    if not (J_RE_RANGE[0] <= j.real <= J_RE_RANGE[1]
            and J_IM_MIN < j.imag <= J_IM_SLACK):
        return f"j = {j} outside the paper's bounds"
    if abs(jq * q / (2.0 * log_eps) - j) > J_CONSISTENCY_RTOL * abs(j):
        return f"J/q = {jq} inconsistent with j = {j}"
    return None


def check_table(text: str, rc: int, depth: int) -> tuple[int, int, list[str]]:
    """A value table: every node once, in bounds, golden rows matching."""
    attempted = tree_size(depth)
    if rc != 0:
        return attempted, attempted, [f"table exited {rc}"]
    rows = list(csv.DictReader(io.StringIO(text)))
    if len(rows) != attempted:
        return attempted, attempted, [f"table has {len(rows)} rows, expected {attempted}"]
    golden = load_golden(depth)
    problems, seen = [], set()
    for row in rows:
        problem = _value_problem(row)
        if problem is None:
            key = (int(row["p"]), int(row["q"]))
            if key in seen:
                problem = f"duplicate row {key}"
            elif key in golden:
                worst = max(_rel(float(row[k]), want) for k, want in golden[key].items())
                if worst > GOLDEN_RTOL:
                    problem = f"golden row {key} off by {worst:.3g} relative"
            seen.add(key)
        if problem:
            problems.append(f"{row.get('path')!r}: {problem}")
    if problems:
        # A bad row already counts once; a missing golden row counts only
        # when every row passed, i.e. the table holds the wrong nodes.
        return attempted, min(attempted, len(problems)), problems
    problems += [f"golden row {key} missing" for key in golden if key not in seen]
    return attempted, min(attempted, len(problems)), problems


def check_verify(text: str, rc: int, depth: int) -> tuple[int, int, list[str]]:
    """A verify run covers every node; it passes as a whole or not at all."""
    attempted = tree_size(depth)
    if rc == 0 and "verify: PASS" in text.splitlines():
        return attempted, 0, []
    return attempted, attempted, [f"verify exited {rc} without 'verify: PASS'"]


def _expand_period(text: str) -> list[int]:
    digits = []
    for chunk in text.split(","):
        digit, _, run = chunk.partition("_")
        digits += [int(digit)] * int(run or 1)
    return digits


def _trace(digits: list[int]) -> int:
    """Trace of the product of the step matrices [[d, -1], [1, 0]]."""
    a, b, c, d = 1, 0, 0, 1
    for x in digits:
        a, b, c, d = a * x + b, -a, c * x + d, -c
    return a + d


def check_tree(text: str, rc: int, depth: int) -> tuple[int, int, list[str]]:
    """A tree listing: distinct p/q, period length q, trace 3c."""
    attempted = tree_size(depth)
    if rc != 0:
        return attempted, attempted, [f"tree exited {rc}"]
    rows = list(csv.DictReader(io.StringIO(text)))
    if len(rows) != attempted:
        return attempted, attempted, [f"tree has {len(rows)} rows, expected {attempted}"]
    problems, seen = [], set()
    for row in rows:
        try:
            key = (int(row["p"]), int(row["q"]))
            digits = _expand_period(row["period"])
            c = int(row["c"])
        except (KeyError, TypeError, ValueError) as exc:
            problems.append(f"unparsable row {row.get('path')!r}: {exc}")
            continue
        if key in seen:
            problems.append(f"duplicate p/q {key}")
        elif len(digits) != key[1]:
            problems.append(f"{row['path']!r}: period length {len(digits)} != q {key[1]}")
        elif _trace(digits) != 3 * c:
            problems.append(f"{row['path']!r}: period trace != 3c")
        seen.add(key)
    return attempted, min(attempted, len(problems)), problems


def check_value(text: str, path: str) -> str | None:
    """One ``value --format json`` lookup of the node at ``path``."""
    try:
        row = json.loads(text)
    except ValueError as exc:
        return f"unparsable value output: {exc}"
    if not isinstance(row, dict) or row.get("path") != path:
        return f"value output is not the node {path!r}"
    if str(row.get("level")) != str(len(path) + 1):
        return f"level {row['level']} does not match path {path!r}"
    return _value_problem(row)


def failure_of(stderr: str) -> str:
    """'Type@layer' of the traceback a failed child printed; 'Exit@cli'
    when it exited without one."""
    lines = stderr.strip().splitlines()
    layers = [m.group(1) for line in lines for m in [_TRACE_LAYER_RE.search(line)] if m]
    if not layers:
        return "Exit@cli"
    kind = lines[-1].split(":", 1)[0].strip().rsplit(".", 1)[-1]
    return f"{kind}@{layers[-1]}"
