"""Command-line interface.

Subcommands: tree, value, table, interlace, asymptotics, bounds,
verify.  Numbers are printed with 12 significant digits; the table
matches the published layout when sorted by p/q.  A JSON-lines cache
(--cache) makes warm reruns byte-identical without re-integrating.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from dataclasses import dataclass, fields
from operator import itemgetter
from pathlib import Path

from . import analysis
from .cf import format_period, join_texts
from .integrals import (
    METHOD,
    ArcIntegrator,
    CycleValue,
    QuadratureError,
    check_cache_writable,
    compute_values,
    integrate_J,
    read_cache,
    write_cache,
)
from .jfunction import DEFAULT_ORDER, j_coefficients
from .tree import (
    TIP_LEFT,
    TreeError,
    TreeNode,
    build_tree,
    find_fraction,
    joins_neighbours,
    node_at,
)

CSV_HEADER = [
    "path", "level", "p", "q", "c",
    "Jq_re", "Jq_im", "j_re", "j_im", "log_eps", "quad_err",
]


@dataclass
class RunConfig:
    depth: int = 5
    tol: float = 1e-10
    series_order: int = DEFAULT_ORDER
    fmt: str = "csv"
    cache: str | None = None
    jobs: int = 1

    def __post_init__(self) -> None:
        if self.depth < 1:
            raise ValueError("depth must be >= 1")
        if not 0.0 < self.tol <= 1e-4:
            raise ValueError("tol must be in (0, 1e-4]")
        # c_m overflows floats near order 3180; the truncation bound is 0.0 from 200.
        if not 20 <= self.series_order <= 1000:
            raise ValueError("series order must be in [20, 1000]")
        if self.fmt not in ("csv", "json"):
            raise ValueError("format must be csv or json")
        # Each job is a worker process; more than the CPUs this process may use only queue.
        cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                else os.cpu_count() or 1)
        if not 1 <= self.jobs <= cpus:
            raise ValueError(f"jobs must be in [1, {cpus}], the CPUs this process may use")


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _in_order(node: TreeNode) -> str:
    """In-order position on the Stern-Brocot tree as a string: with
    L < M < R, path + "M" sorts a node after its left subtree and before
    its right one.  The tip 0/1 sorts first and 1/2 last."""
    if node.level:
        return node.path + "M"
    return "" if node is TIP_LEFT else "S"


def _sorted_by_fraction(nodes: list[TreeNode]) -> list[TreeNode]:
    return sorted(nodes, key=_in_order)


def _value_row(value: CycleValue) -> dict[str, str]:
    node = value.node
    Jq = value.J_over_q
    return {
        "path": node.path,
        "level": str(node.level),
        "p": str(node.farey.p),
        "q": str(node.farey.q),
        "c": str(node.c),
        "Jq_re": _fmt(Jq.real),
        "Jq_im": _fmt(Jq.imag),
        "j_re": _fmt(value.j.real),
        "j_im": _fmt(value.j.imag),
        "log_eps": _fmt(value.log_eps),
        "quad_err": _fmt(value.quad_error),
    }


def _values_with_cache(nodes: list[TreeNode], config: RunConfig) -> dict[str, CycleValue]:
    """Compute values for the nodes, consulting the JSONL cache.

    A cached record is used only if it matches the node (path, q, c)
    and the run (tol, series order, quadrature method); the other nodes
    are computed, and only then is the cache rewritten, in path order.
    A cache that could not be written is refused before any value is
    computed.
    """
    cached: dict[str, dict] = {}
    if config.cache and Path(config.cache).exists():
        cached = {rec["path"]: rec for rec in read_cache(config.cache)}
    values: dict[str, CycleValue] = {}
    missing: list[TreeNode] = []
    for node in nodes:
        rec = cached.get(node.path)
        if rec is not None and (
            rec["q"], rec["c"], rec["tol"], rec["series_order"], rec["method"]
        ) == (node.q, str(node.c), config.tol, config.series_order, METHOD):
            values[node.path] = CycleValue(
                node=node,
                J=complex(rec["J_re"], rec["J_im"]),
                j=complex(rec["j_re"], rec["j_im"]),
                log_eps=rec["log_eps"],
                quad_error=rec["quad_err"],
                tol=rec["tol"],
                series_order=rec["series_order"],
            )
        else:
            missing.append(node)
    if missing:
        if config.cache:
            check_cache_writable(config.cache)
        series = j_coefficients(config.series_order)
        values.update(compute_values(missing, tol=config.tol, series=series,
                                     jobs=config.jobs))
        if config.cache:
            write_cache([values[p] for p in sorted(values)], config.cache)
    return values


def _emit_rows(rows: list[dict[str, str]], fieldnames: list[str], fmt: str) -> None:
    if fmt == "json":
        json.dump(rows, sys.stdout, indent=2)
        sys.stdout.write("\n")
    else:
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(fieldnames)
        writer.writerows(map(itemgetter(*fieldnames), rows))


def _period_texts(nodes: list[TreeNode]) -> dict[str, str]:
    """The compact period text of each node, by path.  In breadth-first
    order a node's neighbours come before it, so a joined word's text is
    its neighbours' texts joined; only the other words are formatted."""
    texts: dict[str, str] = {}
    for node in nodes:
        texts[node.path] = (join_texts(texts[node.right.path], texts[node.left.path])
                            if joins_neighbours(node.left) else format_period(node.period))
    return texts


def cmd_tree(config: RunConfig) -> int:
    nodes = build_tree(config.depth)
    texts = _period_texts(nodes)
    rows = [{
        "path": node.path,
        "level": str(node.level),
        "p": str(node.farey.p),
        "q": str(node.farey.q),
        "c": str(node.c),
        "period": texts[node.path],
    } for node in _sorted_by_fraction(nodes)]
    _emit_rows(rows, ["path", "level", "p", "q", "c", "period"], config.fmt)
    return 0


def _resolve_target(target: str) -> TreeNode:
    if "/" in target:
        p, q = target.split("/", 1)
        return find_fraction(int(p), int(q))
    if target in ("", "root") or set(target) <= {"L", "R"}:
        return node_at("" if target == "root" else target)
    raise TreeError(f"cannot interpret {target!r} as p/q or an L/R path")


def cmd_value(config: RunConfig, target: str) -> int:
    node = _resolve_target(target)
    value = integrate_J(node, config.tol, ArcIntegrator(j_coefficients(config.series_order)))
    row = _value_row(value)
    if config.fmt == "json":
        print(json.dumps(row, indent=2))
    else:
        Jq, jv = value.J_over_q, value.j
        print(f"node      {node.farey}  (path {node.path!r}, level {node.level})")
        print(f"c         {node.c}")
        print(f"period    {format_period(node.period)}")
        print(f"J/q       {_fmt(Jq.real)} {'+' if Jq.imag >= 0 else '-'} {_fmt(abs(Jq.imag))}i")
        print(f"j         {_fmt(jv.real)} {'+' if jv.imag >= 0 else '-'} {_fmt(abs(jv.imag))}i")
        print(f"log eps   {_fmt(value.log_eps)}")
        print(f"quad err  {_fmt(value.quad_error)}")
    return 0


def cmd_table(config: RunConfig) -> int:
    nodes = _sorted_by_fraction(build_tree(config.depth))
    values = _values_with_cache(nodes, config)
    rows = [_value_row(values[n.path]) for n in nodes]
    _emit_rows(rows, CSV_HEADER, config.fmt)
    return 0


def _print_report(report: analysis.Report, fmt: str) -> int:
    print(report.to_json() if fmt == "json" else report.to_text())
    return 0 if report.passed else 1


def cmd_interlace(config: RunConfig) -> int:
    nodes = build_tree(config.depth)
    values = _values_with_cache(nodes, config)
    return _print_report(analysis.check_interlacing(values, nodes), config.fmt)


def cmd_asymptotics(config: RunConfig) -> int:
    return _print_report(analysis.asymptotics_report(config.depth), config.fmt)


def cmd_bounds(config: RunConfig, k0: int) -> int:
    chain = analysis.theorem2_constants(k0)
    if config.fmt == "json":
        print(json.dumps({
            "k0": chain.k0,
            "re_delta_bound": chain.re_delta_bound,
            "im_delta_bound": chain.im_delta_bound,
            "J_sqrtn_re": chain.J_sqrtn_re,
            "J_sqrtn_im": chain.J_sqrtn_im,
            "j_re": chain.j_re,
            "j_im": chain.j_im,
        }, indent=2))
    else:
        print(chain.summary())
    return 0


def cmd_verify(config: RunConfig) -> int:
    nodes = build_tree(config.depth)
    analysis.check_q_recursion(nodes)  # raises on failure
    values = _values_with_cache(nodes, config)
    reports = [
        analysis.check_interlacing(values, nodes),
        analysis.check_J_recursion(values, nodes),
        analysis.gg_prime_ranges(),
        analysis.coincidence_bound([node for node in nodes if node.level <= 6]),
    ]
    chain = analysis.theorem2_constants(12)
    chain_ok = abs(chain.re_delta_bound - 1.41173) < 1e-3
    for report in reports:
        print(report.to_text())
        print()
    print(f"bound chain at k0=12: |Re delta|/q <= {chain.re_delta_bound:.5f} "
          f"({'consistent' if chain_ok else 'INCONSISTENT'})")
    ok = chain_ok and all(r.passed for r in reports)
    print(f"verify: {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    """The parser, with RunConfig's defaults; each subcommand sets ``run``
    to its cmd_ function, which takes the config and its own arguments."""
    default = RunConfig()
    parser = argparse.ArgumentParser(
        prog="markovj",
        description="Cycle integrals of the j-function over the Markov tree.",
    )
    parser.add_argument("--depth", type=int, default=default.depth)
    parser.add_argument("--tol", type=float, default=default.tol,
                        help="relative bound on the quadrature estimate")
    parser.add_argument("--series-order", type=int, default=default.series_order)
    parser.add_argument("--format", dest="fmt", choices=("csv", "json"), default=default.fmt)
    parser.add_argument("--cache", default=default.cache, help="JSONL result cache path")
    parser.add_argument("--jobs", type=int, default=default.jobs)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, run, summary in (
        ("tree", cmd_tree, "list nodes, triples, and periods"),
        ("value", cmd_value, "cycle integral at one node"),
        ("table", cmd_table, "J/q and j for all nodes to depth"),
        ("interlace", cmd_interlace, "check interlacing to depth"),
        ("asymptotics", cmd_asymptotics, "growth trends of q and c"),
        ("bounds", cmd_bounds, "asymptotic bound chain"),
        ("verify", cmd_verify, "run every analysis check"),
    ):
        sub.add_parser(name, help=summary).set_defaults(run=run)
    sub.choices["value"].add_argument("target", help="fraction p/q or L/R path")
    sub.choices["bounds"].add_argument("--k0", type=int, default=12)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = vars(build_parser().parse_args(argv))
    del args["command"]
    run = args.pop("run")
    try:
        config = RunConfig(**{f.name: args.pop(f.name) for f in fields(RunConfig)})
        return run(config, **args)
    except (ValueError, TreeError, OSError, QuadratureError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
