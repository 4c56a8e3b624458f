"""Command-line interface.

Subcommands: tree, value, table, interlace, asymptotics, bounds,
verify.  Numbers are printed with 12 significant digits; rows come in
the order of p/q, the published layout of the table.  Every command that
prints values reads them from a JSON-lines cache (--cache) at any --tol
their bounds meet, so warm reruns are byte-identical without integrating.
The numeric layers (integrals, analysis) are imported by the commands
that need them, so ``tree`` runs without them.  numpy is imported only
where values are computed, so ``asymptotics``, ``bounds``, and the value
commands on a cache that holds every value, run without it.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import TYPE_CHECKING, NoReturn

from .tree import TreeError, TreeNode, build_tree, find_fraction, node_at, period_texts

if TYPE_CHECKING:
    from collections.abc import Iterable, Sequence

    from .analysis import Report
    from .integrals import CycleValue

CSV_HEADER = [
    "path", "level", "p", "q", "c",
    "Jq_re", "Jq_im", "j_re", "j_im", "log_eps", "quad_err",
]


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _value_row(value: CycleValue) -> tuple[str, ...]:
    """The CSV_HEADER fields of one value."""
    node = value.node
    Jq = value.J_over_q
    return (node.path, str(node.level), str(node.p), str(node.q), str(node.c),
            _fmt(Jq.real), _fmt(Jq.imag), _fmt(value.j.real), _fmt(value.j.imag),
            _fmt(value.log_eps), _fmt(value.quad_error))


def _values_with_cache(nodes: list[TreeNode], args: argparse.Namespace) -> dict[str, CycleValue]:
    """The values of the nodes by path, for every command that prints them.

    A node's cached record is served if it matches the node and its bound
    meets --tol (integrals.cached_value); the other nodes are computed,
    and only then is the cache rewritten, in path order: the run's values
    and, as read, every record of a path outside the run.  A cache that
    could not be written is refused before any value is computed.
    """
    from . import integrals

    cached = integrals.cache_index(args.cache) if args.cache else {}
    values: dict[str, CycleValue] = {}
    missing: list[TreeNode] = []
    for node in nodes:
        value = integrals.cached_value(cached.get(node.path), node, args.tol)
        if value is None:
            missing.append(node)
        else:
            values[node.path] = value
    if missing:
        if args.cache:
            integrals.check_cache_writable(args.cache)
        values.update(integrals.compute_values(missing, tol=args.tol))
        if args.cache:
            integrals.write_cache((integrals.cache_record(values[p]) if p in values else cached[p]
                                   for p in sorted({*cached, *values})), args.cache)
    return values


def _write_rows(header: Sequence[str], rows: Iterable[Sequence[str]], fmt: str) -> None:
    """Write each row as it arrives: as json.dump(rows as dicts, indent=2)
    would, with a final newline, or as a CSV line under a header line,
    turned into text once and quoted as csv.writer quotes it.  Fields are
    numbers, L/R paths and period texts, which hold no quote and no line
    break, so a field is quoted exactly when it holds a comma."""
    write = sys.stdout.write
    if fmt == "json":
        lead = "[\n  "
        for row in rows:
            write(lead + json.dumps(dict(zip(header, row)), indent=2).replace("\n", "\n  "))
            lead = ",\n  "
        write("[]\n" if lead == "[\n  " else "\n]\n")
    else:
        write(",".join(header) + "\n")
        for row in rows:
            write(",".join([f'"{f}"' if "," in f else f for f in row]) + "\n")


def cmd_tree(args: argparse.Namespace) -> int:
    nodes = build_tree(args.depth)
    rows = ((node.path, str(node.level), str(node.p), str(node.q), str(node.c), text)
            for node, text in zip(nodes, period_texts(nodes)))
    _write_rows(["path", "level", "p", "q", "c", "period"], rows, args.fmt)
    return 0


def _resolve_target(target: str) -> TreeNode:
    p, slash, q = target.partition("/")
    if slash:
        try:
            p, q = int(p), int(q)
        except ValueError:
            pass
        else:
            return find_fraction(p, q)
    elif target in ("", "root") or set(target) <= {"L", "R"}:
        return node_at("" if target == "root" else target)
    raise TreeError(f"cannot interpret {target!r} as p/q or an L/R path")


def cmd_value(args: argparse.Namespace) -> int:
    node = _resolve_target(args.target)
    value = _values_with_cache([node], args)[node.path]
    if args.fmt == "json":
        print(json.dumps(dict(zip(CSV_HEADER, _value_row(value))), indent=2))
    else:
        Jq, jv = value.J_over_q, value.j
        print(f"node      {node.p}/{node.q}  (path {node.path!r}, level {node.level})")
        print(f"c         {node.c}")
        print(f"period    {next(period_texts([node]))}")
        print(f"J/q       {_fmt(Jq.real)} {'+' if Jq.imag >= 0 else '-'} {_fmt(abs(Jq.imag))}i")
        print(f"j         {_fmt(jv.real)} {'+' if jv.imag >= 0 else '-'} {_fmt(abs(jv.imag))}i")
        print(f"log eps   {_fmt(value.log_eps)}")
        print(f"quad err  {_fmt(value.quad_error)}")
    return 0


def cmd_table(args: argparse.Namespace) -> int:
    nodes = build_tree(args.depth)
    values = _values_with_cache(nodes, args)
    _write_rows(CSV_HEADER, (_value_row(values[n.path]) for n in nodes), args.fmt)
    return 0


def _print_report(report: Report, fmt: str) -> int:
    print(report.to_json() if fmt == "json" else report.to_text())
    return 0 if report.passed else 1


def cmd_interlace(args: argparse.Namespace) -> int:
    from . import analysis

    nodes = build_tree(args.depth)
    values = _values_with_cache(nodes, args)
    return _print_report(analysis.check_interlacing(values, nodes), args.fmt)


def cmd_asymptotics(args: argparse.Namespace) -> int:
    from . import analysis

    return _print_report(analysis.asymptotics_report(args.depth), args.fmt)


def cmd_bounds(args: argparse.Namespace) -> int:
    from . import analysis

    chain = analysis.theorem2_constants(analysis.CHAIN_K0 if args.k0 is None else args.k0)
    if args.fmt == "json":
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


def cmd_verify(args: argparse.Namespace) -> int:
    from . import analysis

    nodes = build_tree(args.depth)
    reports = [analysis.check_q_recursion(nodes)]  # raises on failure, before any value
    values = _values_with_cache(nodes, args)
    reports += [
        analysis.check_interlacing(values, nodes),
        analysis.check_J_recursion(values, nodes),
        analysis.gg_prime_ranges(),
        # Levels <= 9 would take about 155 ms against 3-5 ms, more than a warm depth-9 verify.
        analysis.coincidence_bound([node for node in nodes if node.level <= 6]),
    ]
    chain = analysis.theorem2_constants(analysis.CHAIN_K0)
    chain_ok = abs(chain.re_delta_bound - 1.41173) < 1e-3
    ok = chain_ok and all(r.passed for r in reports)
    if args.fmt == "json":
        print(json.dumps({
            "reports": [report.to_dict() for report in reports],
            "bound_chain": {"k0": chain.k0, "re_delta_bound": chain.re_delta_bound,
                            "consistent": chain_ok},
            "passed": ok,
        }, indent=2))
    else:
        for report in reports:
            print(report.to_text())
            print()
        print(f"bound chain at k0={chain.k0}: |Re delta|/q <= {chain.re_delta_bound:.5f} "
              f"({'consistent' if chain_ok else 'INCONSISTENT'})")
        print(f"verify: {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose refusals are one line on stderr, exit 2.
    add_subparsers builds the subcommands' parsers of the same class."""

    def error(self, message: str) -> NoReturn:
        self.exit(2, f"error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    """The parser.  Each subcommand sets ``run`` to its cmd_ function,
    which takes the parsed arguments; main checks --depth, --tol and
    --jobs before it calls it."""
    parser = _Parser(
        prog="markovj",
        description="Cycle integrals of the j-function over the Markov tree.",
    )
    parser.add_argument("--depth", type=int, default=5)
    parser.add_argument("--tol", type=float, default=1e-10,
                        help="largest proved quadrature error bound admitted, "
                             "relative to |J|")
    parser.add_argument("--format", dest="fmt", choices=("csv", "json"), default="csv")
    parser.add_argument("--cache", help="JSONL result cache path")
    # Values are computed in one process; --jobs stays, unlisted, for
    # command lines that pass --jobs 1, and main refuses any other value.
    parser.add_argument("--jobs", type=int, default=1, help=argparse.SUPPRESS)
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
    # Unset means analysis.CHAIN_K0, read when the command runs.
    sub.choices["bounds"].add_argument("--k0", type=int)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    # Admitted nodes have Markov numbers of up to about 4 600 digits, past
    # the 4 300 to which Python (3.11, and 3.10 from 3.10.7) limits the
    # conversion of an int to text by default.
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        if args.jobs != 1:
            raise ValueError("jobs must be 1: values are computed in one process")
        if args.depth < 1:
            raise ValueError("depth must be >= 1")
        if not 0.0 < args.tol <= 1e-4:
            raise ValueError("tol must be in (0, 1e-4]")
        # A FIFO or a device would block the read or be replaced by the write.
        if args.cache and os.path.exists(args.cache) and not os.path.isfile(args.cache):
            raise ValueError(f"cache {args.cache!r} is not a regular file")
        code = args.run(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader stopped (`| head`); the unwritten rest goes to devnull, not to stderr.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    sys.exit(main())
