"""Command line front end.

Subcommands: `gen` writes a point set file, `analyze` runs the full
graph analysis, `mann` enumerates and certifies vanishing sums, `paths`
reports irredundant path statistics, and `report` re-renders a stored
analysis as CSV.  Exit code 0 means success with every applicable
ceiling holding, 1 means some checked ceiling failed, and 2 flags a
usage or validation error.

A command line that opens with a command name (for `gen`, a command and
a construction name) is read by that command's parser alone; any other
command line, or one that leaves words over, is read by the parser of
every subcommand, whose help texts and errors it therefore prints.
"""

from __future__ import annotations

import argparse
import sys

from . import distgraph, mann, pointsets, serialize

EXIT_OK = 0
EXIT_CEILING = 1
EXIT_USAGE = 2


def _parse_coeffs(text: str) -> tuple:
    parts = tuple(serialize.str_to_fraction(p.strip()) for p in text.split(",") if p.strip())
    if not parts:
        raise ValueError("coefficient list is empty")
    return parts


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_gen(args: argparse.Namespace) -> int:
    if args.construction == "erdos-purdy":
        ps = pointsets.erdos_purdy(args.levels)
        default_out = f"erdos_purdy_L{args.levels}.json"
    elif args.construction == "grid":
        ps = pointsets.square_grid(args.rows, args.cols, serialize.str_to_fraction(args.spacing))
        default_out = f"grid_{args.rows}x{args.cols}.json"
    else:  # "lines", the last construction the parser admits
        ps = pointsets.parallel_lines(args.lines, args.per_line, args.seed)
        default_out = f"lines_{args.lines}x{args.per_line}_s{args.seed}.json"
    out = args.out or default_out
    serialize.save_pointset(out, ps)
    print(
        f"pointset {ps.provenance['name']}: n={len(ps)} conductor={ps.conductor} "
        f"seed={ps.seed} -> {out}"
    )
    return EXIT_OK


def cmd_analyze(args: argparse.Namespace) -> int:
    ps = serialize.load_pointset(args.input_path)
    report = distgraph.analyze(ps, args.mode, args.k)
    if args.out:
        serialize.save_report(args.out, report)
    if args.csv:
        with open(args.csv, "w", encoding="utf-8") as fh:
            fh.write(serialize.report_csv_text([report]))
    excess = "none" if report.excess_exponent is None else f"{report.excess_exponent:.4f}"
    print(
        f"n={report.n} mode={report.mode} k={report.k} edges={report.edge_count} "
        f"max_collinear={report.max_collinear} excess={excess}"
    )
    print(
        f"peeled: n={report.peeled_n} edges={report.peeled_edge_count} "
        f"min_degree={report.peeled_min_degree} threshold={report.peel_threshold}"
    )
    print(
        f"paths k={report.k}: pair_max={report.path_pair_max} "
        f"source_min={report.path_source_min} "
        f"two_path_noncollinear_max={report.two_path_noncollinear_max}"
    )
    for name, entry in report.ceilings.items():
        if not entry["applicable"]:
            print(f"ceiling {name}: not applicable")
        else:
            print(f"ceiling {name}: {'holds' if entry['holds'] else 'FAILED'}")
    return EXIT_OK if report.all_ceilings_hold else EXIT_CEILING


def cmd_mann(args: argparse.Namespace) -> int:
    coeffs = _parse_coeffs(args.coeffs)
    # the scan is charged before any work, so a refused scan fails fast
    scan = mann.charge_target_scan(args.k, args.modulus, coeffs, args.budget) if args.target_scan else None
    relations = mann.enumerate_minimal_vanishing_sums(
        args.k, args.modulus, coeffs, budget=args.budget
    )
    bad = [cert for cert in map(mann.certify_mann, relations) if not cert.verdict]
    print(
        f"k={args.k} modulus={args.modulus} coeffs={','.join(str(c) for c in coeffs)}: "
        f"{len(relations)} minimal vanishing sums, "
        f"{len(relations) - len(bad)} certified at ratio order {mann.mann_modulus(args.k)}"
    )
    for cert in bad:
        print(f"  FAILED certification: witness pair {cert.witness}")
    if args.out:
        serialize.save_relations(args.out, relations)
        print(f"relations -> {args.out}")
    ok = not bad
    if scan:
        worst, worst_target, total = scan()
        bound = mann.relation_count_bound(args.k)
        print(
            f"target scan: {total} two-term targets, census max {worst} "
            f"(bound {bound}) at target {worst_target}"
        )
        if worst > bound:
            ok = False
    return EXIT_OK if ok else EXIT_CEILING


def cmd_paths(args: argparse.Namespace) -> int:
    ps = serialize.load_pointset(args.input_path)
    g = distgraph.build_graph(ps, args.mode)
    pair_max, pair_min, source_totals = distgraph.path_stats(
        g, args.k, shortest_only=args.shortest, vertex_scope=args.scope
    )
    source_min = min(source_totals)
    max_col, _ = distgraph.max_points_on_line(ps)
    delta = g.min_degree()
    bound = mann.relation_count_bound(args.k)
    floor = distgraph.paths_lower_bound(delta, args.k)
    rel_applicable = distgraph.relation_count_applies(args.mode, max_col)
    rel_holds = pair_max <= bound if rel_applicable else None
    # the continuation floor is pure subset-sum counting, so it always applies,
    # but only to plain irredundant enumeration (shortness prunes further)
    cont_applicable = not args.shortest
    cont_holds = source_min >= floor if cont_applicable else None
    print(
        f"n={g.n} mode={args.mode} k={args.k} shortest={args.shortest} scope={args.scope} "
        f"min_degree={delta} max_collinear={max_col}"
    )
    print(
        f"pair_max={pair_max} pair_min={pair_min} source_min={source_min} "
        f"bound={bound} floor={floor}"
    )
    if rel_applicable:
        print(f"ceiling relation_count: {'holds' if rel_holds else 'FAILED'}")
    else:
        print("ceiling relation_count: not applicable")
    if cont_applicable:
        print(f"floor continuation: {'holds' if cont_holds else 'FAILED'}")
    else:
        print("floor continuation: not applicable (shortest-only pruning)")
    if args.out:
        serialize.save_json(
            args.out,
            {
                "format_version": serialize.FORMAT_VERSION,
                "kind": "path_stats",
                "n": g.n,
                "mode": args.mode,
                "k": args.k,
                "shortest": args.shortest,
                "scope": args.scope,
                "min_degree": delta,
                "max_collinear": max_col,
                "source_totals": source_totals,
                "pair_max": pair_max,
                "pair_min": pair_min,
                "bounds": {"relation_count": bound, "continuation": floor},
            },
        )
        print(f"path stats -> {args.out}")
    failed = (rel_applicable and not rel_holds) or (cont_applicable and not cont_holds)
    return EXIT_CEILING if failed else EXIT_OK


def cmd_report(args: argparse.Namespace) -> int:
    report = serialize.load_report(args.input_path)
    text = serialize.report_csv_text([report])
    if args.csv:
        with open(args.csv, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"csv -> {args.csv}")
    else:
        sys.stdout.write(text)
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _add_erdos_purdy(p):
    p.add_argument("--levels", type=int, default=3)
    p.add_argument("--out", default=None)


def _add_grid(p):
    p.add_argument("--rows", type=int, default=3)
    p.add_argument("--cols", type=int, default=3)
    p.add_argument("--spacing", default="1", help="rational spacing, e.g. 1 or 1/2")
    p.add_argument("--out", default=None)


def _add_lines(p):
    p.add_argument("--lines", type=int, default=3)
    p.add_argument("--per-line", type=int, default=3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)


# construction -> (help, argument adder), in the order `gen --help` lists them
_CONSTRUCTIONS = {
    "erdos-purdy": ("translation doubling of {0, 1}", _add_erdos_purdy),
    "grid": ("axis-aligned square grid", _add_grid),
    "lines": ("points spread over parallel horizontal lines", _add_lines),
}


def _add_gen(p):
    _add_subcommands(p, "construction", _CONSTRUCTIONS)


def _add_analyze(p):
    p.add_argument("--in", dest="input_path", required=True)
    p.add_argument("--mode", choices=distgraph.MODES, default="rational")
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--out", default=None, help="report JSON path")
    p.add_argument("--csv", default=None, help="report CSV path")


def _add_mann(p):
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--modulus", type=int, required=True)
    p.add_argument("--coeffs", default="1", help="comma separated rationals")
    p.add_argument("--budget", type=int, default=mann.WORK_BUDGET)
    p.add_argument("--out", default=None, help="relation list JSON path")
    p.add_argument(
        "--target-scan",
        action="store_true",
        help="also sweep two-term targets and report the census maximum",
    )


def _add_paths(p):
    p.add_argument("--in", dest="input_path", required=True)
    p.add_argument("--mode", choices=distgraph.MODES, default="rational")
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--shortest", action="store_true")
    p.add_argument("--scope", choices=("all", "neighbors"), default="all")
    p.add_argument("--out", default=None, help="path statistics JSON path")


def _add_report(p):
    p.add_argument("--in", dest="input_path", required=True)
    p.add_argument("--csv", default=None, help="CSV output path")


# command -> (help, argument adder, handler), in the order `--help` lists them
_COMMANDS = {
    "gen": ("generate a point set file", _add_gen, cmd_gen),
    "analyze": ("full graph analysis of a point set file", _add_analyze, cmd_analyze),
    "mann": ("enumerate and certify minimal vanishing sums", _add_mann, cmd_mann),
    "paths": ("irredundant path statistics of a point set file", _add_paths, cmd_paths),
    "report": ("render a stored analysis report as CSV", _add_report, cmd_report),
}


def _add_subcommands(parser, dest, table):
    """Register every entry of `table` as a subcommand of parser, with its
    help and arguments."""
    sub = parser.add_subparsers(dest=dest, required=True)
    for name, (help_text, add, *_) in table.items():
        add(sub.add_parser(name, help=help_text))


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="cyclolab",
        description="rational-angle point sets, vanishing sums, and path ceilings",
    )
    _add_subcommands(top, "command", _COMMANDS)
    return top


def _parse_args(argv) -> argparse.Namespace:
    """argv parsed as `_build_parser()` parses it, building only the parser
    of the command argv opens with (for `gen`, of the construction it names).

    That is the subparser the whole parser would run: neither the top
    parser nor `gen` has an option that takes a value, so the first word
    names the subcommand and every later word goes to it.  Only the whole
    parser reports words left over, so it parses any argv that opens with
    no command or leaves words over, and every help text, error line and
    exit code is its own.
    """
    table, names = _COMMANDS, argv[:1]
    if names == ["gen"]:
        table, names = _CONSTRUCTIONS, argv[:2]
    entry = table.get(names[-1]) if names else None
    if entry is not None:
        parser = argparse.ArgumentParser(prog=" ".join(["cyclolab", *names]))
        entry[1](parser)
        known = argparse.Namespace(**dict(zip(("command", "construction"), names)))
        args, rest = parser.parse_known_args(argv[len(names) :], known)
        if not rest:
            return args
    return _build_parser().parse_args(argv)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _parse_args(argv)
    try:
        return _COMMANDS[args.command][2](args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
