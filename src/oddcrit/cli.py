"""Command-line front end.

Commands: analyze, extremal, check-critical, verify, sweep.  JSON is the
machine output (floats fixed at 12 significant digits, keys sorted, so equal
inputs give byte-identical reports); a short human-readable summary goes to
standard output.  Exit codes: 0 success/affirmative, 1 negative verdict,
2 usage or runtime error, an inconclusive witness-only search, or a verify or
sweep whose assertions were not all confirmed by brute force.

``main`` parses a runnable command line once, with the subcommand's own
parser, after ``_dispatch`` has found the subcommand and turned a ``--config``
file into leading flags; graph files are read as bytes and decoded as UTF-8,
and one leading byte-order mark is dropped from them and from a config file.
"""
from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import sys
from pathlib import Path

from .errors import (
    ConvergenceError,
    DisconnectedGraphError,
    GraphFormatError,
    ParameterError,
    ScaleLimitError,
)
from .factors import ENUMERATION_CAP, is_k_critical
from .graphs import (
    ExtremalParams,
    Graph,
    family,
    g_star,
    parse_graph_auto,
    parse_graph6_corpus,
    write_graph6,
)
from .spectral import (
    SPECTRAL_KINDS,
    distance_matrix,
    spectral_radius,
    wiener_gprime_closed_form,
    wiener_index,
)
from .theorems import THEOREM_IDS, counterexample_sweep, one_edge_supergraphs, report_json

VARIANTS = ("gprime", "g2", "g3", "gstar")


def _emit(text: str, out_path, human_lines) -> None:
    """Machine output to ``out_path`` (summary on stdout), or to stdout (summary on stderr)."""
    if out_path:
        Path(out_path).write_text(text)
        for line in human_lines:
            print(line)
    else:
        # machine output on stdout; keep the table out of its way
        sys.stdout.write(text)
        for line in human_lines:
            print(line, file=sys.stderr)


def _read_text(path: str) -> str:
    """A file's UTF-8 text less one leading BOM; other bytes are a format error naming the file.

    Decoded from bytes, with no newline translation (the parsers split lines
    themselves).  A name ``open`` rejects is read through ``Path``, which
    reads ``x/`` as ``x`` and spells ``./x`` as ``x`` in errors.
    """
    try:
        try:
            with open(path, "rb") as fh:
                data = fh.read()
        except OSError:
            data = Path(path).read_bytes()
        return data.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        raise GraphFormatError(f"cannot read {path}: {exc}") from None


def _load_graph(path: str) -> Graph:
    return parse_graph_auto(_read_text(path))


def _require(args, names) -> None:
    missing = [name for name in names if getattr(args, name, None) is None]
    if missing:
        flags = ", ".join("--" + name for name in missing)
        raise ParameterError(f"missing required parameters: {flags}")


def _build_variant(args) -> tuple[Graph, dict]:
    names = ("n", "b", "k")
    if args.variant != "gstar":
        names += ("delta",) if args.variant == "gprime" else ("delta", "s")
    _require(args, names)
    meta = {"variant": args.variant, **{name: getattr(args, name) for name in names}}
    if args.variant == "gstar":
        return g_star(args.n, args.b, args.k), meta
    params = ExtremalParams(args.n, args.b, args.k, args.delta, args.s)
    return family(*params.layout(args.variant)), meta


def cmd_analyze(args) -> int:
    g = _load_graph(args.input)
    kind = args.matrix
    report = {
        "input": args.input,
        "n": g.n,
        "edges": g.edge_count(),
        "min_degree": g.min_degree(),
        "connectivity": g.vertex_connectivity() if g.n >= 2 else 0,
        "matrix": kind,
    }
    if g.is_connected():
        d = distance_matrix(g)
        tr = d.sum(axis=1)
        report["wiener_index"] = int(tr.sum()) // 2
        report["transmission_min"] = int(tr.min())
        report["transmission_max"] = int(tr.max())
    report["spectral_radius"] = spectral_radius(g, kind)
    lines = [
        f"n={report['n']} e={report['edges']} min_degree={report['min_degree']} "
        f"connectivity={report['connectivity']}",
    ]
    if "wiener_index" in report:
        lines.append(
            f"wiener={report['wiener_index']} transmissions in "
            f"[{report['transmission_min']}, {report['transmission_max']}]"
        )
    lines.append(f"{kind} spectral radius = {format(report['spectral_radius'], '.12g')}")
    _emit(report_json(report), args.out, lines)
    return 0


def cmd_extremal(args) -> int:
    g, meta = _build_variant(args)
    text = write_graph6(g)
    if args.graph_out:
        Path(args.graph_out).write_text(text + "\n")
    summary = dict(meta)
    summary["graph6"] = text
    summary["edges"] = g.edge_count()
    summary["min_degree"] = g.min_degree()
    summary["wiener_index"] = wiener_index(g)
    summary["distance_radius"] = spectral_radius(g, "distance")
    summary["distance_signless_laplacian_radius"] = spectral_radius(
        g, "distance_signless_laplacian"
    )
    if args.variant == "gprime":
        summary["wiener_closed_form"] = wiener_gprime_closed_form(
            ExtremalParams(args.n, args.b, args.k, args.delta)
        )
    lines = [
        f"{meta['variant']}: n={g.n} e={summary['edges']} min_degree={summary['min_degree']}",
        f"W={summary['wiener_index']}"
        + (
            f" (closed form {summary['wiener_closed_form']})"
            if "wiener_closed_form" in summary
            else ""
        ),
        f"mu1={format(summary['distance_radius'], '.12g')} "
        f"eta1={format(summary['distance_signless_laplacian_radius'], '.12g')}",
        f"graph6: {text}",
    ]
    _emit(report_json(summary), args.out, lines)
    return 0


def cmd_check_critical(args) -> int:
    g = _load_graph(args.input)
    payload = {"input": args.input, "b": args.b, "k": args.k, "mode": args.mode}
    cap, max_size = args.cap, None
    if args.mode == "witness-only":
        # the search starts at |S| = k, so the default reaches at least that far
        max_size = args.max_size if args.max_size is not None else min(g.n - 1, max(4, args.k))
        cap = max(args.cap, g.n)
        payload["max_size"] = max_size
    verdict = is_k_critical(g, args.b, args.k, cap=cap, max_size=max_size)
    witness = sorted(verdict.witness) if verdict.witness is not None else None
    if args.mode == "exact":
        line = f"critical={verdict.critical} subsets_examined={verdict.subsets_examined}" + (
            f" witness={witness}" if witness is not None else ""
        )
    elif witness is None:
        line = f"no witness up to size {max_size}; verdict inconclusive"
    else:
        # the scan stops counting once o(G-S) passes the bound: recount exactly
        odd = g.odd_components_after_removal(witness)
        bound = args.b * (len(witness) - args.k)
        payload.update({"odd_components": odd, "bound": bound})
        line = f"not critical: witness {witness} gives o={odd} > {bound}"
    payload.update(
        {
            "critical": verdict.critical,
            "witness": witness,
            "subsets_examined": verdict.subsets_examined,
        }
    )
    _emit(report_json(payload), args.out, [line])
    return {True: 0, False: 1, None: 2}[verdict.critical]


def _corpus_from_args(args) -> list[tuple[str, Graph]]:
    if args.input:
        graphs = parse_graph6_corpus(_read_text(args.input))
        return [(f"{args.input}:{i}", g) for i, g in enumerate(graphs)]
    g, meta = _build_variant(args)
    return [(meta["variant"], g)]


def cmd_verify(args) -> int:
    return _sweep(args, _corpus_from_args(args), per_graph=True)


def cmd_sweep(args) -> int:
    base, meta = _build_variant(args)
    corpus = [(meta["variant"], base)] if args.include_base else []
    corpus += [(f"{meta['variant']}{tag}", g) for tag, g in one_edge_supergraphs(base)]
    return _sweep(args, corpus, per_graph=False)


def _sweep(args, corpus, *, per_graph: bool) -> int:
    """Run ``args.theorem`` over ``corpus`` and emit the report (verify and sweep).

    ``per_graph`` adds one summary line per record ahead of the totals.  Exit
    code 1 on a falsification, else 2 if some assertion went unconfirmed
    (above the enumeration cap), else 0.
    """
    report = counterexample_sweep(corpus, args.b, args.k, args.delta, args.theorem, cap=args.cap)
    lines = []
    if per_graph:
        lines = [
            f"{r['graph_id']}: {r['conclusion']}"
            + (
                f" brute_force={r['brute_force_verdict']}"
                if r["brute_force_verdict"] is not None
                else ""
            )
            for r in report.records
        ]
    lines.append(
        f"theorem {args.theorem}: {'' if per_graph else 'swept '}"
        f"{len(report.records)} graphs, {len(report.falsifications)} falsifications, "
        f"{len(report.unconfirmed)} unconfirmed"
    )
    text = _csv(report) if args.format == "csv" else report.to_json()
    _emit(text, args.out, lines)
    if report.falsifications:
        return 1
    # an assertion nobody could check is not a success
    return 2 if report.unconfirmed else 0


def _csv(report) -> str:
    out = io.StringIO()
    out.write("graph_id,theorem_id,conclusion,condition_lhs,condition_rhs,brute_force,witness\n")
    writer = csv.writer(out, lineterminator="\n")
    for r in report.records:
        witness = r.get("witness")
        writer.writerow([
            r["graph_id"], r["theorem_id"], r["conclusion"],
            format(r["condition_lhs"], ".12g"), format(r["condition_rhs"], ".12g"),
            str(r.get("brute_force_verdict")), ";".join(map(str, witness)) if witness else "",
        ])
    return out.getvalue()


def _add_params(p):
    p.add_argument("--n", type=int, help="graph order")
    p.add_argument("--b", type=int, help="odd factor bound")
    p.add_argument("--k", type=int, help="criticality order")
    p.add_argument("--delta", type=int, help="minimum-degree parameter")
    p.add_argument("--s", type=int, help="separator size (g2/g3 variants)")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The top-level parser, built on first use and then shared.

    ``main`` hands a runnable command line to the subcommand's parser alone
    (see ``_dispatch``).  This parser serves help and usage errors: it prints
    ``oddcrit -h``, rejects leftover tokens, and takes the lines that
    ``_dispatch`` does not hand over.  Each parse returns a fresh namespace,
    so nothing carries over between calls of ``main``.
    """
    # the module docstring's last paragraph is about the code, not for -h
    top = argparse.ArgumentParser(prog="oddcrit", description=__doc__.rsplit("\n\n", 1)[0])
    top.add_argument("--config", help="JSON file of default flag values (flags win)")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="graph invariants and one spectral radius")
    p.add_argument("--input", required=True, help="graph file (graph6 or edge list)")
    p.add_argument("--matrix", choices=SPECTRAL_KINDS, default="distance",
                   help="matrix whose spectral radius to report (default %(default)s)")
    p.add_argument("--out", help="write the JSON report here")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("extremal", help="construct an extremal family member")
    _add_params(p)
    p.add_argument("--variant", choices=VARIANTS, default="gprime",
                   help="family to build: G', its g2 or g3 variant, or G* (default %(default)s)")
    p.add_argument("--graph-out", help="write the graph6 encoding here")
    p.add_argument("--out", help="write the JSON summary here")
    p.set_defaults(func=cmd_extremal)

    p = sub.add_parser("check-critical", help="odd-factor criticality of a graph")
    p.add_argument("--input", required=True, help="graph file (graph6 or edge list)")
    p.add_argument("--b", type=int, required=True, help="odd factor bound")
    p.add_argument("--k", type=int, required=True, help="criticality order")
    p.add_argument("--mode", choices=("exact", "witness-only"), default="exact",
                   help="exact: decide criticality; witness-only: search small S for a witness")
    p.add_argument(
        "--cap", type=int, default=ENUMERATION_CAP,
        help="exact: largest graph order to enumerate (default %(default)s); "
        "witness-only ignores it",
    )
    p.add_argument(
        "--max-size", type=int, help="witness-only: largest |S| to try, >= k (default max(4, k))"
    )
    p.add_argument("--out", help="write the JSON verdict here")
    p.set_defaults(func=cmd_check_critical)

    # the flags verify and sweep share: both run one theorem over a corpus
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--theorem", choices=THEOREM_IDS, required=True,
                        help="the theorem whose hypotheses and condition to check")
    shared.add_argument("--variant", choices=VARIANTS, default="gprime",
                        help="family built from the parameters (default %(default)s)")
    shared.add_argument("--cap", type=int, default=ENUMERATION_CAP,
                        help="largest graph order to confirm by brute force (default %(default)s)")
    shared.add_argument("--format", choices=("json", "csv"), default="json",
                        help="report format (default %(default)s)")
    shared.add_argument("--out", help="write the JSON or CSV report here")

    p = sub.add_parser("verify", parents=[shared], help="evaluate one theorem over a corpus")
    _add_params(p)
    p.add_argument("--input", help="corpus file: one graph6 per line")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("sweep", parents=[shared], help="theorem sweep over one-edge supergraphs")
    _add_params(p)
    p.add_argument("--include-base", action="store_true", help="also evaluate the base graph")
    p.set_defaults(func=cmd_sweep)
    return top


def _dispatch(parser, argv: list[str]) -> tuple[argparse.ArgumentParser, list[str]]:
    """The parser that reads ``argv``, and the tokens it reads.

    When the subcommand name comes first, or after ``--config FILE`` and
    ``--config=FILE`` tokens alone, its own parser reads the tokens after the
    name in one pass.  Every other line (no or an unknown subcommand, ``-h``
    or any other token ahead of it) goes whole to the top parser, which
    prints the help or the usage error, or parses it in two passes; so does
    a line with an abbreviated ``--config`` (``--conf FILE``), whose value
    is never taken for the subcommand, even when it is named like one.
    Each key of the ``--config`` file that the subcommand defines becomes a
    leading ``--flag=value`` token, so argparse converts and checks it
    exactly like the flag itself, and the user's own flags, which come
    later, win.  Other keys are ignored.
    """
    commands = next(
        a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
    ).choices
    at = 0
    only_config = True
    while at < len(argv) and argv[at] not in commands:
        token = argv[at]
        only_config = only_config and (token == "--config" or token.startswith("--config="))
        # --config, or an abbreviation of it, takes the next token as its value
        at += 2 if len(token) > 2 and "--config".startswith(token) else 1
    if at >= len(argv):
        return parser, argv
    sub = commands[argv[at]]
    tokens = []
    path = None
    if at:
        top = argparse.ArgumentParser(prog=parser.prog, add_help=False)
        top.add_argument("--config")
        path = top.parse_known_args(argv[:at])[0].config
    if path is not None:
        try:
            config = json.loads(Path(path).read_text(encoding="utf-8-sig"))
        except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
            parser.error(f"cannot read config {path}: {exc}")
        if not isinstance(config, dict):
            parser.error(f"config {path} must hold a JSON object")
        values = {key.replace("-", "_"): value for key, value in config.items()}
        for action in sub._actions:
            value = values.get(action.dest)
            if not action.option_strings or action.dest == "help" or value is None:
                continue
            flag = action.option_strings[-1]
            if action.nargs != 0:
                tokens.append(f"{flag}={value}")
            elif value is True:
                tokens.append(flag)
            elif value is not False:
                parser.error(f"config {path}: {action.dest} must be true or false")
    tokens += argv[at + 1 :]
    # the top parser reads "--=x" anywhere as an ambiguous --config or --help
    if only_config and not any(t.startswith("--=") for t in tokens):
        return sub, tokens
    return parser, argv[: at + 1] + tokens


def main(argv=None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    reader, tokens = _dispatch(parser, argv)
    args, extras = reader.parse_known_args(tokens)
    if extras:
        # the words and the usage line of the top parser's own parse_args
        parser.error(f"unrecognized arguments: {' '.join(extras)}")
    try:
        return args.func(args)
    except (
        ParameterError,
        GraphFormatError,
        DisconnectedGraphError,
        ScaleLimitError,
        ConvergenceError,
        OSError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
