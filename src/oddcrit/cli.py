"""Command-line front end.

Commands: analyze, extremal, check-critical, verify, sweep.  JSON is the
machine output (floats fixed at 12 significant digits, keys sorted, so equal
inputs give byte-identical reports); a short human-readable summary goes to
standard output.  Exit codes: 0 success/affirmative, 1 negative verdict,
2 usage or runtime error.
"""
from __future__ import annotations

import argparse
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
from .factors import ENUMERATION_CAP, is_k_critical, _find_violation, FactorSpec
from .graphs import (
    ExtremalParams,
    Graph,
    extremal_gprime,
    g_star,
    parse_graph_auto,
    parse_graph6_corpus,
    proof_graph_g2,
    proof_graph_g3,
    write_graph6,
)
from .spectral import (
    SPECTRAL_KINDS,
    spectral_radius,
    transmissions,
    wiener_gprime_closed_form,
    wiener_index,
)
from .theorems import THEOREM_IDS, counterexample_sweep, one_edge_supergraphs
from .tolerances import DEFAULT_TOLERANCES, Tolerances

VARIANTS = ("gprime", "g2", "g3", "gstar")


def _emit_json(payload: dict, out_path, human_lines) -> None:
    text = json.dumps(_round12(payload), indent=2, sort_keys=True) + "\n"
    if out_path:
        Path(out_path).write_text(text)
        for line in human_lines:
            print(line)
    else:
        # machine output on stdout; keep the table out of its way
        sys.stdout.write(text)
        for line in human_lines:
            print(line, file=sys.stderr)


def _round12(obj):
    if isinstance(obj, float):
        return float(format(obj, ".12g"))
    if isinstance(obj, dict):
        return {k: _round12(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round12(v) for v in obj]
    return obj


def _load_graph(path: str) -> Graph:
    return parse_graph_auto(Path(path).read_text())


def _require(args, names) -> None:
    missing = [name for name in names if getattr(args, name, None) is None]
    if missing:
        flags = ", ".join("--" + name for name in missing)
        raise ParameterError(f"missing required parameters: {flags}")


def _build_variant(args) -> tuple[Graph, dict]:
    if args.variant == "gstar":
        _require(args, ("n", "b", "k"))
        g = g_star(args.n, args.b, args.k)
        meta = {"variant": "gstar", "n": args.n, "b": args.b, "k": args.k}
        return g, meta
    _require(args, ("n", "b", "k", "delta"))
    if args.variant in ("g2", "g3"):
        _require(args, ("s",))
    params = ExtremalParams(args.n, args.b, args.k, args.delta, args.s)
    builder = {"gprime": extremal_gprime, "g2": proof_graph_g2, "g3": proof_graph_g3}[
        args.variant
    ]
    g = builder(params)
    meta = {
        "variant": args.variant,
        "n": args.n,
        "b": args.b,
        "k": args.k,
        "delta": args.delta,
    }
    if args.variant != "gprime":
        meta["s"] = args.s
    return g, meta


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
        tr = transmissions(g)
        report["wiener_index"] = wiener_index(g)
        report["transmission_min"] = int(tr.min())
        report["transmission_max"] = int(tr.max())
    elif kind in ("distance", "distance_signless_laplacian"):
        raise DisconnectedGraphError("distance undefined: graph is disconnected")
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
    _emit_json(report, args.out, lines)
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
    _emit_json(summary, args.out, lines)
    return 0


def cmd_check_critical(args) -> int:
    g = _load_graph(args.input)
    spec = FactorSpec(args.b, args.k)
    if args.mode == "exact":
        verdict = is_k_critical(g, spec, cap=args.cap)
        payload = {
            "input": args.input,
            "b": args.b,
            "k": args.k,
            "mode": "exact",
            "critical": verdict.critical,
            "witness": sorted(verdict.witness) if verdict.witness else None,
            "subsets_examined": verdict.subsets_examined,
        }
        lines = [
            f"critical={verdict.critical} subsets_examined={verdict.subsets_examined}"
            + (f" witness={sorted(verdict.witness)}" if verdict.witness else "")
        ]
        _emit_json(payload, args.out, lines)
        return 0 if verdict.critical else 1
    # witness-only: search small separators, never certify criticality
    max_size = args.max_size if args.max_size is not None else min(g.n - 1, 4)
    mask, odd, bound, examined = _find_violation(
        g,
        spec.values_for(g.n),
        args.k,
        cap=max(args.cap, g.n),
        skip_settled_sizes=True,
        max_size=max_size,
    )
    payload = {
        "input": args.input,
        "b": args.b,
        "k": args.k,
        "mode": "witness-only",
        "max_size": max_size,
        "subsets_examined": examined,
    }
    if mask is not None:
        witness = sorted(i for i in range(g.n) if mask >> i & 1)
        payload.update({"critical": False, "witness": witness, "odd_components": odd, "bound": bound})
        _emit_json(payload, args.out, [f"not critical: witness {witness} gives o={odd} > {bound}"])
        return 1
    payload.update({"critical": None, "witness": None})
    _emit_json(
        payload, args.out, [f"no witness up to size {max_size}; verdict inconclusive"]
    )
    return 2


def _corpus_from_args(args) -> list[tuple[str, Graph]]:
    if args.input:
        graphs = parse_graph6_corpus(Path(args.input).read_text())
        return [(f"{args.input}:{i}", g) for i, g in enumerate(graphs)]
    g, meta = _build_variant(args)
    return [(meta["variant"], g)]


def cmd_verify(args) -> int:
    corpus = _corpus_from_args(args)
    tol = (
        Tolerances.scaled(args.tolerance)
        if args.tolerance is not None
        else DEFAULT_TOLERANCES
    )
    report = counterexample_sweep(
        corpus, args.b, args.k, args.delta, args.theorem, cap=args.cap, tol=tol
    )
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
        f"theorem {args.theorem}: {len(report.records)} graphs, "
        f"{len(report.falsifications)} falsifications"
    )
    if args.format == "csv":
        _emit_csv(report, args.out, lines)
    else:
        _emit_json(report.as_dict(), args.out, lines)
    return 1 if report.falsifications else 0


def cmd_sweep(args) -> int:
    base, meta = _build_variant(args)
    corpus = [(meta["variant"], base)] if args.include_base else []
    corpus += [(f"{meta['variant']}{tag}", g) for tag, g in one_edge_supergraphs(base)]
    tol = (
        Tolerances.scaled(args.tolerance)
        if args.tolerance is not None
        else DEFAULT_TOLERANCES
    )
    report = counterexample_sweep(
        corpus, args.b, args.k, args.delta, args.theorem, cap=args.cap, tol=tol
    )
    lines = [
        f"theorem {args.theorem}: swept {len(report.records)} graphs, "
        f"{len(report.falsifications)} falsifications"
    ]
    if args.format == "csv":
        _emit_csv(report, args.out, lines)
    else:
        _emit_json(report.as_dict(), args.out, lines)
    return 1 if report.falsifications else 0


def _emit_csv(report, out_path, human_lines) -> None:
    rows = ["graph_id,theorem_id,conclusion,condition_lhs,condition_rhs,brute_force,witness"]
    for r in report.records:
        witness = r.get("witness")
        rows.append(
            ",".join(
                [
                    r["graph_id"],
                    r["theorem_id"],
                    r["conclusion"],
                    format(r["condition_lhs"], ".12g"),
                    format(r["condition_rhs"], ".12g"),
                    str(r.get("brute_force_verdict")),
                    ";".join(str(v) for v in witness) if witness else "",
                ]
            )
        )
    text = "\n".join(rows) + "\n"
    if out_path:
        Path(out_path).write_text(text)
        for line in human_lines:
            print(line)
    else:
        sys.stdout.write(text)
        for line in human_lines:
            print(line, file=sys.stderr)


def _add_params(p, *, need_delta=True):
    p.add_argument("--n", type=int, help="graph order")
    p.add_argument("--b", type=int, help="odd factor bound")
    p.add_argument("--k", type=int, help="criticality order")
    if need_delta:
        p.add_argument("--delta", type=int, help="minimum-degree parameter")
        p.add_argument("--s", type=int, help="separator size (g2/g3 variants)")


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="oddcrit", description=__doc__)
    top.add_argument("--config", help="JSON file of default flag values (flags win)")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="graph invariants and one spectral radius")
    p.add_argument("--input", required=True, help="graph file (graph6 or edge list)")
    p.add_argument("--matrix", choices=SPECTRAL_KINDS, default="distance")
    p.add_argument("--out", help="write the JSON report here")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("extremal", help="construct an extremal family member")
    _add_params(p)
    p.add_argument("--variant", choices=VARIANTS, default="gprime")
    p.add_argument("--graph-out", help="write the graph6 encoding here")
    p.add_argument("--out", help="write the JSON summary here")
    p.set_defaults(func=cmd_extremal)

    p = sub.add_parser("check-critical", help="odd-factor criticality of a graph")
    p.add_argument("--input", required=True)
    p.add_argument("--b", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--mode", choices=("exact", "witness-only"), default="exact")
    p.add_argument("--cap", type=int, default=ENUMERATION_CAP)
    p.add_argument(
        "--max-size", type=int, help="witness-only: largest |S| to try (default 4)"
    )
    p.add_argument("--out", help="write the JSON verdict here")
    p.set_defaults(func=cmd_check_critical)

    p = sub.add_parser("verify", help="evaluate one theorem over a corpus")
    _add_params(p)
    p.add_argument("--theorem", choices=THEOREM_IDS, required=True)
    p.add_argument("--input", help="corpus file: one graph6 per line")
    p.add_argument("--variant", choices=VARIANTS, default="gprime")
    p.add_argument("--cap", type=int, default=ENUMERATION_CAP)
    p.add_argument("--tolerance", type=float, help="scale factor for both tolerances")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--out")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("sweep", help="theorem sweep over one-edge supergraphs")
    _add_params(p)
    p.add_argument("--theorem", choices=THEOREM_IDS, required=True)
    p.add_argument("--variant", choices=VARIANTS, default="gprime")
    p.add_argument("--include-base", action="store_true")
    p.add_argument("--cap", type=int, default=ENUMERATION_CAP)
    p.add_argument("--tolerance", type=float)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--out")
    p.set_defaults(func=cmd_sweep)
    return top


def _apply_config(args, parser) -> None:
    if not getattr(args, "config", None):
        return
    try:
        defaults = json.loads(Path(args.config).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        parser.error(f"cannot read config {args.config}: {exc}")
    for key, value in defaults.items():
        attr = key.replace("-", "_")
        if getattr(args, attr, None) is None:
            setattr(args, attr, value)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    _apply_config(args, parser)
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


if __name__ == "__main__":
    sys.exit(main())
