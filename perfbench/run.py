"""Benchmark of oddcrit: four seeded verification workloads in a closed loop.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--quick]

One process, one client: a graph is decided, then checked with the clock
stopped, and only then is the next graph started, as ``oddcrit verify``,
``sweep`` and ``check-critical`` run.  The run cycles through the seeded
corpus until the per-graph times add up to ``--seconds`` (at least one full
pass), so every graph runs many times; each graph counts at its fastest
run (see ``graph_times``).  The workloads and their reasons are in
``workloads.json``; the code of each is in ``bench_workloads.py``.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` spends half the
time in the same loop untraced and half traced (wrappers at the layer
boundaries, see ``bench_tracing.py``) and prints the per-layer metrics.  The
last line of standard output is one JSON object: correct, attempted, failed,
metrics.  ``failed`` counts wrong outputs and exceptions other than the
defect recorded in ``workloads.json``; runs that give exactly that defect are
counted apart and printed in ``failed_frac``.  A result file with machine and
library details goes to ``perfbench/out/``, and for traced runs the spans go
beside it.

Exit codes: 0 result printed; 2 the oddcrit sources are missing; 3 work
counts differ between two runs of the same graph and seed.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import bench_tracing

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

#: fallback percentiles for graph_tail_ms, highest first
TAIL_LEVELS = (99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_BEYOND = 10
SETUP_REPEATS = 3
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class BenchmarkError(Exception):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


def pin_blas_threads() -> None:
    """One BLAS thread (at most nproc) so runs on a shared machine stay steady.

    Must run before numpy is imported.
    """
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"


def import_oddcrit() -> None:
    """Import oddcrit from this checkout's ``src/``."""
    if not (SRC / "oddcrit" / "__init__.py").is_file():
        raise BenchmarkError(f"oddcrit sources not found under {SRC}", 2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import oddcrit

    if Path(oddcrit.__file__).resolve().parent != SRC / "oddcrit":
        raise BenchmarkError(f"imported oddcrit from {oddcrit.__file__}, not from {SRC}", 2)


def import_seconds() -> float:
    """Median time to import oddcrit in a fresh interpreter, over several.

    A process imports once, so the import is timed in child interpreters
    (run one after another, each waited for) to take a median like the rest
    of set-up.
    """
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
            "start = time.perf_counter(); import oddcrit; print(time.perf_counter() - start)")
    times = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run([sys.executable, "-c", code, str(SRC)],
                              capture_output=True, text=True, check=True, timeout=120)
        times.append(float(done.stdout))
    return statistics.median(times)


def source_digest() -> str:
    """Digest of the package and benchmark sources, which fix the work counts."""
    digest = hashlib.sha256()
    for path in sorted([*(SRC / "oddcrit").glob("*.py"), *HERE.glob("*.py"), HERE / "workloads.json"]):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def interleave(items, rng: random.Random) -> list:
    """Run order in which every group keeps its share in any prefix.

    Members of a group are spread evenly over the pass at a random phase, so a
    run that stops part-way through a pass still sees the corpus mix.
    """
    groups: dict[str, list] = {}
    for item in items:
        groups.setdefault(item.group, []).append(item)
    keyed = []
    for members in groups.values():
        rng.shuffle(members)
        phase = rng.random()
        keyed += [((j + phase) / len(members), rng.random(), item) for j, item in enumerate(members)]
    keyed.sort(key=lambda row: row[:2])
    return [row[2] for row in keyed]


def nearest_rank(sorted_values, q: float) -> float:
    return sorted_values[max(0, math.ceil(q / 100.0 * len(sorted_values)) - 1)]


def graph_times(samples) -> dict[str, float]:
    """Fastest time of each graph over its runs in the run, by graph id.

    The loop runs every graph many times, a pass apart.  A shared host can
    run Python code up to 2x slower for stretches of seconds to minutes,
    with fast moments in between; a graph's fastest run is its own cost, and
    it moves far less between runs of the benchmark than a median does.
    """
    best: dict[str, float] = {}
    for gid, seconds in samples:
        best[gid] = min(seconds, best.get(gid, math.inf))
    return best


def throughput(per_graph: dict[str, float]) -> float:
    """Graphs per second over one pass of the corpus at each graph's fastest time."""
    return len(per_graph) / sum(per_graph.values())


def tail(times: list[float], level: float) -> tuple[float, float, int]:
    """(percentile, value, samples beyond) for the workload's tail level.

    ``times`` holds one fastest time per graph of the corpus.  The level is fixed
    per workload in workloads.json, the highest that leaves at least ten
    graphs of the corpus beyond it.  A smaller corpus (quick mode) falls back
    to the highest lower level that qualifies, and with fewer than 20 graphs
    to the median.
    """
    ordered = sorted(times)
    for q in [level] + [q for q in TAIL_LEVELS if q < level]:
        beyond = len(ordered) - math.ceil(q / 100.0 * len(ordered))
        if beyond >= TAIL_BEYOND:
            return q, nearest_rank(ordered, q), beyond
    return 50.0, nearest_rank(ordered, 50.0), len(ordered) - math.ceil(len(ordered) / 2)


class Checker:
    """Checks every output outside the timed region and counts failures.

    The first output of each graph is checked against its references; a later
    run of the same graph must give the same output, or it is checked again
    and counted as a nondeterminism failure.  A wrong output that is exactly
    a defect recorded in workloads.json is counted apart, as ``known``: the
    program gives the recorded wrong output, and ``failed`` counts every other
    wrong output or exception.
    """

    def __init__(self, workload, known_defects):
        self.workload = workload
        self.known_defects = [d for d in known_defects if workload.name in d["workloads"]]
        self.first: dict[str, tuple[str, list, bool]] = {}
        self.attempted = 0
        self.failed = 0
        self.known_count = 0
        self.unexpected: dict[str, list] = {}
        self.known: dict[str, str] = {}

    def _judge(self, item, out) -> tuple[list, bool]:
        if isinstance(out, Exception):
            return [("raised", f"{type(out).__name__}: {out}")], False
        try:
            problems, conclusion = self.workload.check(item, out)
        except Exception as exc:  # a malformed output is a failure of this graph
            return [("check", f"output could not be checked: {type(exc).__name__}: {exc}")], False
        for defect in self.known_defects:
            if (
                problems
                and item.cls == defect["class"]
                and item.expect.get("conclusion") == defect["expected"]
                and conclusion == defect["observed"]
                and {kind for kind, _ in problems} <= {"conclusion", "falsification"}
            ):
                return problems, True
        return problems, False

    def record(self, item, out) -> None:
        self.attempted += 1
        fingerprint = repr(out)
        seen = self.first.get(item.gid)
        if seen is None:
            problems, known = self._judge(item, out)
            self.first[item.gid] = (fingerprint, problems, known)
        elif seen[0] == fingerprint:
            _, problems, known = seen
        else:
            problems, _ = self._judge(item, out)
            problems = problems + [("nondeterminism", "output differs from the first run of this graph")]
            known = False
        if not problems:
            return
        if known:
            self.known_count += 1
            self.known[item.gid] = "; ".join(message for _, message in problems)
        else:
            self.failed += 1
            self.unexpected[item.gid] = [message for _, message in problems]


def run_loop(workload, order, seconds, checker, tracer=None) -> list[tuple[str, float]]:
    """Closed loop over the corpus until the per-graph times reach ``seconds``.

    Runs at least one full pass, so every graph has a time and the traced
    work counts cover the corpus.  Returns (graph id, seconds) per graph run.
    """
    times = []
    spent = 0.0
    i = 0
    while spent < seconds or i < len(order):
        item = order[i % len(order)]
        start = time.perf_counter()
        try:
            out = tracer.root(item.gid, workload.step, item) if tracer else workload.step(item)
        except Exception as exc:  # counted as a failed graph by the checker
            out = exc
        elapsed = time.perf_counter() - start
        times.append((item.gid, elapsed))
        spent += elapsed
        i += 1
        checker.record(item, out)
    return times


def setup(workload, seed: int, quick: bool, workdir: Path) -> tuple[list, float]:
    """Build the seeded corpus and warm up, several times; median wall time."""
    walls = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        rng = random.Random(seed)
        items = workload.build(rng, quick, workdir)
        order = interleave(items, rng)
        workload.step(min(items, key=lambda item: item.graph.n))
        walls.append(time.perf_counter() - start)
    return order, statistics.median(walls)


def machine() -> dict:
    import networkx
    import numpy
    import scipy

    model = ""
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), "")
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": model,
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "networkx": networkx.__version__,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
    }


def layer_metrics(spans, graphs_timed: int, pass_counts: dict, gps_untraced: float, gps_traced: float):
    """Per-layer metrics from the spans of each graph's fastest traced run."""
    summary = bench_tracing.summarize(spans)

    def row(name):
        return summary.get(name, {"calls": 0, "total": 0.0, "self": 0.0, "weight": 0})

    def per_graph_ms(seconds):
        return 1000.0 * seconds / graphs_timed

    def calls(name):
        return pass_counts.get(name, [0, 0])[0]

    def weight(name):
        return pass_counts.get(name, [0, 0])[1]

    layer_self = sum(r["self"] for name, r in summary.items() if name != bench_tracing.ROOT_SPAN)
    crit = row("factors.crit")
    m = {
        "factors.crit_ms": (per_graph_ms(crit["total"]), "ms/graph"),
        "factors.crit_calls": (calls("factors.crit"), "count"),
        "factors.subsets": (weight("factors.crit"), "count"),
        "factors.subsets_per_s": (crit["weight"] / crit["total"] if crit["total"] else 0.0, "1/s"),
        "factors.subsets_per_verdict": (
            weight("factors.crit") / calls("factors.crit") if calls("factors.crit") else 0.0,
            "subsets/call",
        ),
        "theorems.sweep_ms": (per_graph_ms(row("theorems.sweep")["total"]), "ms/graph"),
        "theorems.sweep_self_ms": (per_graph_ms(row("theorems.sweep")["self"]), "ms/graph"),
        "theorems.report_ms": (per_graph_ms(row("theorems.report")["total"]), "ms/graph"),
        "theorems.eval_ms": (per_graph_ms(row("theorems.eval")["total"]), "ms/graph"),
        "theorems.eval_calls": (calls("theorems.eval"), "count"),
        "theorems.eval_self_ms": (per_graph_ms(row("theorems.eval")["self"]), "ms/graph"),
        "spectral.radius_ms": (per_graph_ms(row("spectral.radius")["total"]), "ms/graph"),
        "spectral.radius_calls": (calls("spectral.radius"), "count"),
        "spectral.eig_ms": (per_graph_ms(row("spectral.eig")["total"]), "ms/graph"),
        "spectral.eig_calls": (calls("spectral.eig"), "count"),
        "spectral.eig_order_sum": (weight("spectral.eig"), "count"),
        "spectral.dmat_ms": (per_graph_ms(row("spectral.dmat")["total"]), "ms/graph"),
        "partitions.quotient_ms": (
            per_graph_ms(row("partitions.quotient")["total"] + row("partitions.roots")["total"]),
            "ms/graph",
        ),
        "partitions.perron_ms": (per_graph_ms(row("partitions.perron")["total"]), "ms/graph"),
        "partitions.calls": (
            sum(calls(n) for n in ("partitions.quotient", "partitions.roots", "partitions.perron")),
            "count",
        ),
        "graphs.parse_ms": (per_graph_ms(row("graphs.parse")["total"]), "ms/graph"),
        "graphs.kconn_ms": (per_graph_ms(row("graphs.kconn")["total"]), "ms/graph"),
        "graphs.kconn_calls": (calls("graphs.kconn"), "count"),
        "cli.main_ms": (per_graph_ms(row("cli.main")["total"]), "ms/graph"),
        "cli.calls": (calls("cli.main"), "count"),
        "cli.self_ms": (per_graph_ms(row("cli.main")["self"]), "ms/graph"),
        "bench.self_ms": (per_graph_ms(row(bench_tracing.ROOT_SPAN)["self"]), "ms/graph"),
        "trace.overhead_frac": (1.0 - gps_traced / gps_untraced, "ratio"),
        "trace.accounted_frac": (per_graph_ms(layer_self) * gps_untraced / 1000.0, "ratio"),
    }
    accounting = {name: per_graph_ms(r["self"]) for name, r in sorted(summary.items())}
    return m, accounting


COUNT_METRICS = (
    "factors.crit", "theorems.eval", "spectral.radius", "spectral.eig", "cli.main",
    "graphs.kconn", "partitions.quotient", "partitions.roots", "partitions.perron",
)


def exact_counts(spans) -> dict:
    """Work counts of one pass; every run of a graph must repeat them exactly."""
    per_pass: dict[str, list] = {}
    for gid, runs in bench_tracing.counts_by_graph(spans).items():
        for other in runs[1:]:
            if other != runs[0]:
                raise BenchmarkError(f"work counts of graph {gid} differ between runs: {runs[0]} vs {other}", 3)
        for name, (calls, weight) in runs[0].items():
            row = per_pass.setdefault(name, [0, 0])
            row[0] += calls
            row[1] += weight
    return {name: per_pass.get(name, [0, 0]) for name in COUNT_METRICS}


def compare_stored_counts(counts: dict, path: Path, digest: str) -> None:
    """Fail when a previous run of the same sources and seed counted other work."""
    if path.is_file():
        stored = json.loads(path.read_text())
        if stored["source"] == digest and stored["counts"] != counts:
            raise BenchmarkError(f"work counts differ from the earlier run recorded in {path}", 3)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({"source": digest, "counts": counts}, indent=1, sort_keys=True) + "\n")


def run(workload_name: str, seed: int, seconds: float, trace: bool, quick: bool = False, out_dir: Path = OUT):
    """One benchmark run; returns (result line, report dict)."""
    import_oddcrit()
    import bench_workloads

    workload = bench_workloads.WORKLOADS[workload_name]()
    tag = f"{workload_name}-seed{seed}-trace{int(trace)}" + ("-quick" if quick else "")
    order, setup_wall = setup(workload, seed, quick, out_dir / "inputs" / tag)
    checker = Checker(workload, bench_workloads.SPEC["known_defects"])
    # a traced run splits its time between the untraced and the traced loop
    times = run_loop(workload, order, seconds / 2 if trace else seconds, checker)
    per_graph = graph_times(times)
    gps = throughput(per_graph)
    report = {"workload": workload_name, "seed": seed, "seconds": seconds, "trace": int(trace),
              "quick": quick, "corpus_size": len(order), "machine": machine(), "source": source_digest()}
    q, tail_s, beyond = tail(list(per_graph.values()), bench_workloads.SPEC[workload_name]["tail_percentile"])
    report["tail"] = {"percentile": q, "beyond": beyond, "graphs": len(per_graph)}
    report["runs_per_graph"] = len(times) / len(per_graph)
    if trace:
        tracer = bench_tracing.Tracer()
        with tracer.installed():
            traced = run_loop(workload, order, seconds / 2, checker, tracer)
        counts = exact_counts(tracer.spans)
        compare_stored_counts(counts, out_dir / "counts" / f"{tag}.json", report["source"])
        gps_traced = throughput(graph_times(traced))
        metrics, accounting = layer_metrics(
            bench_tracing.fastest_runs(tracer.spans), len(per_graph), counts, gps, gps_traced
        )
        report["self_ms_per_graph"] = accounting
        report["ms_per_graph"] = {"untraced": 1000.0 / gps, "traced": 1000.0 / gps_traced}
        report["counts_per_pass"] = counts
        out_dir.mkdir(parents=True, exist_ok=True)
        bench_tracing.write_spans(tracer.spans, out_dir / f"{tag}.spans.tsv")
    else:
        metrics = {
            "graphs_per_s": (gps, "graphs/s"),
            "graph_p50_ms": (1000.0 * statistics.median(per_graph.values()), "ms"),
            "graph_tail_ms": (1000.0 * tail_s, "ms"),
            "setup_s": (import_seconds() + setup_wall, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
    report["failed_frac"] = (checker.failed + checker.known_count) / checker.attempted
    report["known_defect_runs"] = checker.known_count
    report["known_failures"] = checker.known
    report["unexpected_failures"] = checker.unexpected
    line = {
        "correct": not checker.unexpected,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    report["result"] = line
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / f"{tag}.json").write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    return line, report


def summary_lines(line: dict, report: dict) -> list[str]:
    out = [f"workload {report['workload']} seed {report['seed']}: {line['attempted']} graphs attempted, "
           f"corpus of {report['corpus_size']}"]
    for name, m in line["metrics"].items():
        extra = ""
        if name == "graph_tail_ms":
            t = report["tail"]
            extra = f"  (p{t['percentile']:g}, {t['beyond']} of {t['graphs']} graphs beyond)"
        out.append(f"  {name:<28} {m['value']:>14.6g} {m['unit']}{extra}")
    out.append(f"  {'failed_frac':<28} {report['failed_frac']:>14.6g} ratio  "
               f"({report['known_defect_runs']} runs of {line['attempted']} give the recorded defect, "
               f"{line['failed']} fail otherwise)")
    for gid, why in report["known_failures"].items():
        out.append(f"  known defect on {gid}: {why}")
    for gid, why in report["unexpected_failures"].items():
        out.append(f"  FAILED {gid}: {'; '.join(why)}")
    if "self_ms_per_graph" in report:
        per = report["ms_per_graph"]
        out.append(f"  self time per graph (ms) on the one blocking path, fastest runs; graph mean "
                   f"{per['traced']:.4f} ms traced, {per['untraced']:.4f} ms untraced:")
        for name, ms in report["self_ms_per_graph"].items():
            out.append(f"    {name:<26} {ms:>12.4f}")
    return out


def main(argv=None) -> int:
    pin_blas_threads()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("crit-sweep", "witness", "dist-theorems", "spectra"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true", help="tiny corpus, for the benchmark's own tests")
    args = parser.parse_args(argv)
    try:
        line, report = run(args.workload, args.seed, args.seconds, bool(args.trace), args.quick)
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    for text in summary_lines(line, report):
        print(text)
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
