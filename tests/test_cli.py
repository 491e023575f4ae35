import argparse
import ast
import contextlib
import csv
import io
import json
import random
import re
import resource
import subprocess
import sys
import time
from pathlib import Path

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oddcrit
from oddcrit.graphs import ExtremalParams, Graph, extremal_gprime, make_complete, write_graph6
from oddcrit import cli, graphs, theorems
from oddcrit.cli import build_parser, main
from conftest import random_graphs
from oracles import without_edge


def write_graph(tmp_path, name, g):
    path = tmp_path / name
    path.write_text(write_graph6(g) + "\n")
    return str(path)


def path3_file(tmp_path):
    path = tmp_path / "p3.txt"
    path.write_text("0 1\n1 2\n")
    return str(path)


class TestAnalyze:
    def test_complete_distance(self, tmp_path, capsys):
        f = write_graph(tmp_path, "k5.g6", make_complete(5))
        out = tmp_path / "report.json"
        assert main(["analyze", "--input", f, "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["n"] == 5 and report["edges"] == 10
        assert abs(report["spectral_radius"] - 4) < 1e-9
        assert report["connectivity"] == 4
        assert "spectral radius = 4" in capsys.readouterr().out

    def test_path3_edge_list_input(self, tmp_path, capsys):
        assert main(["analyze", "--input", path3_file(tmp_path)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert abs(payload["spectral_radius"] - 2.73205080757) < 1e-9
        assert payload["wiener_index"] == 4

    @pytest.mark.parametrize("kind", ["distance", "distance_signless_laplacian"])
    def test_disconnected_distance_errors(self, tmp_path, capsys, kind):
        path = tmp_path / "two.txt"
        path.write_text("0 1\n2 3\n")
        assert main(["analyze", "--input", str(path), "--matrix", kind]) == 2
        assert capsys.readouterr().err == "error: distance undefined: graph is disconnected\n"

    def test_disconnected_adjacency_ok(self, tmp_path):
        path = tmp_path / "two.txt"
        path.write_text("0 1\n2 3\n")
        assert main(["analyze", "--input", str(path), "--matrix", "adjacency"]) == 0

    def test_eigensolver_failure_exit_two(self, tmp_path, capsys, monkeypatch):
        def fail(a):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigvalsh", fail)
        assert main(["analyze", "--input", path3_file(tmp_path)]) == 2
        captured = capsys.readouterr()
        assert "error: LAPACK eigvalsh failed: Eigenvalues did not converge" in captured.err
        assert captured.out == ""

    def test_dense_graph_connectivity_is_polynomial(self, tmp_path, capsys):
        # an exhaustive cut search gave no answer here within 10 s
        rng = random.Random(1)
        pairs = [(u, v) for u in range(40) for v in range(u + 1, 40)]
        g = Graph(40, rng.sample(pairs, 414))
        assert g.min_degree() >= 14
        f = write_graph(tmp_path, "dense.g6", g)
        start = time.perf_counter()
        assert main(["analyze", "--input", f, "--matrix", "adjacency"]) == 0
        assert time.perf_counter() - start < 2.0
        report = json.loads(capsys.readouterr().out)
        expected = nx.node_connectivity(nx.Graph(list(g.edges())))
        assert report["connectivity"] == expected == 15

    def test_parse_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.g6"
        bad.write_text("D?\n")
        assert main(["analyze", "--input", str(bad)]) == 2
        assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command", [["analyze"], ["analyze", "--matrix", "adjacency"], ["check-critical", "--b", "1", "--k", "1"]]
)
def test_edge_list_order_beyond_graph6_limit_exit_two(tmp_path, capsys, command):
    # the order would be 2e9 + 1: rejected while parsing, before any allocation
    path = tmp_path / "huge.txt"
    path.write_text("0 1\n1 2000000000\n")
    assert main([command[0], "--input", str(path), *command[1:]]) == 2
    assert "error: line 2: vertex 2000000000 gives an order above 258047" in capsys.readouterr().err


@pytest.mark.parametrize("text, message", [
    ("", "empty graph input"),
    (" \n\t\n", "empty graph input"),
    (">>graph6<<\n", "empty graph6 input"),
    ("~?\n", "truncated graph6 size header"),
    ("~~\n", "graph6 orders beyond 258047 unsupported"),
    ("0 1 2\n", "line 1: expected 'u v'"),
    ("-1 0\n", "line 1: negative vertex index"),
    # one leading byte-order mark is dropped; any other is an invalid byte
    ("\ufeff\ufeff0 1\n", "invalid graph6 byte 65279 (byte offset 0)"),
    ("\n\ufeffD?{\n", "invalid graph6 byte 65279 (byte offset 0)"),
    ("D\ufeff?{\n", "invalid graph6 byte 65279 (byte offset 1)"),
    ("0 1\n\ufeff1 2\n", "line 2: non-integer vertex in '\\ufeff1 2'"),
], ids=["empty", "blank", "header_alone", "truncated_header", "order_beyond_limit",
        "three_tokens", "negative_vertex", "second_bom", "bom_after_newline", "bom_inside_graph6",
        "bom_in_edge_list"])
def test_malformed_graph_input_exit_two(tmp_path, capsys, text, message):
    path = tmp_path / "bad.txt"
    path.write_bytes(text.encode())
    assert main(["analyze", "--input", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and message in captured.err
    assert "Traceback" not in captured.err
    assert captured.out == ""


def test_edge_list_at_the_order_limit_fits_in_4_gb(tmp_path):
    # order 258047, nearly all of it isolated vertices; the child process
    # alone gets a 4 GB address-space limit
    path = tmp_path / "sparse.txt"
    path.write_text("0 1\n1 2\n2 0\n3 258046\n")
    src = str(Path(oddcrit.__file__).resolve().parents[1])

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (4 << 30, 4 << 30))

    done = subprocess.run(
        [sys.executable, "-c", "import sys; sys.path.insert(0, sys.argv[1]); from oddcrit.cli import main; "
         "sys.exit(main(sys.argv[2:]))", src, "analyze", "--matrix", "adjacency", "--input", str(path)],
        capture_output=True, text=True, preexec_fn=limit, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout)
    assert report["n"] == 258047
    assert report["spectral_radius"] == 2.0


def test_out_of_memory_exit_two(tmp_path, capsys, monkeypatch):
    def exhausted(g, kind):
        raise MemoryError()

    monkeypatch.setattr(cli, "spectral_radius", exhausted)
    assert main(["analyze", "--input", path3_file(tmp_path)]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: out of memory\n"
    assert captured.out == ""


class TestExtremal:
    def test_gprime_summary(self, tmp_path):
        out = tmp_path / "summary.json"
        gout = tmp_path / "g.g6"
        code = main([
            "extremal", "--n", "19", "--b", "1", "--k", "1", "--delta", "3",
            "--out", str(out), "--graph-out", str(gout),
        ])
        assert code == 0
        summary = json.loads(out.read_text())
        assert summary["edges"] == 129
        assert summary["wiener_index"] == 213
        assert summary["wiener_closed_form"] == 213
        expected = write_graph6(extremal_gprime(ExtremalParams(19, 1, 1, 3)))
        assert gout.read_text().strip() == expected == summary["graph6"]

    def test_gstar_variant(self, tmp_path):
        out = tmp_path / "s.json"
        code = main([
            "extremal", "--variant", "gstar", "--n", "19", "--b", "1", "--k", "1",
            "--out", str(out),
        ])
        assert code == 0
        assert json.loads(out.read_text())["edges"] == 130

    def test_parity_error(self, capsys):
        code = main(["extremal", "--n", "20", "--b", "1", "--k", "1", "--delta", "3"])
        assert code == 2
        assert "parity" in capsys.readouterr().err

    def test_missing_params_clean_error(self, capsys):
        assert main(["extremal", "--n", "19", "--b", "1", "--k", "1"]) == 2
        assert "--delta" in capsys.readouterr().err
        assert main(["extremal", "--variant", "g3", "--n", "19", "--b", "1",
                     "--k", "1", "--delta", "4"]) == 2
        assert "--s" in capsys.readouterr().err


class TestCheckCritical:
    def test_triangle_critical_exit_zero(self, tmp_path):
        f = write_graph(tmp_path, "k3.g6", make_complete(3))
        assert main(["check-critical", "--input", f, "--b", "1", "--k", "1"]) == 0

    def test_gprime_not_critical_exit_one(self, tmp_path, capsys):
        f = write_graph(tmp_path, "gp.g6", extremal_gprime(ExtremalParams(19, 1, 1, 3)))
        out = tmp_path / "verdict.json"
        code = main(["check-critical", "--input", f, "--b", "1", "--k", "1", "--out", str(out)])
        assert code == 1
        verdict = json.loads(out.read_text())
        assert verdict["critical"] is False
        assert verdict["witness"] == [0, 1, 2]

    def test_empty_witness_is_reported(self, tmp_path, capsys):
        # K_3 has odd order, so S = {} already violates the k = 0 criterion
        f = write_graph(tmp_path, "k3.g6", make_complete(3))
        assert main(["check-critical", "--input", f, "--b", "1", "--k", "0"]) == 1
        captured = capsys.readouterr()
        verdict = json.loads(captured.out)
        assert verdict["critical"] is False
        assert verdict["witness"] == []
        assert "witness=[]" in captured.err

    def test_cap_exceeded_exit_two(self, tmp_path, capsys):
        f = write_graph(tmp_path, "k30.g6", make_complete(30))
        assert main(["check-critical", "--input", f, "--b", "1", "--k", "2"]) == 2
        assert "cap" in capsys.readouterr().err

    def test_witness_only_mode(self, tmp_path):
        f = write_graph(tmp_path, "gp.g6", extremal_gprime(ExtremalParams(31, 1, 1, 2)))
        out = tmp_path / "w.json"
        code = main([
            "check-critical", "--input", f, "--b", "1", "--k", "1",
            "--mode", "witness-only", "--max-size", "4", "--out", str(out),
        ])
        assert code == 1
        assert json.loads(out.read_text())["witness"] == [0, 1]

    @pytest.mark.parametrize("n, b, odd", [(31, 1, 3), (19, 3, 5)])
    def test_witness_only_reports_exact_odd_count(self, tmp_path, capsys, n, b, odd):
        g = extremal_gprime(ExtremalParams(n, b, 1, 2))
        f = write_graph(tmp_path, "gp.g6", g)
        code = main([
            "check-critical", "--input", f, "--b", str(b), "--k", "1",
            "--mode", "witness-only", "--max-size", "4",
        ])
        assert code == 1
        captured = capsys.readouterr()
        payload = json.loads(captured.out)
        assert payload["witness"] == [0, 1]
        assert payload["odd_components"] == odd == g.odd_components_after_removal([0, 1])
        assert payload["bound"] == b
        assert f"o={odd} > {b}" in captured.err

    def test_witness_only_order_precondition(self, tmp_path, capsys):
        f = write_graph(tmp_path, "k3.g6", make_complete(3))
        code = main([
            "check-critical", "--input", f, "--b", "1", "--k", "2", "--mode", "witness-only",
        ])
        assert code == 2
        captured = capsys.readouterr()
        assert "error: criticality needs n >= k+2" in captured.err
        assert captured.out == ""

    def test_witness_only_default_size_reaches_k(self, tmp_path, capsys):
        f = write_graph(tmp_path, "k10.g6", make_complete(10))
        code = main(["check-critical", "--input", f, "--b", "1", "--k", "5", "--mode", "witness-only"])
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["max_size"] == 5
        assert payload["witness"] == [0, 1, 2, 3, 4]

    @pytest.mark.parametrize("max_size", ["4", "-1"])
    def test_witness_only_max_size_below_k_exit_two(self, tmp_path, capsys, max_size):
        f = write_graph(tmp_path, "k10.g6", make_complete(10))
        code = main([
            "check-critical", "--input", f, "--b", "1", "--k", "5",
            "--mode", "witness-only", f"--max-size={max_size}",
        ])
        assert code == 2
        captured = capsys.readouterr()
        assert f"error: max_size={max_size} is below k=5" in captured.err
        assert captured.out == ""

    def test_witness_only_inconclusive(self, tmp_path):
        f = write_graph(tmp_path, "k6.g6", make_complete(6))
        code = main([
            "check-critical", "--input", f, "--b", "1", "--k", "2",
            "--mode", "witness-only", "--max-size", "3",
        ])
        assert code == 2


class TestVerifyAndSweep:
    def test_verify_extremal_exception(self, tmp_path):
        out = tmp_path / "r.json"
        code = main([
            "verify", "--theorem", "1.5", "--n", "47", "--b", "1", "--k", "1",
            "--delta", "3", "--cap", "47", "--out", str(out),
        ])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["records"][0]["conclusion"] == "extremal_exception"
        assert report["falsification_count"] == 0

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_unconfirmed_assertions_exit_two(self, tmp_path, capsys, fmt):
        out = tmp_path / "s.out"
        code = main([
            "sweep", "--theorem", "1.5", "--n", "47", "--b", "1", "--k", "1", "--delta", "3",
            "--include-base", "--format", fmt, "--out", str(out),
        ])
        assert code == 2
        assert "127 graphs, 0 falsifications, 127 unconfirmed" in capsys.readouterr().out
        if fmt == "json":
            report = json.loads(out.read_text())
            assert report["unconfirmed_count"] == 127 and report["falsification_count"] == 0

    def test_sweep_above_the_default_cap_confirms_every_assertion(self, tmp_path, capsys):
        # twin orbits leave a few dozen subsets per graph, so --cap 47
        # decides all 127 graphs of the sweep above
        out = tmp_path / "s.json"
        code = main([
            "sweep", "--theorem", "1.5", "--n", "47", "--b", "1", "--k", "1", "--delta", "3",
            "--include-base", "--cap", "47", "--out", str(out),
        ])
        assert code == 0
        assert "127 graphs, 0 falsifications, 0 unconfirmed" in capsys.readouterr().out
        report = json.loads(out.read_text())
        assert (report["graphs"], report["falsification_count"], report["unconfirmed_count"]) == (
            127, 0, 0
        )

    def test_each_graph_builds_its_twin_partition_once(self, tmp_path, monkeypatch):
        # the radius and the scan read the graph's one partition: the 127
        # graphs of the sweep and its comparison family build one each, and
        # extremal's G'(47,1,1,3) one for its radii and its scan
        twin_classes = graphs._twin_classes
        built = []

        def counting(adj):
            built.append(len(adj))
            return twin_classes(adj)

        monkeypatch.setattr(graphs, "_twin_classes", counting)
        for args, builds in (
            (["sweep", "--theorem", "1.5", "--n", "47", "--b", "1", "--k", "1", "--delta", "3",
              "--include-base", "--cap", "47", "--out", str(tmp_path / "s.json")], 128),
            (["extremal", "--n", "47", "--b", "1", "--k", "1", "--delta", "3"], 1),
        ):
            theorems._comparison.cache_clear()
            built.clear()
            assert main(args) == 0
            assert built == [47] * builds

    def test_falsification_beats_unconfirmed(self, tmp_path, capsys, monkeypatch):
        # G'(13,1,1,2) minus a big-clique edge has a radius 0.17 below the
        # right-hand side; lowered by 1, it meets the radius condition, so it
        # is asserted critical and brute-forced as a falsification; the
        # 47-vertex exception stays unconfirmed
        comparison = theorems._comparison

        def lowered(*params):
            rhs, exceptions = comparison(*params)
            return rhs - 1, exceptions

        monkeypatch.setattr(theorems, "_comparison", lowered)
        corpus = tmp_path / "corpus.g6"
        g = extremal_gprime(ExtremalParams(13, 1, 1, 2))
        corpus.write_text(write_graph6(without_edge(g, 2, 3)) + "\n"
                          + write_graph6(extremal_gprime(ExtremalParams(47, 1, 1, 2))) + "\n")
        code = main([
            "verify", "--theorem", "1.2", "--b", "1", "--k", "1", "--delta", "2",
            "--input", str(corpus),
        ])
        payload = json.loads(capsys.readouterr().out)
        assert code == 1
        assert (payload["falsification_count"], payload["unconfirmed_count"]) == (1, 1)

    def test_verify_corpus_file(self, tmp_path):
        corpus = tmp_path / "corpus.g6"
        corpus.write_text(
            write_graph6(extremal_gprime(ExtremalParams(13, 1, 1, 2))) + "\n"
            + write_graph6(make_complete(13)) + "\n"
        )
        out = tmp_path / "r.json"
        code = main([
            "verify", "--theorem", "1.2", "--b", "1", "--k", "1", "--delta", "2",
            "--input", str(corpus), "--out", str(out),
        ])
        assert code == 0
        report = json.loads(out.read_text())
        assert [r["conclusion"] for r in report["records"]] == [
            "extremal_exception",
            "inapplicable",  # complete graph has min degree 12, not 2
        ]

    def test_verify_json_deterministic(self, tmp_path):
        args = [
            "verify", "--theorem", "1.2", "--n", "13", "--b", "1", "--k", "1",
            "--delta", "2",
        ]
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_verify_csv(self, tmp_path):
        out = tmp_path / "r.csv"
        code = main([
            "verify", "--theorem", "1.2", "--n", "13", "--b", "1", "--k", "1",
            "--delta", "2", "--format", "csv", "--out", str(out),
        ])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("graph_id,theorem_id,conclusion")
        assert len(lines) == 2

    def test_csv_quotes_a_comma_in_the_graph_id(self, tmp_path):
        # graph ids hold the input path, which may hold the delimiter
        corpus = write_graph(tmp_path, "a,b.g6", extremal_gprime(ExtremalParams(19, 1, 1, 3)))
        out = tmp_path / "r.csv"
        main([
            "verify", "--theorem", "1.1", "--b", "1", "--k", "1", "--delta", "3",
            "--format", "csv", "--input", corpus, "--out", str(out),
        ])
        rows = list(csv.reader(out.read_text().splitlines()))
        assert len(rows) == 2 and all(len(row) == 7 for row in rows)
        assert rows[1][0] == f"{corpus}:0"

    def test_verify_malformed_corpus(self, tmp_path, capsys):
        corpus = tmp_path / "bad.g6"
        corpus.write_text("D?\n")
        code = main([
            "verify", "--theorem", "1.2", "--b", "1", "--k", "1", "--delta", "2",
            "--input", str(corpus),
        ])
        assert code == 2

    def test_sweep_inapplicable_corpus(self, tmp_path):
        # order bound of the size variant is 18 > 13: all records inapplicable
        out = tmp_path / "s.json"
        code = main([
            "sweep", "--theorem", "1.1", "--n", "13", "--b", "1", "--k", "1",
            "--delta", "3", "--include-base", "--out", str(out),
        ])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["graphs"] == 1 + (13 * 12 // 2 - extremal_gprime(ExtremalParams(13, 1, 1, 3)).edge_count())
        assert all(r["conclusion"] == "inapplicable" for r in report["records"])

    def test_config_file_defaults(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": 13, "b": 1, "k": 1, "delta": 2}))
        out = tmp_path / "r.json"
        code = main([
            "--config", str(cfg), "verify", "--theorem", "1.2", "--out", str(out),
        ])
        assert code == 0
        assert json.loads(out.read_text())["records"][0]["conclusion"] == "extremal_exception"

    def test_flags_beat_config(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": 20, "b": 1, "k": 1, "delta": 2}))
        out = tmp_path / "r.json"
        code = main([
            "--config", str(cfg), "verify", "--theorem", "1.2", "--n", "13",
            "--out", str(out),
        ])
        assert code == 0

    def test_config_does_not_carry_over_to_the_next_call(self, tmp_path, capsys):
        # the parser is built once per process; each call parses afresh
        assert build_parser() is build_parser()
        code, got = self.run_with_config(tmp_path, capsys, {"cap": 5, "format": "csv"}, [
            "verify", "--theorem", "1.2", "--n", "13", "--b", "1", "--k", "1", "--delta", "2",
        ])
        assert code == 2 and got.out.startswith("graph_id,")
        code = main(["verify", "--theorem", "1.2", "--n", "13", "--b", "1", "--k", "1", "--delta", "2"])
        assert code == 0 and json.loads(capsys.readouterr().out)["unconfirmed_count"] == 0

    def run_with_config(self, tmp_path, capsys, config, argv):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        code = main(["--config", str(cfg), *argv])
        return code, capsys.readouterr()

    def test_config_values_reach_every_flag(self, tmp_path, capsys):
        verify = ["verify", "--theorem", "1.2", "--n", "13", "--b", "1", "--k", "1",
                  "--delta", "2"]
        code, flagged = main([*verify, "--cap", "5", "--format", "csv"]), capsys.readouterr()
        got = self.run_with_config(tmp_path, capsys, {"cap": 5, "format": "csv"}, verify)
        assert got == (code, flagged)
        assert flagged.out.splitlines()[1].endswith(",None,")  # not brute-forced

    def test_config_values_are_converted_like_flags(self, tmp_path, capsys):
        config = {"n": "13", "b": "1", "k": 1, "delta": 2, "include-base": True}
        code, got = self.run_with_config(tmp_path, capsys, config, ["sweep", "--theorem", "1.2"])
        expected = main(["sweep", "--theorem", "1.2", "--n", "13", "--b", "1", "--k", "1",
                         "--delta", "2", "--include-base"])
        assert (code, got) == (expected, capsys.readouterr())
        assert json.loads(got.out)["graphs"] == 20

    @pytest.mark.parametrize("config, message", [
        ({"variant": "bogus"}, "argument --variant: invalid choice: 'bogus'"),
        ({"n": "thirteen"}, "argument --n: invalid int value: 'thirteen'"),
        ({"n": True}, "argument --n: invalid int value: 'True'"),
        ({"include_base": "yes"}, "include_base must be true or false"),
        ([13], "must hold a JSON object"),
    ])
    def test_bad_config_value_exit_two(self, tmp_path, capsys, config, message):
        with pytest.raises(SystemExit) as exc:
            self.run_with_config(tmp_path, capsys, config, [
                "sweep", "--theorem", "1.2", "--n", "13", "--b", "1", "--k", "1",
                "--delta", "2",
            ])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err

    def test_flags_override_config_and_foreign_keys_are_ignored(self, tmp_path, capsys):
        config = {"cap": 5, "format": "csv", "max_size": 3, "matrix": "adjacency"}
        code, got = self.run_with_config(tmp_path, capsys, config, [
            "verify", "--theorem", "1.2", "--n", "13", "--b", "1", "--k", "1", "--delta", "2",
            "--cap", "22", "--format", "json",
        ])
        assert code == 0
        assert json.loads(got.out)["records"][0]["brute_force_verdict"] is False

    def test_tolerance_flag_is_gone(self):
        # radii are compared within their own rounding bound: no knob is left
        code, out, err = run_main([
            "verify", "--theorem", "1.2", "--n", "13", "--b", "1", "--k", "1",
            "--delta", "2", "--tolerance", "2",
        ])
        assert (code, out) == (2, "")
        assert err.endswith("\noddcrit: error: unrecognized arguments: --tolerance 2\n")

    def test_tolerance_config_key_is_ignored(self, tmp_path, capsys):
        # G'(13,1,1,2) less a big-clique edge fails the radius condition by
        # 0.17; a tolerance of 1e9 would have made it a falsification
        g = without_edge(extremal_gprime(ExtremalParams(13, 1, 1, 2)), 2, 3)
        verify = ["verify", "--theorem", "1.2", "--b", "1", "--k", "1", "--delta", "2",
                  "--input", write_graph(tmp_path, "g.g6", g)]
        code, plain = main(verify), capsys.readouterr()
        assert self.run_with_config(tmp_path, capsys, {"tolerance": 1e9}, verify) == (code, plain)
        assert code == 0 and json.loads(plain.out)["records"][0]["conclusion"] == "condition_fails"


@pytest.mark.parametrize("argv", [
    ["analyze", "--input", "FILE"],
    ["verify", "--theorem", "1.2", "--b", "1", "--k", "1", "--delta", "2", "--input", "FILE"],
    ["--config", "FILE", "verify", "--theorem", "1.2", "--n", "13", "--b", "1", "--k", "1",
     "--delta", "2"],
])
def test_file_that_is_not_text_exit_two(tmp_path, capsys, argv):
    bad = tmp_path / "utf16.g6"
    bad.write_bytes(b"\xff\xfe")
    try:
        code = main([str(bad) if arg == "FILE" else arg for arg in argv])
    except SystemExit as exc:  # a config is read while the arguments are parsed
        code = exc.code
    err = capsys.readouterr().err
    assert code == 2
    assert re.search(rf"cannot read (config )?{re.escape(str(bad))}: 'utf-8' codec", err)


@pytest.mark.parametrize("argv", [
    ["analyze", "--input", "FILE"],
    ["check-critical", "--input", "FILE", "--b", "1", "--k", "0"],
])
def test_input_with_several_graphs_exit_two(tmp_path, capsys, argv):
    # both commands read one graph: a second one is not dropped in silence
    path = tmp_path / "two.g6"
    path.write_text("D?{\nD~{\n")
    assert main([str(path) if a == "FILE" else a for a in argv]) == 2
    err = capsys.readouterr().err
    assert "holds 2 graph6 lines" in err and "verify --input" in err


@pytest.mark.parametrize("command", ["analyze", "extremal", "check-critical", "verify", "sweep"])
def test_help_lists_every_flag(command, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    sub = next(
        a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    ).choices[command]
    for action in sub._actions:
        flag = action.option_strings[-1]
        assert flag in out
        assert action.help and action.help.strip(), f"{command} {flag} has no help"


def test_unknown_theorem_flag_rejected(capsys):
    with pytest.raises(SystemExit):
        main(["verify", "--theorem", "7.7", "--n", "13", "--b", "1", "--k", "1", "--delta", "2"])


def test_runtime_needs_numpy_alone():
    # scipy and networkx are test-only references; the package must not import them.
    # `import oddcrit` loads the six library submodules and not the CLI, so
    # the import time measured for it covers the whole library
    src = str(Path(oddcrit.__file__).resolve().parents[1])
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import oddcrit; "
        "print(*sorted(m for m in sys.modules if m.startswith('oddcrit.'))); import oddcrit.cli; "
        "print(*sorted(m for m in ('scipy', 'networkx') if m in sys.modules))"
    )
    done = subprocess.run([sys.executable, "-c", code, src], capture_output=True, text=True, check=True)
    loaded, foreign = done.stdout.split("\n")[:2]
    library = ("errors", "factors", "graphs", "partitions", "spectral", "theorems")
    assert loaded.split() == [f"oddcrit.{name}" for name in library]
    assert foreign == ""


def test_every_import_is_stdlib_numpy_or_oddcrit():
    # numpy is the one runtime dependency that pyproject.toml declares
    allowed = set(sys.stdlib_module_names) | {"numpy", "oddcrit"}
    found = set()
    for source in Path(oddcrit.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(source.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                found.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                found.add(node.module.split(".")[0])
    assert "numpy" in found and found <= allowed, sorted(found - allowed)


def run_main(argv):
    """(exit code, stdout, stderr) of ``main(argv)``, usage exits included."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


#: the usage line of the top-level parser at 80 columns
TOP_USAGE = (
    "usage: oddcrit [-h] [--config CONFIG]\n"
    "               {analyze,extremal,check-critical,verify,sweep} ...\n"
)


#: each input as LF text; the same bytes with CRLF and CR line ends must read alike
LINE_END_INPUTS = {
    "graph6": write_graph6(extremal_gprime(ExtremalParams(13, 1, 1, 2))) + "\n",
    "commented_graph6": "# G'(13,1,1,2)\n\n"
                        + write_graph6(extremal_gprime(ExtremalParams(13, 1, 1, 2))) + "\n",
    "corpus": "# G'(13,1,1,2), K_13 and an edge\n\n"
              + "\n".join(write_graph6(g) for g in (
                  extremal_gprime(ExtremalParams(13, 1, 1, 2)), make_complete(13), Graph(13, [(0, 1)])))
              + "\n",
    "edge_list": "# a 5-cycle and a chord\n0 1\n1 2\n2 3\n3 4\n4 0\n0 2\n",
}
#: the exit code of each command on each input: reports and verdicts, not only errors
LINE_END_CODES = {
    "graph6": {"analyze": 0, "check-critical": 1, "verify": 0},
    "commented_graph6": {"analyze": 0, "check-critical": 1, "verify": 0},
    "corpus": {"analyze": 2, "check-critical": 2, "verify": 0},  # three graphs, one expected
    "edge_list": {"analyze": 0, "check-critical": 0, "verify": 2},
}


@pytest.mark.parametrize("kind", sorted(LINE_END_INPUTS))
@pytest.mark.parametrize("command", [
    ["analyze", "--input", "g.txt"],
    ["check-critical", "--input", "g.txt", "--b", "1", "--k", "1"],
    ["verify", "--theorem", "1.2", "--input", "g.txt", "--b", "1", "--k", "1", "--delta", "2"],
], ids=["analyze", "check-critical", "verify"])
def test_crlf_and_cr_line_ends_read_like_lf(tmp_path, monkeypatch, kind, command):
    # the same file name in four directories, so the reports may match byte for
    # byte; the fourth file is LF text after the byte-order mark some editors write
    results = {}
    for name, end, head in (("lf", "\n", ""), ("crlf", "\r\n", ""), ("cr", "\r", ""),
                            ("bom", "\n", "\ufeff")):
        (tmp_path / name).mkdir()
        (tmp_path / name / "g.txt").write_bytes((head + LINE_END_INPUTS[kind].replace("\n", end)).encode())
        monkeypatch.chdir(tmp_path / name)
        results[name] = run_main(command)
    assert results["crlf"] == results["lf"] == results["cr"] == results["bom"]
    assert results["lf"][0] == LINE_END_CODES[kind][command[0]]
    assert "Traceback" not in results["lf"][2]


BOM = "\ufeff".encode()


@pytest.mark.parametrize("name, data, spell", [
    ("g.g6", b"D?{\n\xff\n", ["check-critical", "--input", "FILE", "--b", "1", "--k", "1"]),
    ("cfg.json", b'{"b": 1,\n\xff}', ["--config", "FILE", "sweep", "--theorem", "1.2"]),
], ids=["graph", "config"])
def test_non_utf8_file_keeps_its_error_line(tmp_path, monkeypatch, name, data, spell):
    monkeypatch.setenv("COLUMNS", "80")
    bad = tmp_path / name
    reason = "'utf-8' codec can't decode byte 0xff in position 9: invalid start byte"
    # a leading byte-order mark is dropped first, so the position counts from after it
    for head in (b"", BOM):
        bad.write_bytes(head + data)
        code, out, err = run_main([str(bad) if a == "FILE" else a for a in spell])
        if name == "g.g6":
            assert err == f"error: cannot read {bad}: {reason.replace('9', '4')}\n"
        else:
            assert err == f"{TOP_USAGE}oddcrit: error: cannot read config {bad}: {reason}\n"
        assert (code, out) == (2, "")


def test_leading_bom_in_a_config_reads_like_none(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    path3_file(tmp_path)
    results = []
    for head in (b"", BOM):
        (tmp_path / "cfg.json").write_bytes(head + json.dumps({"b": 1, "k": 0}).encode())
        results.append(run_main(["--config", "cfg.json", "check-critical", "--input", "p3.txt"]))
    assert results[1] == results[0]
    # b and k came from the config: P3 has odd order, so no odd factor
    assert results[0][0] == 1 and '"critical": false' in results[0][1]


#: a config file whose keys reach every command; flags given with it win
CONTRACT_CONFIG = {"b": 1, "k": 1, "cap": 7, "max-size": 3, "n": 13, "delta": 2, "format": "csv",
                   "include_base": True, "matrix": "adjacency"}

# argv and the namespace of the full two-pass parse (top parser, then the
# subcommand's), less its "command" and "config"; func by name
PARSE_CONTRACT = [
    (["analyze", "--input", "g.g6"],
     {"input": "g.g6", "matrix": "distance", "out": None, "func": "cmd_analyze"}),
    (["analyze", "--inp", "g.g6", "--mat", "adjacency", "--o", "r.json"],
     {"input": "g.g6", "matrix": "adjacency", "out": "r.json", "func": "cmd_analyze"}),
    (["--config", "cfg.json", "analyze", "--input", "g.g6"],
     {"input": "g.g6", "matrix": "adjacency", "out": None, "func": "cmd_analyze"}),
    (["extremal", "--n", "13", "--b", "1", "--k", "1", "--delta", "2"],
     {"n": 13, "b": 1, "k": 1, "delta": 2, "s": None, "variant": "gprime", "graph_out": None,
      "out": None, "func": "cmd_extremal"}),
    (["--config=cfg.json", "extremal", "--variant", "g2", "--s", "1", "--delta", "3"],
     {"n": 13, "b": 1, "k": 1, "delta": 3, "s": 1, "variant": "g2", "graph_out": None,
      "out": None, "func": "cmd_extremal"}),
    (["extremal", "--var", "gstar", "--graph", "g.g6", "--n", "15", "--b", "1", "--k", "1"],
     {"n": 15, "b": 1, "k": 1, "delta": None, "s": None, "variant": "gstar", "graph_out": "g.g6",
      "out": None, "func": "cmd_extremal"}),
    (["check-critical", "--input", "g.g6", "--b", "1", "--k", "1"],
     {"input": "g.g6", "b": 1, "k": 1, "mode": "exact", "cap": 22, "max_size": None, "out": None,
      "func": "cmd_check_critical"}),
    (["--config", "cfg.json", "check-critical", "--input", "g.g6", "--b", "3", "--cap", "9"],
     {"input": "g.g6", "b": 3, "k": 1, "mode": "exact", "cap": 9, "max_size": 3, "out": None,
      "func": "cmd_check_critical"}),
    (["--config=cfg.json", "check-critical", "--input", "g.g6", "--mode", "witness-only"],
     {"input": "g.g6", "b": 1, "k": 1, "mode": "witness-only", "cap": 7, "max_size": 3,
      "out": None, "func": "cmd_check_critical"}),
    (["check-critical", "--inp", "g.g6", "--b", "1", "--k", "0", "--mo", "witness-only", "--max", "2"],
     {"input": "g.g6", "b": 1, "k": 0, "mode": "witness-only", "cap": 22, "max_size": 2,
      "out": None, "func": "cmd_check_critical"}),
    (["verify", "--theorem", "1.2", "--input", "c.g6", "--b", "1", "--k", "1", "--delta", "2"],
     {"theorem": "1.2", "variant": "gprime", "cap": 22, "format": "json",
      "out": None, "n": None, "b": 1, "k": 1, "delta": 2, "s": None, "input": "c.g6",
      "func": "cmd_verify"}),
    (["--config", "cfg.json", "verify", "--theorem", "1.5", "--format", "json", "--k", "3"],
     {"theorem": "1.5", "variant": "gprime", "cap": 7, "format": "json",
      "out": None, "n": 13, "b": 1, "k": 3, "delta": 2, "s": None, "input": None,
      "func": "cmd_verify"}),
    (["--config=cfg.json", "verify", "--theorem", "1.1", "--format", "json", "--variant", "g2",
      "--s", "1"],
     {"theorem": "1.1", "variant": "g2", "cap": 7, "format": "json", "out": None,
      "n": 13, "b": 1, "k": 1, "delta": 2, "s": 1, "input": None, "func": "cmd_verify"}),
    (["verify", "--theo", "1.3", "--n", "13", "--b", "1", "--k", "1", "--delta", "2", "--ca", "9",
      "--form", "csv"],
     {"theorem": "1.3", "variant": "gprime", "cap": 9, "format": "csv",
      "out": None, "n": 13, "b": 1, "k": 1, "delta": 2, "s": None, "input": None,
      "func": "cmd_verify"}),
    (["sweep", "--theorem", "1.1", "--n", "19", "--b", "1", "--k", "1", "--delta", "3"],
     {"theorem": "1.1", "variant": "gprime", "cap": 22, "format": "json",
      "out": None, "n": 19, "b": 1, "k": 1, "delta": 3, "s": None, "include_base": False,
      "func": "cmd_sweep"}),
    (["--config", "cfg.json", "sweep", "--theorem", "1.2", "--n", "15", "--cap", "22"],
     {"theorem": "1.2", "variant": "gprime", "cap": 22, "format": "csv",
      "out": None, "n": 15, "b": 1, "k": 1, "delta": 2, "s": None, "include_base": True,
      "func": "cmd_sweep"}),
    (["--config=cfg.json", "sweep", "--theorem", "1.4", "--out", "s.json"],
     {"theorem": "1.4", "variant": "gprime", "cap": 7, "format": "csv",
      "out": "s.json", "n": 13, "b": 1, "k": 1, "delta": 2, "s": None, "include_base": True,
      "func": "cmd_sweep"}),
    (["sweep", "--theorem", "1.6", "--n", "19", "--b", "1", "--k", "1", "--delta", "3", "--incl",
      "--v", "g3", "--s", "2"],
     {"theorem": "1.6", "variant": "g3", "cap": 22, "format": "json",
      "out": None, "n": 19, "b": 1, "k": 1, "delta": 3, "s": 2, "include_base": True,
      "func": "cmd_sweep"}),
    # abbreviated --config, with config files named like subcommands
    (["--conf", "analyze", "check-critical", "--input", "g.g6", "--b", "3"],
     {"input": "g.g6", "b": 3, "k": 1, "mode": "exact", "cap": 7, "max_size": 3, "out": None,
      "func": "cmd_check_critical"}),
    (["--c", "sweep", "verify", "--theorem", "1.2", "--input", "c.g6"],
     {"theorem": "1.2", "variant": "gprime", "cap": 7, "format": "csv",
      "out": None, "n": 13, "b": 1, "k": 1, "delta": 2, "s": None, "input": "c.g6",
      "func": "cmd_verify"}),
]


def spy_on_parses(monkeypatch, stub_commands=False):
    """A list that records (prog, tokens, namespace) of every ``parse_known_args``.

    With ``stub_commands`` the command a namespace would run is replaced by
    one that returns 0, so only the parse is exercised.
    """
    calls = []
    original = argparse.ArgumentParser.parse_known_args

    def spy(self, args=None, namespace=None):
        ns, extras = original(self, args, namespace)
        calls.append((self.prog, list(args), dict(vars(ns))))
        if stub_commands and hasattr(ns, "func"):
            ns.func = lambda parsed: 0
        return ns, extras

    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", spy)
    return calls


@pytest.mark.parametrize("argv, expected", PARSE_CONTRACT)
def test_namespace_equals_the_two_pass_parse(tmp_path, monkeypatch, argv, expected):
    monkeypatch.chdir(tmp_path)
    for name in ("cfg.json", "analyze", "sweep"):
        Path(name).write_text(json.dumps(CONTRACT_CONFIG))
    calls = spy_on_parses(monkeypatch, stub_commands=True)
    assert main(argv) == 0
    got = next(ns for _, _, ns in calls if "func" in ns)
    got = {key: value for key, value in got.items() if key not in ("command", "config")}
    assert {**got, "func": got["func"].__name__} == expected


@pytest.mark.parametrize("argv, code, out_start, err", [
    ([], 2, "", TOP_USAGE + "oddcrit: error: the following arguments are required: command\n"),
    (["-h"], 0, TOP_USAGE + "\nCommand-line front end. Commands: analyze,", ""),
    (["bogus"], 2, "", TOP_USAGE + "oddcrit: error: argument command: invalid choice: 'bogus' "
     "(choose from 'analyze', 'extremal', 'check-critical', 'verify', 'sweep')\n"),
    (["-h", "check-critical"], 0, TOP_USAGE + "\nCommand-line front end. Commands: analyze,", ""),
    (["check-critical", "--input", "g.g6", "--b", "1", "--k", "1", "--bogus", "x"], 2, "",
     TOP_USAGE + "oddcrit: error: unrecognized arguments: --bogus x\n"),
    (["check-critical", "--config", "cfg.json", "--input", "g.g6", "--b", "1", "--k", "1"], 2, "",
     TOP_USAGE + "oddcrit: error: unrecognized arguments: --config cfg.json\n"),
    (["--config", "bad.json", "sweep", "--theorem", "1.2"], 2, "",
     "usage: oddcrit sweep [-h] --theorem {1.1,1.2,1.3,1.4,1.5,1.6}\n"
     "                     [--variant {gprime,g2,g3,gstar}] [--cap CAP]\n"
     "                     [--format {json,csv}] [--out OUT] [--n N] [--b B] [--k K]\n"
     "                     [--delta DELTA] [--s S] [--include-base]\n"
     "oddcrit sweep: error: argument --n: invalid int value: 'thirteen'\n"),
    # an abbreviated --config takes the next token, a subcommand name too, as its file
    (["--conf", "analyze", "check-critical", "--input", "g.g6", "--b", "1", "--k", "1"], 2, "",
     TOP_USAGE + "oddcrit: error: cannot read config analyze: "
     "[Errno 2] No such file or directory: 'analyze'\n"),
], ids=["no_arguments", "help", "unknown_command", "help_before_command", "unrecognized_flag",
        "config_after_command", "bad_config_value", "abbreviated_config_before_command"])
def test_usage_errors_keep_their_bytes(tmp_path, monkeypatch, argv, code, out_start, err):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("COLUMNS", "80")
    Path("cfg.json").write_text(json.dumps(CONTRACT_CONFIG))
    Path("bad.json").write_text(json.dumps({"n": "thirteen"}))
    got = run_main(argv)
    assert (got[0], got[1][: len(out_start)], got[2]) == (code, out_start, err)


@pytest.mark.parametrize("argv", [
    ["--conf", "analyze", "check-critical", "--input", "g.g6", "--b", "1", "--k", "1"],
    ["--co", "verify", "--config", "sweep", "sweep", "--theorem", "1.3", "--n", "19"],
    ["--c", "check-critical", "analyze", "--input", "g.g6", "--matrix", "adjacency"],
])
def test_abbreviated_config_parses_like_the_top_parser(tmp_path, monkeypatch, argv):
    # config files named like subcommands, with no keys: nothing to add to the line
    monkeypatch.chdir(tmp_path)
    for name in ("analyze", "check-critical", "verify", "sweep"):
        Path(name).write_text("{}")
    expected = vars(build_parser().parse_args(argv))
    calls = spy_on_parses(monkeypatch, stub_commands=True)
    assert main(argv) == 0
    # the last parse is the top parser's, after the subcommand's parse inside
    # it; func, stubbed there, follows from the command
    got = calls[-1][2]
    del got["func"], expected["func"]
    assert got == expected


def test_check_critical_parses_its_flags_once(tmp_path, monkeypatch, capsys):
    flags = ["--input", write_graph(tmp_path, "k3.g6", make_complete(3)), "--b", "1", "--k", "1"]
    calls = spy_on_parses(monkeypatch)
    assert main(["check-critical", *flags]) == 0
    assert [call[:2] for call in calls] == [("oddcrit check-critical", flags)]


def subcommand_parsers():
    top = build_parser()
    return next(a for a in top._actions if isinstance(a, argparse._SubParsersAction)).choices


def typed_value(action):
    """Tokens for an option's value, drawn from its own choices or type; None for paths."""
    if action.choices:
        return st.sampled_from(list(action.choices))
    if action.type is int:
        return st.one_of(st.integers(-1, 4), st.integers(-1, 16)).map(str)
    if action.type is float:
        return st.floats(allow_nan=True, allow_infinity=True).map(repr)
    return None


def foreign_flags(sub):
    """Flags of the other parsers, and the removed --tolerance, that ``sub`` does not take.

    A spelling that abbreviates one of ``sub``'s own options is left out.
    """
    own = [flag for action in sub._actions for flag in action.option_strings]
    parsers = [build_parser(), *subcommand_parsers().values()]
    spellings = {flag for p in parsers for action in p._actions for flag in action.option_strings}
    return sorted(f for f in spellings | {"--tolerance"} if not any(o.startswith(f) for o in own))


@st.composite
def cli_lines(draw, folder):
    """A command line of one subcommand, with its graph file and maybe a --config file.

    Returns the line and whether it holds a flag from outside the subcommand's
    own options (``foreign_flags``), with or without a value.
    """
    name, sub = draw(st.sampled_from(sorted(subcommand_parsers().items())))
    g = draw(random_graphs(st.integers(0, 8)))
    if draw(st.booleans()):
        text = write_graph6(g) + "\n"
    else:
        text = "".join(f"{u} {v}\n" for u, v in g.edges())
    (folder / "g.txt").write_bytes(text.encode())
    options = [a for a in sub._actions if a.option_strings and a.dest != "help"]
    flags = []
    for action in options:
        if not (action.required or draw(st.booleans())):
            continue
        if action.nargs == 0:
            flags.append([action.option_strings[-1]])
            continue
        values = typed_value(action)
        if values is None:
            value = str(folder / ("g.txt" if action.dest == "input" else "out"))
        else:
            # now and then a value of the wrong type
            value = "x" if draw(st.integers(0, 9)) == 0 else draw(values)
        flags.append([action.option_strings[-1], value])
    foreign = draw(st.integers(0, 3)) == 0
    if foreign:
        flag = [draw(st.sampled_from(foreign_flags(sub)))]
        flag += draw(st.sampled_from([[], ["1"], ["-1"], ["x"], [str(folder / "g.txt")]]))
        flags.insert(draw(st.integers(0, len(flags))), flag)
    argv = [name] + [token for flag in flags for token in flag]
    if draw(st.booleans()):
        # path options stay out of the config: a relative path would land in the cwd
        keys = [a.dest for a in options if a.nargs == 0 or typed_value(a) is not None]
        config = draw(st.dictionaries(
            st.sampled_from(keys + ["bogus"]),
            st.one_of(st.integers(-1, 16), st.booleans(), st.none(), st.sampled_from(
                ["x", "1.5", "witness-only", "csv", "g2", "gstar", "adjacency", "1.2"])),
            max_size=4,
        ))
        (folder / "cfg.json").write_text(json.dumps(config))
        argv = ["--config", str(folder / "cfg.json")] + argv
    return argv, foreign


@pytest.fixture(scope="module")
def line_folder(tmp_path_factory):
    return tmp_path_factory.mktemp("lines")


@settings(max_examples=300)
@given(st.data())
def test_every_command_line_exits_cleanly(line_folder, data):
    # a verdict or a report (0, 1), a caught error (2), or argparse's usage exit
    # (2): no other exception leaves main; a flag the subcommand does not take
    # is always a usage error
    argv, foreign = data.draw(cli_lines(line_folder))
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:
            assert exc.code == 2
            return
    assert not foreign and code in (0, 1, 2)


#: the commands that read a graph file, each with the file's path last
GRAPH_READERS = [
    ["analyze", "--input"],
    ["check-critical", "--b", "1", "--k", "1", "--input"],
    ["check-critical", "--b", "1", "--k", "1", "--mode", "witness-only", "--input"],
    ["verify", "--theorem", "1.2", "--b", "1", "--k", "1", "--delta", "2", "--input"],
]


@st.composite
def near_miss_edge_lists(draw):
    """A short edge list with labels below 13, cut anywhere, with one byte put in anywhere.

    Labels keep at most three digits: a 12-byte list may name vertex 258046,
    and witness-only mode then takes about 1.2 s, as the scan builds the
    mask of each twin class from its members in time quadratic in the order.
    """
    pairs = draw(st.lists(st.tuples(st.integers(-1, 12), st.integers(-1, 12)), max_size=3))
    text = "".join(f"{u} {v}\n" for u, v in pairs).encode()[:draw(st.integers(0, 12))]
    at = draw(st.integers(0, len(text)))
    return (text[:at] + draw(st.binary(max_size=1)) + text[at:])[:12]


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.binary(max_size=12), near_miss_edge_lists()))
def test_every_graph_file_exits_cleanly(line_folder, data):
    # any bytes as the graph file: a verdict or a report (0, 1) or a caught
    # error (2), never an exception out of main
    path = line_folder / "bytes.g"
    path.write_bytes(data)
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        for command in GRAPH_READERS:
            assert main(command + [str(path)]) in (0, 1, 2)
