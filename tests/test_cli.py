import json
import random
import subprocess
import sys
import time
from pathlib import Path

import networkx as nx
import numpy as np
import pytest

import oddcrit
from oddcrit import ExtremalParams, Graph, extremal_gprime, make_complete, write_graph6
from oddcrit.cli import main


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

    def test_disconnected_distance_errors(self, tmp_path, capsys):
        path = tmp_path / "two.txt"
        path.write_text("0 1\n2 3\n")
        assert main(["analyze", "--input", str(path)]) == 2
        assert "distance undefined" in capsys.readouterr().err

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

    def test_falsification_beats_unconfirmed(self, tmp_path, capsys):
        # a tolerance of 10 lets G'(13,1,1,2) minus a big-clique edge meet the
        # radius condition, so it is asserted critical and brute-forced as a
        # falsification; the 47-vertex exception stays unconfirmed
        corpus = tmp_path / "corpus.g6"
        g = extremal_gprime(ExtremalParams(13, 1, 1, 2))
        corpus.write_text(write_graph6(g.without_edge(2, 3)) + "\n"
                          + write_graph6(extremal_gprime(ExtremalParams(47, 1, 1, 2))) + "\n")
        code = main([
            "verify", "--theorem", "1.2", "--b", "1", "--k", "1", "--delta", "2",
            "--tolerance", "1e9", "--input", str(corpus),
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

    @pytest.mark.parametrize("command", ["verify", "sweep"])
    @pytest.mark.parametrize("factor", ["-1", "0", "nan", "inf"])
    def test_bad_tolerance_exit_two(self, command, factor, capsys):
        code = main([
            command, "--theorem", "1.1", "--n", "13", "--b", "1", "--k", "1",
            "--delta", "3", "--tolerance", factor,
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert "error: tolerance scale factor must be positive" in err
        assert "Traceback" not in err


def test_unknown_theorem_flag_rejected(capsys):
    with pytest.raises(SystemExit):
        main(["verify", "--theorem", "7.7", "--n", "13", "--b", "1", "--k", "1", "--delta", "2"])


def test_runtime_needs_numpy_alone():
    # scipy and networkx are test-only references; the package must not import them
    src = str(Path(oddcrit.__file__).resolve().parents[1])
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import oddcrit, oddcrit.cli; "
        "print(sorted(m for m in ('scipy', 'networkx') if m in sys.modules))"
    )
    done = subprocess.run([sys.executable, "-c", code, src], capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "[]"
