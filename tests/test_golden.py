"""Golden CLI outputs: exit code, stdout, stderr and every written file, byte for byte.

Each case runs ``cli.main`` in a fresh directory holding the input files
below, so report fields that echo a path stay stable.  The expected bytes
live in ``tests/golden/<case>/``.  After an intended change to a report,
regenerate them with ``PYTHONPATH=src python tests/test_golden.py`` and
review the diff.
"""
from __future__ import annotations

import contextlib
import io
import os
import shutil
import tempfile
from pathlib import Path

import pytest

from oddcrit.cli import main

GOLDEN = Path(__file__).parent / "golden"

GSTAR13 = "L~~~~~~~~?[@w?"  # g_star(13, 1, 1)
GPRIME13 = "L~~~~~~~~~w?o?"  # G'(13, 1, 1, 2)
# G'(31, 1, 1, 2)
GPRIME31 = "^~~~~~~~~~~~~~~~~~~~~~~~~~~~~~~~~~~~~~~~~~~~~~~~~~~~~~~~~~~~~~~~~~~~~????E?????"
GPRIME19B3 = "R~~~~~~~~~~~~~~~~~}??o?B??E???"  # G'(19, 3, 1, 2)
# G'(47, 1, 1, 3) plus the edge from big-clique vertex 3 to singleton 44
GPRIME47E = (
    "n~~~~~~~~~~~~~~~~~~~~~~~~~~~~~~~~~~~~~~~~~~~~~~~~~~~~~~~~~~~~~~~~~~~~~~~~~~~~~~~"
    "~~~~~~~~~~~~~~~~~~~~~~~~~~~~~~~~~~~~~~~~~~~~~~~~~~~~~~~~~~~~~~~~~~~~~~~~~~~~~~~o"
    "??????w??????F????????"
)
# Theorem 1.4 at n = 19, b = k = 1: K_2 v (K_15 u 2K_1), K_1 v (K_17 u K_1), and the
# first plus the edge 2-17
THEOREM14 = (
    "R~~~~~~~~~~~~~~~~~~~~~~~??E???\n"
    "R~~~~~~~~~~~~~~~~~~~~~~~~~{???\n"
    "R~~~~~~~~~~~~~~~~~~~~~~~_?E???\n"
)
# g2(57, 3, 1, 3, 2) under the labels of random.Random(1).shuffle: not 1-critical for b = 3
G2_57B3 = (
    "x~~~~{?~v}~z~v~v~z~}~~v~~^~}~~}~~~^~~v~~}~~~z~~~v~~~~~~~z~~~}~~~~v~~~~^~~~}~~~~}~~~~~^~"
    "~~~v~~~~}~~~~~z~~~~????O?~v~~~~^z~~~~n}~~~~z~v~~~~^~^~~~|~}~~~~z~}~~~~z~~^~~~|~~v~~~~^~"
    "}~~~~z~~z~~~~n~~v~~~~^~~v~~~~^~~z~~~~n~w???A????~v~~~~^~z~^~~~|~~g???A????F}~~~~z~~Z~~~"
    "~~~~~~"
)
# G'(19, 3, 1, 2) plus the edge from big-clique vertex 2 to singleton 15, under the labels
# of random.Random(2).shuffle: 1-critical for b = 3
GPRIME19B3BS = "RCe^~}^f{~_Wf}f}r~{~vf}{B?C~vo"
# G'(17, 1, 1, 3) less the edge 3-4: every hypothesis of Theorem 1.2 holds, its condition fails
CONDFAILS = "P~z~~~~~~~~~~~~~{?F??w??"

INPUTS = {
    "gstar13.g6": GSTAR13 + "\n",
    "house.txt": "# a 4-cycle with a chord and a pendant vertex\n0 1\n1 2\n2 3\n3 0\n0 2\n3 4\n",
    "twoedges.txt": "0 1\n2 3\n",
    "k3.g6": "Bw\n",
    "k6.g6": "E~~w\n",
    "gprime13.g6": GPRIME13 + "\n",
    "gprime31.g6": GPRIME31 + "\n",
    "gprime19b3.g6": GPRIME19B3 + "\n",
    "gprime47e.g6": GPRIME47E + "\n",
    "g2-57-b3.g6": G2_57B3 + "\n",
    "gprime19b3bs.g6": GPRIME19B3BS + "\n",
    "corpus.g6": GPRIME13 + "\n" + "L~~~~~~~~~~~~~\n",
    "bad.g6": "D?\n",
    "theorem14.g6": THEOREM14,
    "condfails.g6": CONDFAILS + "\n",
    "check.json": '{"b": 1, "k": 1, "mode": "witness-only", "max-size": 2}\n',
}

_KINDS = ("adjacency", "signless_laplacian", "distance", "distance_signless_laplacian")
_VERIFY = ["verify", "--theorem", "1.2", "--n", "13", "--b", "1", "--k", "1", "--delta", "2"]
_SWEEP = ["sweep", "--theorem", "1.2", "--n", "13", "--b", "1", "--k", "1", "--delta", "2",
          "--include-base"]
_PARAMS = ["--n", "19", "--b", "1", "--k", "1", "--delta", "4", "--s", "2"]

CASES = {
    **{f"analyze-g6-{kind}": ["analyze", "--input", "gstar13.g6", "--matrix", kind]
       for kind in _KINDS},
    **{f"analyze-edges-{kind}": ["analyze", "--input", "house.txt", "--matrix", kind,
                                 "--out", "report.json"]
       for kind in _KINDS},
    "analyze-disconnected-adjacency": ["analyze", "--input", "twoedges.txt",
                                       "--matrix", "adjacency"],
    "extremal-gprime": ["extremal", *_PARAMS, "--graph-out", "g.g6", "--out", "summary.json"],
    "extremal-g2": ["extremal", "--variant", "g2", *_PARAMS],
    "extremal-g3": ["extremal", "--variant", "g3", *_PARAMS, "--out", "summary.json"],
    "extremal-gstar": ["extremal", "--variant", "gstar", "--n", "19", "--b", "1", "--k", "1",
                       "--graph-out", "g.g6"],
    "check-exact-critical": ["check-critical", "--input", "k3.g6", "--b", "1", "--k", "1"],
    "check-exact-not-critical": ["check-critical", "--input", "gprime13.g6", "--b", "1",
                                 "--k", "1", "--out", "verdict.json"],
    "check-exact-gprime47-edge": ["check-critical", "--input", "gprime47e.g6", "--b", "1",
                                  "--k", "1", "--cap", "47"],
    "check-exact-g2-57-b3": ["check-critical", "--input", "g2-57-b3.g6", "--b", "3", "--k", "1",
                             "--cap", "57"],
    "check-exact-gprime19b3-bs": ["check-critical", "--input", "gprime19b3bs.g6", "--b", "3",
                                  "--k", "1"],
    "check-witness-found": ["check-critical", "--input", "gprime31.g6", "--b", "1", "--k", "1",
                            "--mode", "witness-only", "--max-size", "4"],
    "check-witness-found-b3": ["check-critical", "--input", "gprime19b3.g6", "--b", "3",
                               "--k", "1", "--mode", "witness-only", "--out", "verdict.json"],
    "check-witness-config": ["--config", "check.json", "check-critical", "--input", "gprime13.g6",
                             "--max-size", "3"],
    "check-witness-inconclusive": ["check-critical", "--input", "k6.g6", "--b", "1", "--k", "2",
                                   "--mode", "witness-only", "--max-size", "3"],
    "verify-json": _VERIFY,
    "verify-json-out": [*_VERIFY, "--out", "report.json"],
    "verify-csv": ["verify", "--theorem", "1.2", "--b", "1", "--k", "1", "--delta", "2",
                   "--input", "corpus.g6", "--format", "csv"],
    "verify-csv-out": [*_VERIFY, "--format", "csv", "--out", "report.csv"],
    "verify-above-cap": ["verify", "--theorem", "1.5", "--n", "47", "--b", "1", "--k", "1",
                         "--delta", "3"],
    "verify-condition-fails": ["verify", "--theorem", "1.2", "--b", "1", "--k", "1",
                               "--delta", "3", "--input", "condfails.g6"],
    "verify-theorem-1.4": ["verify", "--theorem", "1.4", "--b", "1", "--k", "1",
                           "--input", "theorem14.g6"],
    "verify-theorem-1.6-base": ["verify", "--theorem", "1.6", "--n", "63", "--b", "1", "--k", "1",
                                "--delta", "3", "--cap", "63"],
    "sweep-json": _SWEEP,
    "sweep-json-out": [*_SWEEP, "--out", "sweep.json"],
    "sweep-csv": [*_SWEEP, "--format", "csv"],
    "sweep-csv-out": [*_SWEEP, "--format", "csv", "--out", "sweep.csv"],
    "sweep-above-cap": [*_SWEEP, "--cap", "5", "--format", "csv"],
    "sweep-theorem-1.3": ["sweep", "--theorem", "1.3", "--n", "19", "--b", "1", "--k", "1",
                          "--delta", "3", "--include-base"],
    "error-parity": ["extremal", "--n", "20", "--b", "1", "--k", "1", "--delta", "3"],
    "error-bad-graph6": ["analyze", "--input", "bad.g6"],
}


def run_case(argv, workdir: Path) -> dict[str, bytes]:
    """Run the CLI in ``workdir``; return exit code, streams and new files as bytes."""
    for name, text in INPUTS.items():
        (workdir / name).write_text(text)
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(list(argv))
    finally:
        os.chdir(cwd)
    result = {
        "exit_code": f"{code}\n".encode(),
        "stdout": out.getvalue().encode(),
        "stderr": err.getvalue().encode(),
    }
    for path in sorted(workdir.iterdir()):
        if path.name not in INPUTS:
            result[path.name] = path.read_bytes()
    return result


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden_output(case, tmp_path):
    expected_dir = GOLDEN / case
    expected = {path.name: path.read_bytes() for path in sorted(expected_dir.iterdir())}
    got = run_case(CASES[case], tmp_path)
    assert sorted(got) == sorted(expected)
    for name in expected:
        assert got[name] == expected[name], f"{case}/{name} differs"


def test_every_golden_directory_has_a_case():
    assert sorted(p.name for p in GOLDEN.iterdir()) == sorted(CASES)


def regenerate() -> None:
    shutil.rmtree(GOLDEN, ignore_errors=True)
    for case, argv in sorted(CASES.items()):
        with tempfile.TemporaryDirectory() as tmp:
            files = run_case(argv, Path(tmp))
        target = GOLDEN / case
        target.mkdir(parents=True)
        for name, data in files.items():
            (target / name).write_bytes(data)


if __name__ == "__main__":
    regenerate()
