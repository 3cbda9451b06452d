import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from cycseq.cli import main

SRC = str(Path(__file__).resolve().parents[1] / "src")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, _ = run(capsys, *argv)
    assert code == 0
    return json.loads(out)


def test_necklaces_count(capsys):
    obj = run_json(capsys, "necklaces", "--n", "11")
    assert obj == {"count": "188"}


def test_necklaces_list(capsys):
    obj = run_json(capsys, "necklaces", "--n", "3", "--list")
    assert obj["count"] == "4"
    assert obj["necklaces"] == ["111", "110", "100", "000"]


def test_necklaces_cap_exit_code(capsys):
    code, _, err = run(capsys, "necklaces", "--n", "30", "--list")
    assert code == 4
    assert "cap" in err


def test_project(capsys):
    obj = run_json(capsys, "project", "--seq", "001", "--p", "2")
    assert obj == {"p": 2, "n": 3, "l": 2, "dense": [1, 1, 1, 0]}


def test_project_domain_error(capsys):
    code, _, err = run(capsys, "project", "--seq", "001", "--p", "5")
    assert code == 3
    assert "error" in err


def test_raise(capsys):
    vec = json.dumps({"p": 2, "n": 3, "l": 2, "dense": [1, 1, 1, 0]})
    obj = run_json(capsys, "raise", "--vector", vec)
    assert obj["dense"] == [2, 1]


def test_raise_invalid_json(capsys):
    code, _, _ = run(capsys, "raise", "--vector", "{broken")
    assert code == 3


def test_distance(capsys):
    obj = run_json(capsys, "distance", "--a", "11101000", "--b", "11100010")
    assert obj["gamma"] == 3
    assert obj["distance"] == pytest.approx(2.718281828 ** -3)


def test_distance_equal_sequences(capsys):
    # rotations of the same necklace are at distance zero
    obj = run_json(capsys, "distance", "--a", "0011", "--b", "1100")
    assert obj == {"gamma": None, "distance": 0.0}


def test_lower_and_raw(capsys):
    vec = json.dumps({"p": 1, "n": 4, "l": 2, "dense": [2, 2]})
    obj = run_json(capsys, "lower", "--vector", vec)
    assert [c["dense"] for c in obj["candidates"]] == [[0, 2, 2, 0], [1, 1, 1, 1]]
    raw = run_json(capsys, "lower", "--vector", vec, "--raw")
    assert [c["dense"] for c in raw["candidates"]] == [
        [0, 2, 2, 0],
        [1, 1, 1, 1],
        [2, 0, 0, 2],
    ]


def test_members(capsys):
    vec = json.dumps({"p": 3, "n": 8, "l": 2, "dense": [1] * 8})
    obj = run_json(capsys, "members", "--vector", vec)
    assert obj["count"] == "2"
    assert obj["sequences"] == ["11101000", "11100010"]


def test_members_cap(capsys):
    vec = json.dumps({"p": 1, "n": 30, "l": 2, "dense": [15, 15]})
    code, _, _ = run(capsys, "members", "--vector", vec)
    assert code == 4


def test_tree_json(capsys):
    code, out, err = run(capsys, "tree", "--n", "11", "--half")
    assert code == 0
    obj = json.loads(out)
    assert obj["n"] == 11
    assert obj["root"]["count"] == "94"
    # progress goes to stderr, the document to stdout
    assert "cluster tree" in err


def test_tree_dot_and_newick(capsys):
    code, out, _ = run(capsys, "tree", "--n", "5", "--format", "dot")
    assert code == 0
    assert out.startswith("digraph")
    code, out, _ = run(capsys, "tree", "--n", "5", "--format", "newick")
    assert code == 0
    assert out.strip().endswith(";")


def test_tree_cap(capsys):
    code, _, _ = run(capsys, "tree", "--n", "17")
    assert code == 4


def test_debruijn_and_euler_counts(capsys):
    assert run_json(capsys, "debruijn-count", "--p", "4") == {"count": "16"}
    assert run_json(capsys, "euler-count", "--p", "3") == {"count": "16"}
    obj = run_json(capsys, "debruijn-count", "--alphabet", "3", "--p", "2")
    assert obj == {"count": "24"}


def test_twofold_json(capsys):
    obj = run_json(capsys, "twofold", "--p", "3", "--table")
    assert obj["count"] == "72"
    assert [row["phi"] for row in obj["table"]] == ["2", "8", "11", "6", "1"]


def test_twofold_csv(capsys):
    code, out, _ = run(capsys, "twofold", "--p", "3", "--table", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "k,perm_no,phi,cofactor"
    assert lines[1] == "0,16,2,1"
    assert lines[-1] == "4,1,1,16"


def test_twofold_cap(capsys):
    code, _, _ = run(capsys, "twofold", "--p", "6")
    assert code == 4


def test_phi_table(capsys):
    obj = run_json(capsys, "phi-table", "--p", "3")
    assert [row["perm_no"] for row in obj["table"]] == ["16", "32", "24", "8", "1"]
    assert run(capsys, "phi-table", "--p", "0")[0] == 3
    assert run(capsys, "phi-table", "--p", "7")[0] == 4


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["necklaces"])  # missing --n
    assert exc.value.code == 2


def test_unknown_subcommand(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_non_integer_input_is_a_domain_error(capsys):
    code, out, err = run(capsys, "distance", "--a", "1,a", "--b", "11", "--alphabet", "12")
    assert (code, out) == (3, "")
    assert err.startswith("error:")
    vec = json.dumps({"p": "x", "n": 3, "l": 2, "dense": [2, 1]})
    code, out, err = run(capsys, "raise", "--vector", vec)
    assert (code, out) == (3, "")
    assert err.startswith("error:")


def test_cli_import_leaves_numpy_out():
    code = "import sys, cycseq.cli; print('numpy' in sys.modules)"
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout
    assert out.strip() == "False"
