import contextlib
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cycseq.cli import EULER_COUNT_MAX_VERTICES, main

from conftest import naive_window_counts

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


def test_raise_at_a_huge_level(capsys):
    # neither parsing nor printing builds l^p
    vec = json.dumps({"p": 10**9, "n": 2, "l": 3, "sparse": {"1": 2}})
    start = time.perf_counter()
    code, out, _ = run(capsys, "raise", "--vector", vec)
    assert time.perf_counter() - start < 1.0
    assert code == 0
    assert json.loads(out) == {"p": 10**9 - 1, "n": 2, "l": 3, "sparse": {"1": 2}}


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


@pytest.mark.parametrize(
    "vec",
    [
        {"p": 1, "n": 2, "l": 2, "sparse": [1]},
        {"p": 1, "n": 2, "l": 2, "sparse": None},
        {"p": 1, "n": 2, "l": 2, "dense": {"1": 2}},
        {"p": 1.5, "n": 2, "l": 2, "dense": [1, 1]},
        {"p": 1, "n": 2, "l": 2, "dense": [True, 1]},
        {"p": 1, "n": 2.0, "l": 2, "dense": [1, 1]},
        {"p": 1, "n": 2, "l": 2, "sparse": {"1": "x"}},
        [1, 1],
    ],
)
def test_malformed_vector_is_a_domain_error(capsys, vec):
    code, out, err = run(capsys, "raise", "--vector", json.dumps(vec))
    assert (code, out) == (3, "")
    assert err.startswith("error:")


def test_integer_strings_are_accepted_in_vectors(capsys):
    vec = json.dumps({"p": "1", "n": 3, "l": 2, "sparse": {"1": "2", "2": 1}})
    assert run_json(capsys, "raise", "--vector", vec)["dense"] == [3]


def test_necklace_count_of_1000_prints(capsys):
    count = run_json(capsys, "necklaces", "--n", "1000")["count"]
    assert len(count) == 299


@pytest.mark.parametrize(
    "argv",
    [
        ("necklaces", "--n", "20000"),
        ("necklaces", "--n", "1000000000"),
        ("debruijn-count", "--p", "20"),
        ("euler-count", "--alphabet", "256", "--p", "1"),
        ("necklaces", "--n", str(10**400)),
        ("debruijn-count", "--p", str(10**400)),
    ],
)
def test_unprintable_counts_hit_the_cap_quickly(capsys, argv):
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (4, "")
    assert err.startswith("error:")


@pytest.mark.parametrize(
    "argv",
    [
        ("euler-count", "--p", "11"),
        ("euler-count", "--p", "1000000000"),
        ("lower", "--vector", json.dumps({"p": 1, "n": 300, "l": 3, "dense": [100, 100, 100]})),
        ("lower", "--raw", "--vector", json.dumps({"p": 0, "n": 10**6, "l": 3, "dense": [10**6]})),
        ("twofold", "--p", "5"),
        ("phi-table", "--p", "5"),
        ("lower", "--vector", json.dumps({"p": 1, "n": 80, "l": 40, "dense": [2] * 40})),
        ("lower", "--vector", json.dumps({"p": 1, "n": 160, "l": 80, "dense": [2] * 80})),
    ],
)
def test_costly_requests_hit_the_cap_quickly(capsys, argv):
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (4, "")
    assert err.startswith("error:")


@pytest.mark.parametrize("l, p", [(2, 7), (3, 4), (2, 8), (16, 2)])
def test_euler_count_below_the_cap(capsys, l, p):
    # ec(G_l(p)) is the number of de Bruijn sequences of order p + 1
    euler = run_json(capsys, "euler-count", "--alphabet", str(l), "--p", str(p))
    debruijn = run_json(capsys, "debruijn-count", "--alphabet", str(l), "--p", str(p + 1))
    assert euler == debruijn
    assert l**p <= EULER_COUNT_MAX_VERTICES


# Malformed values for a vector field; sizes stay small (l^p is not capped).
BAD_VALUES = [None, True, False, 1.5, "x", "", [], {}, -1, 0, "2", [1], {"1": 1}]


@st.composite
def vector_texts(draw):
    """Vector JSON: window counts of a random word, random counts, or one of
    those with a field dropped or replaced, or text that is no vector."""
    l, p, n = draw(st.integers(2, 3)), draw(st.integers(0, 5)), draw(st.integers(1, 10))
    if draw(st.booleans()):
        word = draw(st.lists(st.integers(0, l - 1), min_size=n, max_size=n))
        counts = naive_window_counts(word, p, l) if p else {0: n}
    else:
        counts = {}
        for j in draw(st.lists(st.integers(0, l**p - 1), min_size=n, max_size=n)):
            counts[j] = counts.get(j, 0) + 1
    obj = {"p": p, "n": n, "l": l}
    if draw(st.booleans()):
        obj["dense"] = [counts.get(j, 0) for j in range(l**p)]
    else:
        obj["sparse"] = {str(j + 1): c for j, c in counts.items()}
    kind = draw(st.sampled_from(["valid", "valid", "drop", "replace", "text"]))
    if kind == "drop":
        del obj[draw(st.sampled_from(sorted(obj)))]
    elif kind == "replace":
        obj[draw(st.sampled_from(sorted(obj)))] = draw(st.sampled_from(BAD_VALUES))
    elif kind == "text":
        return draw(st.one_of(st.text(max_size=12), st.sampled_from(["[]", "3", "null", '"p"'])))
    return json.dumps(obj)


@st.composite
def cli_argvs(draw):
    command = draw(st.sampled_from(["raise", "lower", "project", "members"]))
    if command == "project":
        l = draw(st.integers(1, 4))
        word = "".join(map(str, draw(st.lists(st.integers(0, max(l - 1, 0)), max_size=10))))
        seq = draw(st.one_of(st.just(word), st.just(word), st.text(max_size=6)))
        p = draw(st.one_of(
            st.integers(0, len(word)).map(str),
            st.integers(-1, 12).map(str),
            st.sampled_from(["x", ""]),
        ))
        return ["project", "--seq", seq, "--p", p, "--alphabet", str(l)]
    argv = [command, "--vector", draw(vector_texts())]
    if command == "lower" and draw(st.booleans()):
        argv.append("--raw")
    return argv


@settings(max_examples=300, deadline=None, derandomize=True)
@given(cli_argvs())
def test_cli_fuzz_exits_cleanly(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 2, 3, 4), (argv, code)
    assert "Traceback" not in err.getvalue()
    if code == 0:
        json.loads(out.getvalue())
