import contextlib
import hashlib
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

from cycseq import count_twofold, count_twofold_exact, enumerate_necklaces, gamma_max, seqcore, ultrametric_distance
from cycseq.cli import main
from cycseq.debruijn import BEST_MAX_BRANCHING

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


# sha256 of the stdout of `cycseq necklaces --n N --alphabet L --list`, pinned
# so that a faster generator, check or printer cannot reorder or reformat a
# single necklace; (3, 12) covers the comma form of alphabets past 10.
NECKLACE_DIGESTS = [
    (18, 2, "0d88335d523a1e5aa30c134fc29ea0c1e86aab9477787557a717d9492bd1bc0a"),
    (19, 2, "e030fa55e81fd4d82ebb054b53180c384cd043b24a71e30e51baea9a5911debe"),
    (20, 2, "b3c4a873f6f2fc6f6a22299308b8217f4b6b6483c103aff7b3118f21f3b8d3f1"),
    (10, 3, "33ae378083589f0a79a5a31303bb015e7ca6be8d6b60682a61a5363263eaf290"),
    (11, 3, "92c4405d2175fef42ce9ec9ebb1d4936462229ff0630901a1dff09d4b3481984"),
    (6, 4, "7072e192b71dc94c238fc01e68e67300112abf7b1e04098733428386dceb7924"),
    (5, 5, "a537adf381f53234ba462d6c8c29030e284145a2fd6f39cb10e6f15722d70132"),
    (3, 11, "34d763d99320aaa47048c2e24a7097bf39748245641d6bd06d498d4639ad91d3"),
    (1, 2, "f56058a5da5e30081da90fc99e55d1264080a9477a719e31c137a14e9b18fd2b"),
    (3, 12, "a44a0881e3a8804d385eb4795ee242409ecd75e0184444522019eb5e1ae3a752"),
]


@pytest.mark.parametrize("n, l, digest", NECKLACE_DIGESTS, ids=[f"{n}-{l}" for n, l, _ in NECKLACE_DIGESTS])
def test_necklaces_list_output_is_pinned(capsys, n, l, digest):
    code, out, _ = run(capsys, "necklaces", "--n", str(n), "--alphabet", str(l), "--list")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("words", [("111", "110", "100", "001"), ("210", "110", "100", "000")],
                         ids=["not-maximal", "out-of-range"])
def test_necklaces_list_checks_every_word(capsys, monkeypatch, words):
    # a generator that yields, in a listing of the right length and order,
    # a word the constructor would refuse
    monkeypatch.setattr(seqcore, "_necklace_letters", lambda n, l: iter(words))
    code, out, err = run(capsys, "necklaces", "--n", "3", "--list")
    assert (code, out) == (3, "")
    assert err.startswith("error:") and "Traceback" not in err


def test_necklaces_list_builds_no_sequence(capsys, monkeypatch):
    def refuse(self):
        raise AssertionError("a CyclicSequence was built")

    monkeypatch.setattr(seqcore.CyclicSequence, "__post_init__", refuse)
    obj = run_json(capsys, "necklaces", "--n", "12", "--alphabet", "3", "--list")
    assert len(obj["necklaces"]) == int(obj["count"]) == 44368


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


@pytest.mark.parametrize(
    "text",
    ["{broken", "[" * 30000 + "]" * 30000, '{"p": 0, "n": ' + "9" * 5000 + ', "l": 2}'],
    ids=["broken", "deep", "long-literal"],
)
def test_raise_invalid_json(capsys, text):
    # not JSON, nested past the recursion limit, or a number past the
    # integer-to-string limit: a domain error, not a traceback
    code, out, err = run(capsys, "raise", "--vector", text)
    assert (code, out) == (3, "")
    assert err.startswith("error:")


def test_distance(capsys):
    obj = run_json(capsys, "distance", "--a", "11101000", "--b", "11100010")
    assert obj["gamma"] == 3
    assert obj["distance"] == pytest.approx(2.718281828 ** -3)


def test_distance_matches_the_library_on_all_small_pairs(capsys):
    # every pair of distinct binary necklaces with n <= 8: the CLI's gamma
    # and distance are the library's, bit for bit
    for n in range(1, 9):
        necklaces = enumerate_necklaces(n, 2)
        for i, a in enumerate(necklaces):
            for b in necklaces[i + 1 :]:
                obj = run_json(capsys, "distance", "--a", str(a), "--b", str(b))
                assert obj == {"gamma": gamma_max(a, b), "distance": ultrametric_distance(a, b)}


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


def test_wide_alphabet_requests(capsys):
    # lowering and listing cost only the letters a vector uses, so each of
    # these answers in well under 1 s however wide the alphabet
    L = 10**4
    vec = json.dumps({"p": 1, "n": 2, "l": L, "sparse": {"1": 1, str(L): 1}})
    start = time.perf_counter()
    obj = run_json(capsys, "lower", "--vector", vec)
    assert time.perf_counter() - start < 1.0
    assert obj == {"candidates": [{"p": 2, "n": 2, "l": L, "sparse": {str(L): 1, str((L - 1) * L + 1): 1}}]}
    l = 16384
    vec = json.dumps({"p": 0, "n": 1, "l": l, "sparse": {"1": 1}})
    start = time.perf_counter()
    obj = run_json(capsys, "lower", "--vector", vec)
    assert time.perf_counter() - start < 1.0
    assert obj["candidates"] == [{"p": 1, "n": 1, "l": l, "sparse": {str(j): 1}} for j in range(l, 0, -1)]
    L = 10**12
    vec = json.dumps({"p": 1, "n": 2, "l": L, "sparse": {"1": 1, str(L): 1}})
    start = time.perf_counter()
    obj = run_json(capsys, "members", "--vector", vec)
    assert time.perf_counter() - start < 1.0
    assert obj == {"count": "1", "sequences": [f"{L - 1},0"]}


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
    code, _, _ = run(capsys, "tree", "--n", "20")
    assert code == 4


def test_tree_negative_max_p_is_a_domain_error(capsys):
    code, out, err = run(capsys, "tree", "--n", "4", "--max-p", "-3")
    assert (code, out) == (3, "")
    assert "error:" in err and "Traceback" not in err


@pytest.mark.parametrize("alphabet", ["1", "0", "-1"])
def test_tree_alphabet_below_two_is_a_domain_error(capsys, alphabet):
    code, out, err = run(capsys, "tree", "--n", "3", "--alphabet", alphabet)
    assert (code, out) == (3, "")
    assert "error:" in err and "Traceback" not in err


def test_debruijn_and_euler_counts(capsys):
    assert run_json(capsys, "debruijn-count", "--p", "4") == {"count": "16"}
    assert run_json(capsys, "euler-count", "--p", "3") == {"count": "16"}
    obj = run_json(capsys, "debruijn-count", "--alphabet", "3", "--p", "2")
    assert obj == {"count": "24"}


def test_twofold_json(capsys):
    obj = run_json(capsys, "twofold", "--p", "3", "--table")
    assert obj["count"] == "72"
    assert [row["phi"] for row in obj["table"]] == ["2", "8", "11", "6", "1"]
    assert run_json(capsys, "twofold", "--p", "3") == {"p": 3, "count": "72"}
    for p in (1, 2, 4):
        assert run_json(capsys, "twofold", "--p", str(p)) == {"p": p, "count": str(count_twofold(p))}


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


def test_twofold_p5_table_is_a_request(capsys):
    start = time.perf_counter()
    obj = run_json(capsys, "twofold", "--p", "5", "--table")
    assert time.perf_counter() - start < 1.0
    assert obj["count"] == "38745443488"
    assert [row["k"] for row in obj["table"]] == list(range(17))
    assert obj["table"][15] == {"k": 15, "perm_no": "32", "phi": "30", "cofactor": "11059200"}


def test_phi_table(capsys):
    obj = run_json(capsys, "phi-table", "--p", "3")
    assert [row["perm_no"] for row in obj["table"]] == ["16", "32", "24", "8", "1"]
    assert run(capsys, "phi-table", "--p", "0")[0] == 3
    assert run(capsys, "phi-table", "--p", "7")[0] == 4


@pytest.mark.parametrize("p", range(1, 7))
def test_debruijn_count_fold_2_is_the_twofold_count(capsys, p):
    exact = str(count_twofold_exact(p))
    argv = ("debruijn-count", "--fold", "2", "--alphabet", "2", "--p", str(p))
    assert run_json(capsys, *argv) == {"count": exact}


# sha256 of exit code, stdout and stderr of `debruijn-count --alphabet L --p P`
# over this grid (counts, domain errors and digit-cap refusals), pinned
# before --fold existed.
DEBRUIJN_GRID = [(l, p) for l in (1, 2, 3, 5, 30) for p in (-1, 0, 1, 2, 3, 12, 13, 20)]
DEBRUIJN_GRID.append((2, 10**400))
DEBRUIJN_GRID_DIGEST = "96e7f0ceea28f41c3c0907976b7a43478a7ea70daeff62b8b6d5eb4f97f5c940"


@pytest.mark.parametrize("fold", [(), ("--fold", "1")])
def test_debruijn_count_fold_1_output_is_pinned(capsys, fold):
    digest = hashlib.sha256()
    for l, p in DEBRUIJN_GRID:
        code, out, err = run(capsys, "debruijn-count", *fold, "--alphabet", str(l), "--p", str(p))
        digest.update(f"{code}\n{out}{err}".encode())
    assert digest.hexdigest() == DEBRUIJN_GRID_DIGEST


def test_debruijn_count_fold_values_and_domain(capsys):
    # l = 3, p = 2, f = 2: (1/18) (6!^3 / 2!^9 + 3!^3) = (729000 + 216) / 18
    obj = run_json(capsys, "debruijn-count", "--fold", "2", "--alphabet", "3", "--p", "2")
    assert obj == {"count": "40512"}
    for fold in ("0", "-3"):
        code, out, err = run(capsys, "debruijn-count", "--fold", fold, "--p", "2")
        assert (code, out) == (3, "")
        assert err.startswith("error:")


@pytest.mark.parametrize(
    "fold", ["5000", "1000000000", str(10**400)], ids=["5000", "10^9", "10^400"]
)
def test_debruijn_count_huge_fold_hits_the_cap_quickly(capsys, fold):
    start = time.perf_counter()
    code, out, err = run(capsys, "debruijn-count", "--fold", fold, "--p", "3")
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (4, "")
    assert err.startswith("error:")


class _FailingStdout(io.StringIO):
    """A stdout whose every write raises the given OSError."""

    def __init__(self, error):
        super().__init__()
        self.error = error

    def write(self, text):
        raise self.error


# One command per printer: _emit, _print_table's CSV and cmd_tree.
WRITING_ARGVS = [
    ("necklaces", "--n", "12", "--list"),
    ("twofold", "--p", "3", "--table", "--format", "csv"),
    ("tree", "--n", "6"),
]


@pytest.mark.parametrize("argv", WRITING_ARGVS)
def test_closed_pipe_exits_quietly(argv):
    err = io.StringIO()
    stdout = _FailingStdout(BrokenPipeError(32, "Broken pipe"))
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(err):
        code = main(list(argv))
    assert code == 0
    assert "error" not in err.getvalue() and "Traceback" not in err.getvalue()


@pytest.mark.parametrize("argv", WRITING_ARGVS)
def test_write_error_exits_5(argv):
    err = io.StringIO()
    stdout = _FailingStdout(OSError(28, "No space left on device"))
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(err):
        code = main(list(argv))
    assert code == 5
    lines = [line for line in err.getvalue().splitlines() if line.startswith("error:")]
    assert len(lines) == 1 and "No space left on device" in lines[0]


@pytest.mark.parametrize(
    "argv, head",
    [
        # `cycseq necklaces --n 18 --list | head -c 20`: about 280 kB of
        # JSON, more than a pipe holds, so a write meets the closed pipe.
        (("necklaces", "--n", "18", "--list"), b'{"count": "14602", "'),
        # The reader is gone before anything is written; the few bytes sit
        # in the buffer until the final flush.
        (("necklaces", "--n", "3"), b""),
        # 157 kB of DOT, streamed node by node: the pipe closes in the
        # middle of the export.
        (("tree", "--n", "16", "--half", "--format", "dot"), b"digraph clusters {\n"),
    ],
)
def test_reader_closing_early_is_not_an_error(argv, head):
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "cycseq.cli", *argv],
        env={**os.environ, "PYTHONPATH": path},
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    assert proc.stdout.read(len(head)) == head
    proc.stdout.close()
    err = proc.stderr.read()
    assert proc.wait(timeout=60) == 0
    # `tree` reports its progress on stderr; nothing else may be there
    progress = (b"building cluster tree ...", b"done: ")
    assert [line for line in err.splitlines() if not line.startswith(progress)] == []


@pytest.mark.parametrize(
    "argv",
    [
        ["necklaces"],  # missing --n
        # the caps are module constants; no flag lifts them
        ["necklaces", "--n", "40", "--list", "--max-bits", "1000"],
        ["members", "--max-n", "60", "--vector", json.dumps({"p": 1, "n": 4, "l": 2, "dense": [2, 2]})],
        ["tree", "--n", "30", "--max-n", "30"],
    ],
    ids=["missing-n", "necklaces-max-bits", "members-max-n", "tree-max-n"],
)
def test_usage_error_exit_code(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
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


def test_optimized_interpreter_prints_the_same_tree():
    # `python -O` strips assert statements; the exactness checks are raises
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    argv = ["-m", "cycseq.cli", "tree", "--n", "10"]
    outs = [
        subprocess.run(
            [sys.executable, *flags, *argv], env=env, capture_output=True, check=True
        ).stdout
        for flags in ([], ["-O"])
    ]
    assert outs[0] and outs[0] == outs[1]


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
        ("twofold", "--p", "6"),
        ("phi-table", "--p", "6"),
        ("lower", "--vector", json.dumps({"p": 1, "n": 80, "l": 40, "dense": [2] * 40})),
        ("lower", "--vector", json.dumps({"p": 1, "n": 160, "l": 80, "dense": [2] * 80})),
        ("twofold", "--p", "30", "--table"),
        ("twofold", "--p", "1000000000"),
        ("phi-table", "--p", "1000000000"),
        ("lower", "--vector", json.dumps({"p": 10**8, "n": 2, "l": 3, "sparse": {"1": 2}})),
        ("lower", "--raw", "--vector", json.dumps({"p": 10**8, "n": 2, "l": 3, "sparse": {"1": 2}})),
        ("members", "--vector", json.dumps({"p": 10**8, "n": 2, "l": 3, "sparse": {"1": 2}})),
        ("lower", "--vector", json.dumps({"p": 70000, "n": 70000, "l": 2, "sparse": {"1": 70000}})),
        ("necklaces", "--n", "100", "--list"),
        ("necklaces", "--n", "5000", "--alphabet", "3", "--list"),
        ("members", "--vector", json.dumps({"p": 1, "n": 20, "l": 3, "dense": [7, 7, 6]})),
        (
            "lower",
            "--raw",
            "--vector",
            json.dumps({"p": 0, "n": 3 * 10**5, "l": 10**8, "sparse": {"1": 3 * 10**5}}),
        ),
    ],
)
def test_costly_requests_hit_the_cap_quickly(capsys, argv):
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (4, "")
    assert err.startswith("error:")


@pytest.mark.parametrize(
    "argv",
    [
        ("lower", "--vector", json.dumps({"p": 40, "n": 40, "l": 2, "sparse": {"1": 40}})),
        ("lower", "--raw", "--vector", json.dumps({"p": 3, "n": 3, "l": 2, "dense": [0, 0, 0, 1, 0, 1, 1, 0]})),
        ("members", "--vector", json.dumps({"p": 4, "n": 3, "l": 2, "sparse": {"1": 3}})),
    ],
)
def test_levels_past_n_are_a_domain_error(capsys, argv):
    # project refuses a level past n, and so do lower and members
    code, out, err = run(capsys, *argv)
    assert (code, out) == (3, "")
    assert err.startswith("error:")


@pytest.mark.parametrize("l, p", [(2, 7), (3, 4), (2, 8), (16, 2), (2, 9), (8, 3), (17, 2)])
def test_euler_count_below_the_cap(capsys, l, p):
    # ec(G_l(p)) is the number of de Bruijn sequences of order p + 1; every
    # vertex of G_l(p) branches, so the BEST cap bounds euler-count
    euler = run_json(capsys, "euler-count", "--alphabet", str(l), "--p", str(p))
    debruijn = run_json(capsys, "debruijn-count", "--alphabet", str(l), "--p", str(p + 1))
    assert euler == debruijn
    assert l**p <= BEST_MAX_BRANCHING


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


def size_flags(small, past):
    """Text of an integer flag: a small valid value (drawn twice as often),
    a negative one, one just past a cap, or a huge one."""
    return st.one_of(
        st.integers(*small),
        st.integers(*small),
        st.integers(-3, -1),
        st.sampled_from(past),
        st.integers(10**6, 10**30),
    ).map(str)


# The sized commands: each integer flag with its small valid values and the
# values just past its caps (the tree's necklace budget, the listing and
# printing caps of the counts, Phi's block cap, the window and BEST caps of
# euler-count), and each switch. The small values keep every admitted run
# well under a second.
SIZED_COMMANDS = {
    "tree": (
        {"--n": ((0, 7), [20]), "--alphabet": ((1, 4), [32769, 256, 47]), "--max-p": ((0, 4), [17])},
        ["--half"],
    ),
    "necklaces": (
        {"--n": ((0, 8), [25, 16, 13, 14286]), "--alphabet": ((1, 4), [10**6])},
        ["--list"],
    ),
    "twofold": ({"--p": ((0, 4), [6, 14])}, ["--table"]),
    "phi-table": ({"--p": ((0, 4), [6, 14])}, []),
    "euler-count": ({"--alphabet": ((1, 4), [23, 257]), "--p": ((0, 4), [10, 6])}, []),
    "debruijn-count": (
        {"--alphabet": ((1, 4), [4301]), "--p": ((0, 6), [15]), "--fold": ((1, 4), [8601])},
        [],
    ),
}


@st.composite
def cli_argvs(draw):
    command = draw(st.sampled_from(["raise", "lower", "project", "members", *SIZED_COMMANDS]))
    if command in SIZED_COMMANDS:
        flags, switches = SIZED_COMMANDS[command]
        argv = [command]
        for flag, (small, past) in flags.items():
            argv += [flag, draw(size_flags(small, past))]
        return argv + [switch for switch in switches if draw(st.booleans())]
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


@settings(max_examples=600, deadline=None, derandomize=True)
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
