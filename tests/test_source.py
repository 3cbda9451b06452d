import ast
import inspect
from pathlib import Path

from cycseq import (
    build_tree,
    count_twofold_bruteforce,
    count_twofold_exact,
    enumerate_necklaces,
    enumerate_sequences_with_frequency,
    necklace_strings,
    phi,
)

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "cycseq"


def test_package_has_no_assert_statements():
    # `python -O` strips asserts, so every exactness check raises instead
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_no_argument_lifts_a_cap():
    # every cap is a module constant; these are the whole signatures
    expected = {
        enumerate_necklaces: ["n", "l"],
        necklace_strings: ["n", "l"],
        count_twofold_bruteforce: ["p", "l", "f"],
        enumerate_sequences_with_frequency: ["z"],
        build_tree: ["n", "l", "max_p", "half_tree"],
        count_twofold_exact: ["p"],
        phi: ["p", "k"],
    }
    for func, names in expected.items():
        assert list(inspect.signature(func).parameters) == names, func.__name__
