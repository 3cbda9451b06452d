import ast
import importlib.util
import inspect
from pathlib import Path

import cycseq
import cycseq.cli
from cycseq import (
    build_tree,
    count_twofold_bruteforce,
    count_twofold_exact,
    enumerate_necklaces,
    enumerate_sequences_with_frequency,
    necklace_strings,
    phi,
)

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "cycseq"


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


def _benchmark_wrapped_attributes():
    """(module name, attribute) of every module attribute that the
    benchmark's span tracer, bench/spans.py, replaces by name."""
    spec = importlib.util.spec_from_file_location("_bench_spans", ROOT / "bench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return {
        (owner.__name__, attr)
        for owner, attr, _, _ in spans.wrap_points(cycseq)
        if inspect.ismodule(owner)
    }


def test_every_unused_import_is_one_the_benchmark_wraps():
    # an import marked unused stays only for the tracer to wrap; once the
    # benchmark stops wrapping it, it is dead and goes
    wrapped = _benchmark_wrapped_attributes()
    marked, dead = [], []
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text()
        lines = source.splitlines()
        for node in ast.walk(ast.parse(source, str(path))):
            if not isinstance(node, ast.ImportFrom):
                continue
            span = lines[node.lineno - 1 : node.end_lineno]
            if not any("# noqa: F401" in line for line in span):
                continue
            for alias in node.names:
                name = alias.asname or alias.name
                marked.append(name)
                if (f"cycseq.{path.stem}", name) not in wrapped:
                    dead.append(f"{path.name}:{node.lineno} {name}")
    assert marked
    assert dead == []
