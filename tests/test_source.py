import ast
import importlib.util
import inspect
import re
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


def test_every_import_is_used():
    # a name a module imports and never reads is dead; the exceptions are
    # the package's re-exports in __init__.py and the imports marked for the
    # benchmark's tracer, which the test above ties to bench/spans.py
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        source = path.read_text()
        lines = source.splitlines()
        tree = ast.parse(source, str(path))
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            span = lines[node.lineno - 1 : node.end_lineno]
            if any("# noqa: F401" in line for line in span):
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in read:
                    unused.append(f"{path.name}:{node.lineno} {name}")
    assert unused == []


# module.NAME for a cycseq module, not followed by a file suffix
MODULE_REFERENCE = re.compile(
    r"\b(cli|clustertree|debruijn|freqspace|lowering|seqcore|twofold)\.(?!py\b)([A-Za-z_]\w*)"
)


def test_every_module_reference_in_the_docs_exists():
    # a constant or function named in the README, a docstring, a comment or
    # a script must still be there, so that no text names a deleted cap
    paths = [ROOT / "README.md", *sorted(PACKAGE.glob("*.py")), *sorted((ROOT / "scripts").glob("*.py"))]
    seen, missing = 0, []
    for path in paths:
        for number, line in enumerate(path.read_text().splitlines(), 1):
            for match in MODULE_REFERENCE.finditer(line):
                seen += 1
                module = importlib.import_module(f"cycseq.{match[1]}")
                if not hasattr(module, match[2]):
                    missing.append(f"{path.name}:{number} {match[0]}")
    assert seen
    assert missing == []


def test_every_local_is_read():
    # a name a function stores and never reads is dead work, such as a
    # value built on every call and thrown away; "_" marks one on purpose
    unread = []
    for path in sorted(PACKAGE.glob("*.py")):
        for func in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            names = [node for node in ast.walk(func) if isinstance(node, ast.Name)]
            read = {node.id for node in names if isinstance(node.ctx, ast.Load)}
            for node in names:
                if isinstance(node.ctx, ast.Store) and node.id != "_" and node.id not in read:
                    unread.append(f"{path.name}:{node.lineno} {func.name}.{node.id}")
    assert unread == []
