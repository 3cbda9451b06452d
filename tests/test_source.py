import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "cycseq"


def test_package_has_no_assert_statements():
    # `python -O` strips asserts, so every exactness check raises instead
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []
