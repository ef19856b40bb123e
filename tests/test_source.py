import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "avrc"


def test_package_source_has_no_assert_statements():
    # python -O strips assert statements, so every invariant in the package is
    # an explicit check that raises
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert sorted(SRC.glob("*.py")), f"no sources under {SRC}"
    assert found == []
