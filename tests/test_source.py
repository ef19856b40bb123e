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



def _trees():
    return {path.name: ast.parse(path.read_text(), str(path)) for path in sorted(SRC.glob("*.py"))}


def _loaded_names(tree):
    return {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}


def _read_names(trees):
    """Every name some module loads, bare or as an attribute."""
    read = set()
    for tree in trees.values():
        read |= _loaded_names(tree)
        read |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    return read


def _exported(tree):
    """The names a module lists in __all__."""
    return {elt.value for node in tree.body if isinstance(node, ast.Assign)
            for target in node.targets if getattr(target, "id", None) == "__all__"
            for elt in node.value.elts}


def test_every_private_module_level_name_is_referenced():
    # a helper or constant that no module reads any more is dead code
    trees = _trees()
    read = _read_names(trees)
    dead = []
    for name, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            dead += [f"{name}:{node.lineno} {d}" for d in defined
                     if d.startswith("_") and not d.startswith("__") and d not in read]
    assert dead == []


def test_every_public_module_level_function_and_class_is_read_or_exported():
    # a public function or class that no module reads and the package does not
    # export is dead code too
    trees = _trees()
    kept = _read_names(trees) | _exported(trees["__init__.py"])
    dead = [f"{name}:{node.lineno} {node.name}" for name, tree in trees.items()
            for node in tree.body if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("_") and node.name not in kept]
    assert dead == []


def test_every_imported_name_is_used():
    unused = []
    for name, tree in _trees().items():
        # a package re-exports what it lists in __all__
        used = _loaded_names(tree) | _exported(tree)
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                unused += [f"{name}:{node.lineno} {alias.name}" for alias in node.names
                           if (alias.asname or alias.name.split(".")[0]) not in used]
    assert unused == []


def test_no_module_reads_another_modules_private_name():
    # a private name is its own module's business; _fields is a private module
    # of public names, shared by the readers
    found = []
    for name, tree in _trees().items():
        modules = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules |= {(alias.asname or alias.name).split(".")[0] for alias in node.names}
            elif isinstance(node, ast.ImportFrom):
                path = (node.module or "").split(".")
                found += [f"{name}:{node.lineno} {node.module}" for part in path
                          if part.startswith("_") and part != "_fields"]
                found += [f"{name}:{node.lineno} {alias.name}" for alias in node.names
                          if alias.name.startswith("_")]
                if node.module is None:   # from . import module
                    modules |= {alias.asname or alias.name for alias in node.names}
        # module.name, with the module bound by an import
        found += [f"{name}:{attr.lineno} {attr.value.id}.{attr.attr}" for attr in ast.walk(tree)
                  if isinstance(attr, ast.Attribute) and isinstance(attr.value, ast.Name)
                  and attr.value.id in modules and attr.attr.startswith("_")
                  and not attr.attr.startswith("__")]
    assert found == []
