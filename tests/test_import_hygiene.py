"""Every module reads every name it imports, and every definition has a reader that runs."""
import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "hankelpert").glob("*.py"))
# the package's __init__ re-exports what it imports, so it is not checked
DEFINING = [p for p in PACKAGE if p.name != "__init__.py"]
MODULES = DEFINING + sorted((ROOT / "tests").glob("*.py"))
# code that runs: the package itself, the benchmark harness and the acceptance gate;
# a definition that only its own unit tests read is reached by no run
RUN_READERS = PACKAGE + sorted((ROOT / "perfbench").glob("*.py")) + [
    ROOT / "tests" / "test_acceptance.py"]


def _parse(path):
    return ast.parse(path.read_text(), str(path))


def _reads(node):
    """Names ``node`` reads, as a variable or as an attribute."""
    names = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            names.add(n.id)
        elif isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load):
            names.add(n.attr)
    return names


def _unused_imports(path):
    """(line, name) of each name ``path`` imports but never reads."""
    tree = _parse(path)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted((line, name) for name, line in imported.items() if name not in read)


def test_every_imported_name_is_read():
    unused = [f"{path.relative_to(ROOT)}:{line}: {name}"
              for path in MODULES for line, name in _unused_imports(path)]
    assert unused == []


def test_every_definition_is_read_by_code_that_runs():
    """A top-level function or class of the package that nothing outside its own
    body reads, in the package, the benchmark harness or the acceptance gate."""
    trees = {path: _parse(path) for path in RUN_READERS}
    read_in = {path: _reads(tree) for path, tree in trees.items()}
    unread = []
    for path in DEFINING:
        body = trees[path].body
        # one entry per top-level statement of this module, then one per other file
        reads = [_reads(stmt) for stmt in body] + [r for p, r in read_in.items() if p != path]
        for i, node in enumerate(body):
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    and not any(node.name in r for j, r in enumerate(reads) if j != i)):
                unread.append(f"{path.relative_to(ROOT)}:{node.lineno}: {node.name}")
    assert not unread, "read by no run: " + ", ".join(unread)


def _receivers(tree):
    """(name, receiver) of each attribute read, the receiver as source text;
    ``args``, the parsed command line, is no class of the package and is left out."""
    return {(n.attr, ast.unparse(n.value)) for n in ast.walk(tree)
            if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)
            and ast.unparse(n.value) != "args"}


def _class_members(cls):
    """(line, name) of each field, method and property a class body defines."""
    for node in cls.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.lineno, node.name
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            yield node.lineno, node.target.id
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    yield node.lineno, target.id


def test_every_class_member_is_read_by_code_that_runs():
    """A field, method or property of a package class that code that runs never
    reads as an attribute; dunders are called by the language and are exempt.

    A name that k classes define needs k distinct receivers reading it, so the
    reads of one class's member cannot hide an unread one of the same name."""
    receivers = {}
    for path in RUN_READERS:
        for name, receiver in _receivers(_parse(path)):
            receivers.setdefault(name, set()).add(receiver)
    members = {}
    for path in DEFINING:
        for cls in ast.walk(_parse(path)):
            if not isinstance(cls, ast.ClassDef):
                continue
            for line, name in _class_members(cls):
                if not (name.startswith("__") and name.endswith("__")):
                    members.setdefault(name, {})[f"{path.stem}.{cls.name}"] = (
                        f"{path.relative_to(ROOT)}:{line}: {cls.name}.{name}")
    unread = [where for name, defined in members.items()
              if len(receivers.get(name, ())) < len(defined) for where in defined.values()]
    assert not unread, "read by no run: " + ", ".join(unread)


#: methods a ``NamedTuple`` record already has; a class that writes its own
#: copy of one is a hand-rolled record
RECORD_METHODS = {"__eq__", "__ne__", "__hash__", "__repr__", "__reduce__",
                  "__setattr__", "__delattr__"}


def test_no_class_hand_writes_record_methods():
    """Equality, hashing, repr, pickling and immutability come from NamedTuple."""
    written = [f"{path.relative_to(ROOT)}:{node.lineno}: {cls.name}.{node.name}"
               for path in PACKAGE for cls in ast.walk(_parse(path))
               if isinstance(cls, ast.ClassDef)
               for node in cls.body
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
               and node.name in RECORD_METHODS]
    assert not written, "hand-written record methods: " + ", ".join(written)
