"""Every function and class of the package is reached from the command
line, and every module-level import and constant is read.

The call graph is read from the source by name: a definition reaches
every name its body reads, as a plain name or as an attribute, and each
such name reaches every definition it names in any module.  That
over-approximates the calls (a method is reached by any attribute of its
name), so a definition it finds unreached is called by no command.  The
same reading by name finds an import that its module never reads, and a
module-level constant that no module reads.
"""

import ast
from pathlib import Path

import mbrh

SRC = Path(mbrh.__file__).parent
ROOTS = ("build_parser", "run_command", "main")
# reached from outside the package, by name
ALLOWED = {
    "thread_width": "benchmark/child.py reads it as the stamp pool width",
}


def _names(nodes):
    """The plain names and attribute names that the nodes read."""
    out = set()
    for node in nodes:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                out.add(sub.id)
            elif isinstance(sub, ast.Attribute):
                out.add(sub.attr)
    return out


def call_graph():
    """(definitions, edges, roots): each function, class and method by
    "module.qualname", the names each definition and each module-level
    assignment reads, keyed by the name they define, and the names that
    module-level statements read on import."""
    defs, edges, roots = {}, {}, set()

    def add(name, key, reads):
        defs.setdefault(name, []).append(key)
        edges.setdefault(name, set()).update(reads)

    for path in sorted(SRC.glob("*.py")):
        mod = path.stem
        for stmt in ast.parse(path.read_text()).body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                add(stmt.name, f"{mod}.{stmt.name}", _names([stmt]))
            elif isinstance(stmt, ast.ClassDef):
                body = [s for s in stmt.body
                        if not isinstance(s, ast.FunctionDef)]
                methods = [s for s in stmt.body
                           if isinstance(s, ast.FunctionDef)]
                dunders = {m.name for m in methods if m.name.startswith("__")}
                add(stmt.name, f"{mod}.{stmt.name}",
                    _names(body + stmt.bases + stmt.decorator_list) | dunders)
                for m in methods:
                    add(m.name, f"{mod}.{stmt.name}.{m.name}", _names([m]))
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) \
                    else [stmt.target]
                for name in _names(targets):
                    edges.setdefault(name, set()).update(_names([stmt.value]))
            elif not isinstance(stmt, (ast.Import, ast.ImportFrom, ast.Expr)):
                roots |= _names([stmt])
    return defs, edges, roots


def unreached():
    defs, edges, roots = call_graph()
    todo = set(roots) | set(ROOTS) | {n for n in defs if n.startswith("cmd_")}
    seen = set()
    while todo:
        name = todo.pop()
        if name not in seen:
            seen.add(name)
            todo |= edges.get(name, set()) - seen
    return sorted(key for name, keys in defs.items() if name not in seen
                  for key in keys)


def _loaded(nodes):
    """The names that the nodes read: plain names not assigned to, and
    attribute names."""
    out = set()
    for node in nodes:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name) and not isinstance(sub.ctx, ast.Store):
                out.add(sub.id)
            elif isinstance(sub, ast.Attribute):
                out.add(sub.attr)
    return out


def unread():
    """"module.name" of each module-level import that its module does not
    read, and of each module-level constant that no module reads."""
    reads, imported, assigned = {}, [], []
    for path in sorted(SRC.glob("*.py")):
        mod = path.stem
        reads[mod] = set()
        for stmt in ast.parse(path.read_text()).body:
            if isinstance(stmt, (ast.Import, ast.ImportFrom)):
                imported += [(mod, (a.asname or a.name).split(".")[0])
                             for a in stmt.names]
                continue
            reads[mod] |= _loaded([stmt])
            if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) \
                    else [stmt.target]
                assigned += [(mod, n.id) for t in targets for n in ast.walk(t)
                             if isinstance(n, ast.Name)]
    anywhere = set().union(*reads.values())
    return sorted([f"{mod}.{name}" for mod, name in imported
                   if name not in reads[mod]]
                  + [f"{mod}.{name}" for mod, name in assigned
                     if name not in anywhere])


def test_every_definition_is_reached_from_a_command():
    assert unreached() == sorted(f"cli.{name}" for name in ALLOWED)


def test_roots_are_defined():
    defs, _, _ = call_graph()
    assert all(name in defs for name in ROOTS)
    assert any(name.startswith("cmd_") for name in defs)


def test_every_import_and_constant_is_read():
    assert unread() == []
