"""The package holds only what its commands, its library API and the
benchmark use: every top-level function, class and assignment (dunders
aside) in ``src/claire`` is read in the package outside its own
definition, or is exported in ``claire.__all__``, or is one of the few
names listed below with the reason it stays. The phase-1 training step
builds no dictionary. One function reads JSON, the command line holds no
rules of its own, and only ``blas`` starts threads."""
import ast
import os

import claire

SRC = os.path.dirname(claire.__file__)

# name -> why it stays although nothing in the package refers to it
KEPT = {
    "cmd_*": "claire.cli.main dispatches each command to cmd_<command> by name",
    "kkt_violation": "the traced benchmark's independent KKT recomputation (svm.kkt_gap)",
    "additivity_gap": "the Shapley additivity check of the acceptance gates",
}
# modules whose names all stay, and why
KEPT_MODULES = {
    "synthetic": "the benchmark's and the tests' table generators, used from outside",
}


def _assigned(stmt) -> list[str]:
    """The names a top-level statement that is not a def or class assigns,
    also inside a ``try`` or ``if``, dunders aside."""
    targets = [t for node in ast.walk(stmt) if isinstance(node, (ast.Assign, ast.AnnAssign))
               for t in (node.targets if isinstance(node, ast.Assign) else [node.target])]
    return list(dict.fromkeys(t.id for t in targets if isinstance(t, ast.Name)
                              and not (t.id.startswith("__") and t.id.endswith("__"))))


def _definitions_and_references():
    """(module, name) of every top-level def, class and assignment, and for
    each identifier the set of (module, enclosing top-level name) it is read
    in; the enclosing name is the assigned one for a statement that assigns
    one name, and None elsewhere outside a def or class."""
    defined, used = [], {}
    for filename in sorted(os.listdir(SRC)):
        if not filename.endswith(".py"):
            continue
        module = filename[:-3]
        with open(os.path.join(SRC, filename), encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        for stmt in tree.body:
            owner = None
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                owner = stmt.name
                defined.append((module, owner))
            else:
                names = _assigned(stmt)
                defined += [(module, name) for name in names]
                owner = names[0] if len(names) == 1 else None
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                    used.setdefault(node.id, set()).add((module, owner))
                elif isinstance(node, ast.Attribute):
                    used.setdefault(node.attr, set()).add((module, owner))
    return defined, used


def _listed(key: str, name: str) -> bool:
    return name == key or key.endswith("*") and name.startswith(key[:-1])


def _unused(defined, used):
    """The definitions that nothing else in the package refers to and that
    ``claire.__all__`` does not export."""
    return [(module, name) for module, name in defined
            if not used.get(name, set()) - {(module, name)} and name not in claire.__all__]


def test_every_definition_is_used_exported_or_listed():
    defined, used = _definitions_and_references()
    unlisted = [f"{module}.{name}" for module, name in _unused(defined, used)
                if module not in KEPT_MODULES and not any(_listed(k, name) for k in KEPT)]
    assert unlisted == []


def test_every_listed_name_exists_and_needs_its_entry():
    defined, used = _definitions_and_references()
    unused = _unused(defined, used)
    for key in KEPT:
        matches = [d for d in defined if _listed(key, d[1])]
        assert matches and all(d in unused for d in matches), key
    for module in KEPT_MODULES:
        assert any(m == module for m, _ in unused), module


# the functions a phase-1 training step runs, by module
STEP_FUNCTIONS = {
    "network": ("batchnorm_forward", "batchnorm_backward", "dense_forward", "dense_backward",
                "_stack_forward", "_stack_backward", "training_forward", "batch_losses",
                "total_loss", "backward", "adam_step", "corrupt"),
    "training": ("train_phase1",),
}


def _builds_a_dict(node) -> bool:
    return (isinstance(node, (ast.Dict, ast.DictComp))
            or isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "dict")


def test_training_step_builds_no_dict():
    found, offenders = set(), []
    for module, names in STEP_FUNCTIONS.items():
        with open(os.path.join(SRC, f"{module}.py"), encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        for stmt in tree.body:
            if isinstance(stmt, ast.FunctionDef) and stmt.name in names:
                found.add(stmt.name)
                offenders += [f"{module}.{stmt.name}:{node.lineno}" for node in ast.walk(stmt)
                              if _builds_a_dict(node)]
    assert found == {name for names in STEP_FUNCTIONS.values() for name in names}
    assert offenders == []


def _functions_calling(module: str, test) -> set[str]:
    """The top-level functions of ``module`` with a node that passes ``test``."""
    with open(os.path.join(SRC, f"{module}.py"), encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    return {stmt.name for stmt in tree.body if isinstance(stmt, ast.FunctionDef)
            and any(test(node) for node in ast.walk(stmt))}


def _is_json_load(node) -> bool:
    return (isinstance(node, ast.Attribute) and node.attr == "load"
            and isinstance(node.value, ast.Name) and node.value.id == "json")


def _is_value_test(node) -> bool:
    """``math.isfinite`` or an ``isinstance(..., bool)`` exclusion."""
    return (isinstance(node, ast.Attribute) and node.attr == "isfinite"
            or isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "isinstance" and len(node.args) == 2
            and any(isinstance(n, ast.Name) and n.id == "bool" for n in ast.walk(node.args[1])))


def test_one_json_reader_and_one_rule_set():
    """Both JSON documents are read by one function, and the command line
    checks no value itself: its rules are the schema's codecs."""
    modules = [name[:-3] for name in os.listdir(SRC) if name.endswith(".py")]
    readers = [f"{module}.{name}" for module in modules
               for name in _functions_calling(module, _is_json_load)]
    assert readers == ["schema.read_document"]
    with open(os.path.join(SRC, "cli.py"), encoding="utf-8") as fh:
        assert not [node.lineno for node in ast.walk(ast.parse(fh.read()))
                    if _is_value_test(node)]


def test_only_blas_imports_threading():
    """``blas.in_lanes`` is the one lane runner: no other module of the
    package imports ``threading`` (or ``_thread``, or ``concurrent``)."""
    importers = []
    for filename in sorted(os.listdir(SRC)):
        if not filename.endswith(".py"):
            continue
        with open(os.path.join(SRC, filename), encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        names = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                 for alias in node.names]
        names += [node.module for node in ast.walk(tree)
                  if isinstance(node, ast.ImportFrom) and node.module]
        if any(name.split(".")[0] in ("threading", "_thread", "concurrent") for name in names):
            importers.append(filename)
    assert importers == ["blas.py"]
