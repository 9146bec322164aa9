import ast
import importlib
import pkgutil
from pathlib import Path

import bbcreds


def test_every_name_in_all_resolves():
    # A stale ``__all__`` entry makes ``from bbcreds.<module> import *`` raise.
    stale = []
    for info in pkgutil.iter_modules(bbcreds.__path__):
        module = importlib.import_module(f"bbcreds.{info.name}")
        exported = getattr(module, "__all__", ())
        stale += [f"{info.name}.{n}" for n in exported if not hasattr(module, n)]
    assert stale == []


def test_one_public_home_per_name():
    # The package root imports nothing, and each module defines every name in
    # its __all__ itself, so a public name has one module to be imported from.
    package = Path(bbcreds.__file__).parent
    trees = {path.stem: ast.parse(path.read_text()) for path in package.glob("*.py")}
    imports = [
        node for node in ast.walk(trees["__init__"])
        if isinstance(node, (ast.Import, ast.ImportFrom))
    ]
    assert imports == []
    borrowed = []
    for module, tree in trees.items():
        defined, exported = set(), []
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.add(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = {target.id for target in targets if isinstance(target, ast.Name)}
                defined |= names
                if "__all__" in names:
                    exported = ast.literal_eval(node.value)
        borrowed += [f"{module}.{name}" for name in exported if name not in defined]
    assert borrowed == []


def test_no_private_imports_between_modules():
    # An underscore name belongs to its module; a second module that needs
    # it needs a public name.
    package = Path(bbcreds.__file__).parent
    private = [
        f"{path.stem}: from {node.module} import {alias.name}"
        for path in package.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ImportFrom)
        and (node.level or (node.module or "").split(".")[0] == "bbcreds")
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert private == []


def test_traced_layers_resolve():
    # bench/tracer.py patches these (module, attribute) pairs; a rename in the
    # package would otherwise only fail `bench/run.py --trace 1`. The file is
    # read, not imported.
    tracer = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"
    (layers,) = [
        ast.literal_eval(node.value)
        for node in ast.parse(tracer.read_text()).body
        if isinstance(node, ast.Assign)
        and any(getattr(target, "id", None) == "LAYERS" for target in node.targets)
    ]
    missing = []
    for _, module, qualified in layers:
        owner = importlib.import_module(f"bbcreds.{module}")
        for part in qualified.split("."):
            owner = getattr(owner, part, None)
        if owner is None:
            missing.append(f"{module}.{qualified}")
    assert layers and missing == []


def test_bench_names_resolve():
    # bench/run.py reaches the package through module attributes such as
    # ``parties.InProcessAsp``; a rename would otherwise only fail when the
    # benchmark runs. The file is read, not imported.
    run = Path(__file__).resolve().parents[1] / "bench" / "run.py"
    modules = {"binding", "credential", "evaluate", "fextract", "parties", "store", "synthbio"}
    used = {
        (node.value.id, node.attr)
        for node in ast.walk(ast.parse(run.read_text()))
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id in modules
    }
    missing = [
        f"{module}.{name}"
        for module, name in sorted(used)
        if not hasattr(importlib.import_module(f"bbcreds.{module}"), name)
    ]
    assert used and missing == []
