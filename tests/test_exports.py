import ast
import importlib
import inspect
import pkgutil
import types
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


def test_every_import_is_read():
    # The unused-import check of a linter, over the package and the tests:
    # each name an import binds is loaded somewhere in its module.
    root = Path(__file__).resolve().parents[1]
    package = Path(bbcreds.__file__).parent
    unread = []
    for path in sorted([*package.glob("*.py"), *(root / "tests").glob("*.py")]):
        tree = ast.parse(path.read_text())
        read = {
            node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.Import) or (
                isinstance(node, ast.ImportFrom) and node.module != "__future__"
            ):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    if bound not in read:
                        unread.append(f"{path.parent.name}/{path.name}: {bound}")
    assert unread == []


# Public names that no module of the package or of bench/ reads, each kept
# for its own reason.
_UNREAD_EXPORTS = {
    "frr_trial": "the single-trial reference TestBatchedReportsEqualTrials holds reports to",
    "far_trial": "the single-trial reference TestBatchedReportsEqualTrials holds reports to",
}


def _production_nodes():
    """Every syntax node of the package's modules and of bench/."""
    root = Path(__file__).resolve().parents[1]
    package = Path(bbcreds.__file__).parent
    for path in [*package.glob("*.py"), *(root / "bench").glob("*.py")]:
        yield from ast.walk(ast.parse(path.read_text()))


def _exports():
    """(module name, exported name, object) for every name in an ``__all__``."""
    for info in pkgutil.iter_modules(bbcreds.__path__):
        module = importlib.import_module(f"bbcreds.{info.name}")
        for name in getattr(module, "__all__", ()):
            yield info.name, name, getattr(module, name)


def test_every_export_is_read_outside_tests():
    # A public name that only tests read is production code kept for tests.
    # A name counts as read where it is loaded, bare or as an attribute.
    read = set()
    for node in _production_nodes():
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
    unread = {name for _, name, _ in _exports() if name not in read}
    assert unread == set(_UNREAD_EXPORTS)


def test_every_public_method_is_read_outside_tests():
    # The rule above for the public methods of exported classes. A method
    # is reached as an attribute, so only attribute names count: a local
    # variable of the same name must not keep an unread method.
    read = {node.attr for node in _production_nodes() if isinstance(node, ast.Attribute)}
    kinds = (types.FunctionType, classmethod, staticmethod, property)
    unread = [
        f"{module}.{name}.{member}"
        for module, name, owner in _exports()
        if inspect.isclass(owner)
        for member, value in vars(owner).items()
        if not member.startswith("_") and isinstance(value, kinds) and member not in read
    ]
    assert unread == []


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


_BENCH_RUN = Path(__file__).resolve().parents[1] / "bench" / "run.py"
_BENCH_MODULES = {"binding", "credential", "evaluate", "fextract", "parties", "store", "synthbio"}


def _bench_attribute(node) -> bool:
    """Whether ``node`` is a ``module.name`` of the package in bench/run.py."""
    return (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id in _BENCH_MODULES
    )


def test_bench_names_resolve():
    # bench/run.py reaches the package through module attributes such as
    # ``parties.InProcessAsp``; a rename would otherwise only fail when the
    # benchmark runs. The file is read, not imported.
    used = {
        (node.value.id, node.attr)
        for node in ast.walk(ast.parse(_BENCH_RUN.read_text()))
        if _bench_attribute(node)
    }
    missing = [
        f"{module}.{name}"
        for module, name in sorted(used)
        if not hasattr(importlib.import_module(f"bbcreds.{module}"), name)
    ]
    assert used and missing == []


def test_bench_calls_bind():
    # Each ``module.name(...)`` call in bench/run.py must still fit its
    # callee: the same number of positional arguments and the same keyword
    # names bind to the callee's signature. A signature change would
    # otherwise only fail when the benchmark runs.
    calls = [
        node for node in ast.walk(ast.parse(_BENCH_RUN.read_text()))
        if isinstance(node, ast.Call) and _bench_attribute(node.func)
    ]
    unbound = []
    for call in calls:
        module, name = call.func.value.id, call.func.attr
        assert not any(isinstance(arg, ast.Starred) for arg in call.args)
        assert all(keyword.arg for keyword in call.keywords)
        callee = getattr(importlib.import_module(f"bbcreds.{module}"), name)
        try:
            inspect.signature(callee).bind(
                *call.args, **{keyword.arg: None for keyword in call.keywords}
            )
        except TypeError as exc:
            unbound.append(f"line {call.lineno}: {module}.{name}: {exc}")
    assert calls
    assert unbound == []
