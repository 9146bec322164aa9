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
