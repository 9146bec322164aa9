import importlib
import pkgutil

import bbcreds


def test_every_name_in_all_resolves():
    # A stale ``__all__`` entry makes ``from bbcreds.<module> import *`` raise.
    stale = []
    for info in pkgutil.iter_modules(bbcreds.__path__):
        module = importlib.import_module(f"bbcreds.{info.name}")
        exported = getattr(module, "__all__", ())
        stale += [f"{info.name}.{n}" for n in exported if not hasattr(module, n)]
    assert stale == []
