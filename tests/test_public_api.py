"""The public API against its committed snapshot, ``public_api.json``.

Every name in ``emdyn.__all__`` and in each submodule's ``__all__`` is
listed there, sorted, so any addition or removal shows up in the diff of
that file.  After a deliberate change, rewrite it with::

    PYTHONPATH=src python tests/test_public_api.py
"""
import importlib
import json
import pkgutil
from pathlib import Path

import emdyn

SNAPSHOT = Path(__file__).with_name("public_api.json")


def public_api() -> dict:
    """Sorted ``__all__`` of ``emdyn`` and of each submodule that has one."""
    api = {"emdyn": sorted(emdyn.__all__)}
    for info in pkgutil.iter_modules(emdyn.__path__):
        mod = importlib.import_module(f"emdyn.{info.name}")
        if hasattr(mod, "__all__"):
            api[mod.__name__] = sorted(mod.__all__)
    return api


def test_public_api_matches_snapshot():
    want = json.loads(SNAPSHOT.read_text(encoding="utf-8"))
    got = public_api()
    changed = {}
    for module in sorted(set(want) | set(got)):
        old, new = set(want.get(module, ())), set(got.get(module, ()))
        if old != new:
            changed[module] = {"added": sorted(new - old),
                               "removed": sorted(old - new)}
    assert got == want, f"public API changed: {changed}; update {SNAPSHOT.name}"


if __name__ == "__main__":
    SNAPSHOT.write_text(json.dumps(public_api(), indent=1) + "\n",
                        encoding="utf-8")
