"""The tracer's patch targets must all exist in the package.

``perfbench/tracer.py`` wraps casdisp's functions under the names their
callers look them up by; a traced run fails when one is missing.  This
loads the tracer's source by path, without importing or writing anything
under ``perfbench/``, and resolves each target as its ``_patch`` does, so
that dropping or renaming a traced name fails here too.
"""

from __future__ import annotations

import importlib
import types
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _load_tracer() -> types.ModuleType:
    module = types.ModuleType("perfbench_tracer")
    module.__file__ = str(TRACER)
    exec(compile(TRACER.read_text(), str(TRACER), "exec"), module.__dict__)
    return module


tracer = _load_tracer()
TARGETS = [(module, path) for module, path, _, _ in tracer.PATCHES] + [tracer.QUADPACK]


@pytest.mark.parametrize("module, path", TARGETS, ids=[f"{m}:{p}" for m, p in TARGETS])
def test_patch_target_resolves(module, path):
    owner = importlib.import_module(module)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    assert vars(owner).get(attr) is not None


def test_no_target_is_listed_as_removed():
    assert tracer.REMOVED == {}
