"""The package's public names: each resolves, on first access, to the object
its defining module holds, and importing the package loads none of them."""

import hashlib
import importlib
import json
import subprocess
import sys

import pytest

import toruscert

CONSTANTS = ("__version__", "CONVENTIONS", "CONVENTIONS_HASH")


def test_public_names_are_their_defining_modules_objects():
    for name in toruscert.__all__:
        if name in CONSTANTS:
            continue
        value = getattr(toruscert, name)
        assert value.__module__.startswith("toruscert."), name
        assert getattr(importlib.import_module(value.__module__), name) is value, name


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from toruscert import *", namespace)
    for name in toruscert.__all__:
        assert namespace[name] is getattr(toruscert, name), name


def test_unknown_attribute_raises_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="no_such_name"):
        toruscert.no_such_name  # noqa: B018


def test_conventions_hash():
    digest = hashlib.sha256(toruscert.CONVENTIONS.encode()).hexdigest()
    assert toruscert.CONVENTIONS_HASH == digest[:12]


def test_names_are_listed_at_import_and_loaded_on_first_access():
    script = """\
import json, sys
import toruscert
listed = set(dir(toruscert)) >= set(toruscert.__all__)
before = sorted(sys.modules)
toruscert.distance
print(json.dumps([listed, before, sorted(sys.modules)]))
"""
    baseline = subprocess.run(
        [sys.executable, "-c", "import json, sys; print(json.dumps(sorted(sys.modules)))"],
        capture_output=True, text=True, check=True,
    )
    run = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, check=True)
    base = set(json.loads(baseline.stdout))
    listed, *loaded = json.loads(run.stdout)
    before, after = (set(mods) - base for mods in loaded)
    assert listed  # dir() lists the names before any is loaded
    assert before == {"toruscert"}
    assert {"toruscert.farey", "toruscert.slopes"} <= after
    assert not after & {"hashlib", "toruscert.certify", "toruscert.matrices"}
