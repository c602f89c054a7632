"""Shared fixtures for the repro test suite."""

from __future__ import annotations

import pathlib
import shutil

import pytest

import repro
from repro.runtime import cache as cache_module

from repro.datalink.alternating_bit import make_alternating_bit
from repro.datalink.flooding import make_capacity_flooding, make_flooding
from repro.datalink.gobackn import make_gobackn
from repro.datalink.sequence import make_sequence_protocol
from repro.datalink.sequence_mod import make_modular_sequence
from repro.datalink.window import make_window_protocol

# Factories for protocols that are correct over non-FIFO channels.
NONFIFO_CORRECT_PROTOCOLS = {
    "sequence": make_sequence_protocol,
    "flooding-K2": lambda: make_flooding(2),
    "flooding-K3": lambda: make_flooding(3),
    "flooding-K5": lambda: make_flooding(5),
    "window-W4": lambda: make_window_protocol(4),
    "gobackn-W4": lambda: make_gobackn(4),
}

# Every protocol in the zoo (including ones that are only safe under
# restricted channels), for tests that probe attack surfaces.
ALL_PROTOCOLS = dict(NONFIFO_CORRECT_PROTOCOLS)
ALL_PROTOCOLS.update(
    {
        "alternating-bit": make_alternating_bit,
        "capacity-flood": lambda: make_capacity_flooding(3, 4),
        "modular-seq-M8": lambda: make_modular_sequence(8),
    }
)


@pytest.fixture(params=sorted(NONFIFO_CORRECT_PROTOCOLS))
def nonfifo_correct_pair(request):
    """A fresh (sender, receiver) pair of a non-FIFO-correct protocol."""
    return NONFIFO_CORRECT_PROTOCOLS[request.param]()


@pytest.fixture(params=sorted(NONFIFO_CORRECT_PROTOCOLS))
def nonfifo_correct_factory(request):
    """The factory itself (for code that builds several instances)."""
    return NONFIFO_CORRECT_PROTOCOLS[request.param]


@pytest.fixture(params=sorted(ALL_PROTOCOLS))
def any_protocol_factory(request):
    """Factory for every protocol in the zoo."""
    return ALL_PROTOCOLS[request.param]


# The modules that once carried their own hand-bumped cache salt
# (KERNEL_VERSION, COMPILE_VERSION, ...).  The source digest now covers
# them like every other file; the per-component invalidation tests pin
# that an edit to each one changes ``code_version()``.
SALTED_MODULES = {
    "kernel": "checker/engine.py",
    "compile": "ioa/compile.py",
    "vector": "core/vectrials.py",
    "pump": "core/vecpump.py",
    "frontier": "ioa/vecfrontier.py",
    "campaign": "campaign/engine.py",
}


@pytest.fixture
def edit_library(tmp_path, monkeypatch):
    """Return ``edit(component)``: point ``code_version()`` at a copy
    of the package whose ``SALTED_MODULES[component]`` file has had a
    comment appended, and return the new digest.

    The copy is checked to digest exactly like the original first, so
    a changed digest is due to the one edit.  Everything is restored at
    teardown.
    """
    original = cache_module.code_version()
    root = tmp_path / "edited-src" / "repro"
    shutil.copytree(
        pathlib.Path(repro.__file__).resolve().parent,
        root,
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    monkeypatch.setattr(repro, "__file__", str(root / "__init__.py"))
    monkeypatch.setattr(cache_module, "_code_version", None)
    assert cache_module.code_version() == original

    def edit(component):
        path = root / SALTED_MODULES[component]
        path.write_text(
            path.read_text(encoding="utf-8") + "\n# edited\n",
            encoding="utf-8",
        )
        monkeypatch.setattr(cache_module, "_code_version", None)
        edited = cache_module.code_version()
        assert edited != original
        return edited

    return edit
