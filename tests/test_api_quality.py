"""Meta-tests enforcing the documentation and API-quality deliverables."""

import importlib
import inspect
import pkgutil

import pytest

import repro

PACKAGES = [
    "repro",
    "repro.events",
    "repro.graph",
    "repro.pagerank",
    "repro.programs",
    "repro.models",
    "repro.streaming",
    "repro.parallel",
    "repro.datasets",
    "repro.analysis",
    "repro.reporting",
    "repro.service",
    "repro.utils",
]


def all_modules():
    seen = []
    for pkg_name in PACKAGES:
        pkg = importlib.import_module(pkg_name)
        seen.append(pkg)
        if hasattr(pkg, "__path__"):
            for info in pkgutil.iter_modules(pkg.__path__):
                seen.append(
                    importlib.import_module(f"{pkg_name}.{info.name}")
                )
    return seen


class TestDocumentation:
    def test_every_module_has_docstring(self):
        for mod in all_modules():
            assert mod.__doc__ and mod.__doc__.strip(), mod.__name__

    def test_every_public_export_documented(self):
        """Everything in a package's __all__ carries a docstring."""
        undocumented = []
        for mod in all_modules():
            for name in getattr(mod, "__all__", []):
                obj = getattr(mod, name, None)
                # only classes and functions can carry docstrings; type
                # aliases and constants are documented in the module text
                if not (inspect.isclass(obj) or inspect.isfunction(obj)):
                    continue
                if not inspect.getdoc(obj):
                    undocumented.append(f"{mod.__name__}.{name}")
        assert not undocumented, undocumented

    def test_public_classes_document_their_methods(self):
        from repro import (
            CSRGraph,
            LazyMultiWindowPartition,
            PostmortemDriver,
            TemporalAdjacency,
            TemporalEventSet,
            WindowSpec,
        )

        for cls in (
            TemporalEventSet,
            WindowSpec,
            CSRGraph,
            TemporalAdjacency,
            LazyMultiWindowPartition,
            PostmortemDriver,
        ):
            for name, member in inspect.getmembers(cls):
                if name.startswith("_") or not callable(member):
                    continue
                assert inspect.getdoc(member), f"{cls.__name__}.{name}"


class TestApiSurface:
    def test_top_level_all_resolves(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_version(self):
        assert repro.__version__

    def test_no_accidental_numpy_reexport(self):
        assert "np" not in repro.__all__
        assert "numpy" not in repro.__all__

    def test_errors_exported(self):
        from repro import ReproError, ValidationError

        assert issubclass(ValidationError, ReproError)
