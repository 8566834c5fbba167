"""Import health: every module imports cleanly, public APIs exist."""

import importlib
import pkgutil

import repro

#: Names each package re-exports from its submodules.
PUBLIC_REEXPORTS = {
    "repro.core": ["ChangeTracker", "DeltaRecord", "IpaScheme"],
    "repro.engine": ["Database", "Schema", "Transaction"],
    "repro.flash": ["FlashChip", "FlashGeometry", "FlashMode"],
    "repro.ftl": ["IpaFtl", "NoFtlDevice", "PageMappingFtl"],
    "repro.storage": ["BufferPool", "SlottedPage", "StorageManager"],
    "repro.workloads": ["WORKLOADS"],
}


def walk_modules():
    prefix = repro.__name__ + "."
    for module in pkgutil.walk_packages(repro.__path__, prefix):
        yield module.name


class TestImports:
    def test_every_module_imports(self):
        names = list(walk_modules())
        assert len(names) > 30
        for name in names:
            importlib.import_module(name)

    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_public_reexports(self):
        for package, names in PUBLIC_REEXPORTS.items():
            module = importlib.import_module(package)
            for name in names:
                assert hasattr(module, name), f"{package}.{name} is missing"

    def test_every_public_module_has_docstring(self):
        for name in walk_modules():
            module = importlib.import_module(name)
            assert module.__doc__, f"{name} lacks a module docstring"
