"""Every name a package exports in ``__all__`` resolves.

A deletion that leaves an export behind fails here, including the lazy
exports (``repro.ProcessKernel``, ``repro.QueryServer``,
``repro.runtime.ProcessKernel``) that only resolve on attribute access.
"""

import importlib
import pkgutil

import pytest

import repro

PACKAGES = ["repro"] + sorted(
    info.name
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro.")
    if info.ispkg
)


@pytest.mark.parametrize("package", PACKAGES)
def test_every_exported_name_resolves(package) -> None:
    module = importlib.import_module(package)
    exported = getattr(module, "__all__", None)
    assert exported, f"{package} declares no __all__"
    assert len(set(exported)) == len(exported), f"{package} exports a name twice"
    missing = [name for name in exported if not hasattr(module, name)]
    assert not missing, f"{package}.__all__ names missing attributes: {missing}"


def test_lazy_exports_resolve_to_their_classes() -> None:
    from repro.runtime.multiprocess import ProcessKernel
    from repro.serve.server import QueryServer

    assert repro.ProcessKernel is ProcessKernel
    assert repro.QueryServer is QueryServer
    assert importlib.import_module("repro.runtime").ProcessKernel is ProcessKernel
