"""Run the library's embedded doctests (the examples in docstrings are
part of the documented contract, so they must stay true)."""

import doctest
import importlib
import pkgutil

import pytest

import repro

# Modules with interactive examples worth executing. Kept explicit so a
# failing doctest names its module directly.
DOCTEST_MODULES = [
    "repro.util.units",
    "repro.util.tables",
    "repro.bio.seq",
    "repro.bio.fastq",
    "repro.bio.kmer",
    "repro.sim.engine",
    "repro.sim.rng",
    "repro.core.pipeline",
    "repro.wms.monitor",
    "repro.observe.bus",
    "repro.observe.metrics",
    "repro.observe.sampler",
]


@pytest.mark.parametrize("module_name", DOCTEST_MODULES)
def test_doctests(module_name):
    module = importlib.import_module(module_name)
    results = doctest.testmod(
        module, optionflags=doctest.NORMALIZE_WHITESPACE, verbose=False
    )
    assert results.failed == 0, f"{results.failed} doctest(s) failed"
    assert results.attempted > 0, f"no doctests found in {module_name}"


def test_every_public_module_imports():
    """Import every submodule — catches dead imports and syntax rot in
    modules the test suite might not otherwise touch."""
    count = 0
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        importlib.import_module(info.name)
        count += 1
    assert count > 40
