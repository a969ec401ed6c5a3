"""The package's exports: every listed name resolves, and the top-level list
is exactly the submodules' lists plus Hypergraph."""

import pytest

import pahyper
from pahyper import analysis, core, generator, io


@pytest.mark.parametrize("module", [pahyper, analysis, core, generator, io],
                         ids=lambda m: m.__name__)
def test_listed_names_resolve(module):
    assert [name for name in module.__all__ if not hasattr(module, name)] == []


def test_package_all_is_union_of_modules():
    parts = ["Hypergraph", *analysis.__all__, *generator.__all__, *io.__all__]
    assert sorted(pahyper.__all__) == sorted(parts)
    owner = {name: m for m in (analysis, generator, io) for name in m.__all__}
    owner["Hypergraph"] = core
    assert [n for n in pahyper.__all__ if getattr(pahyper, n) is not getattr(owner[n], n)] == []
