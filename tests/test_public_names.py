"""The package's public names: ``fdrdist.__all__`` is the union of the
modules' own ``__all__`` lists, and each module lists every public
class and function it defines."""
import inspect

import pytest

import fdrdist
from fdrdist import (
    count_dist, dependence, errors, mle, power, psi_dist, simulate,
)

MODULES = (errors, psi_dist, count_dist, dependence, mle, power, simulate)


def test_package_all_is_the_union_of_module_lists():
    union = [name for m in MODULES for name in m.__all__]
    assert len(union) == len(set(union))
    assert sorted(fdrdist.__all__) == sorted(union)
    for name in fdrdist.__all__:
        assert getattr(fdrdist, name) is not None


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_module_lists_its_public_definitions(module):
    defined = {
        name for name, obj in vars(module).items()
        if not name.startswith("_")
        and (inspect.isclass(obj) or inspect.isfunction(obj))
        and obj.__module__ == module.__name__
    }
    assert defined <= set(module.__all__)


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from fdrdist import *", namespace)
    assert "theta_to_beta" in namespace
    assert "chained_upper_bound" in namespace
    assert set(fdrdist.__all__) <= set(namespace)
