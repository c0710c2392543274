"""The package's export list: each module's __all__, joined once."""

import normetric
from normetric import data, exceptions, factors, harness, learners, metrics, synthetic


def test_exports_are_the_module_lists_joined():
    modules = (exceptions, metrics, factors, data, learners, synthetic, harness)
    joined = [name for module in modules for name in module.__all__]
    assert normetric.__all__ == joined + ["__version__"]
    assert len(set(normetric.__all__)) == len(normetric.__all__)
    for name in normetric.__all__:
        assert getattr(normetric, name) is not None
    for module in modules:
        for name in module.__all__:
            assert getattr(normetric, name) is getattr(module, name)
