import doctest
import importlib
import pkgutil

import eqsim


def test_quick_start_runs():
    result = doctest.testmod(eqsim)
    assert result.attempted > 0
    assert result.failed == 0


def test_every_module_docstring_example_runs():
    with_examples = []
    for info in pkgutil.walk_packages(eqsim.__path__, "eqsim."):
        result = doctest.testmod(importlib.import_module(info.name))
        assert result.failed == 0, info.name
        if result.attempted:
            with_examples.append(info.name)
    assert "eqsim.compound.parser" in with_examples
