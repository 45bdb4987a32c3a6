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


def test_every_command_number_is_taken_once():
    # LocalNode.register_handler replaces a handler without a word, so two
    # command constants sharing a number would silently steal each other's commands
    constants = set()
    for info in pkgutil.walk_packages(eqsim.__path__, "eqsim."):
        module = importlib.import_module(info.name)
        constants |= {(name, value) for name, value in vars(module).items() if name.startswith("CMD_")}
    assert len(constants) >= 10
    numbers = {}
    for name, value in sorted(constants):
        assert value not in numbers, f"{name} and {numbers[value]} share {value:#x}"
        numbers[value] = name
