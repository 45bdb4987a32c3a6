import doctest

import eqsim


def test_quick_start_runs():
    result = doctest.testmod(eqsim)
    assert result.attempted > 0
    assert result.failed == 0
