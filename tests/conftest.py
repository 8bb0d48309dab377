"""Fixtures shared by the test modules."""

import sys

import pytest


@pytest.fixture
def int_str_limit():
    """Python's default limit on the digits of an int-to-str conversion, set
    for the test whatever the environment chose."""
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this Python converts ints of any length")
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield 4300
    sys.set_int_max_str_digits(saved)
