from fractions import Fraction

import pytest


@pytest.fixture
def fraction_builds(monkeypatch):
    """A list that gets one entry for each Fraction built while the test runs.

    Before Python 3.12 every Fraction, arithmetic results included, is built
    through Fraction.__new__; from 3.12 arithmetic builds its results through
    Fraction._from_coprime_ints, so that is counted too where it exists."""
    built = []
    plain_new = Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        built.append(args)
        return plain_new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counting_new))
    if "_from_coprime_ints" in vars(Fraction):
        plain_coprime = Fraction._from_coprime_ints

        def counting_coprime(cls, numerator, denominator):
            built.append((numerator, denominator))
            return plain_coprime(numerator, denominator)

        monkeypatch.setattr(Fraction, "_from_coprime_ints", classmethod(counting_coprime))
    return built
