"""Shared fixtures: substitution files on disk plus parsed sets.

The three-letter pair shares the cubic unimodular Pisot matrix, the
two-letter pair has mismatched matrices, and the four-letter shiftup one is
the standard primitive unimodular counterexample whose secondary eigenvalues
leave the unit disk.  The 4-bonacci substitution is unimodular Pisot with
characteristic polynomial x^4 - x^3 - x^2 - x - 1.  The Fibonacci, plastic
and 5-bonacci sets are unimodular Pisot at d = 2, 3 and 5; the plastic pair
(x^3 - x - 1) is not k-bonacci.
"""

import tracemalloc

import pytest

from rauzy.adic import SubstitutionSet
from rauzy.core import load_substitution_file

TRIBO_TEXT = """\
# two substitutions with the same incidence matrix
alphabet: abc

[sub tribo]
a -> ab
b -> ac
c -> a

[sub flipped]
a -> ab
b -> ca
c -> a
"""

STURMIAN_TEXT = """\
alphabet: 01

[sub zero]
0 -> 0
1 -> 10

[sub one]
0 -> 01
1 -> 1
"""

QUARTIC_TEXT = """\
alphabet: abcd

[sub shiftup]
a -> b
b -> c
c -> d
d -> ab
"""

TETRA_TEXT = """\
alphabet: abcd

[sub tetra]
a -> ab
b -> ac
c -> ad
d -> a
"""

FIB_TEXT = """\
alphabet: ab

[sub fib]
a -> ab
b -> a
"""

PLASTIC_TEXT = """\
alphabet: abc

[sub one]
a -> b
b -> c
c -> ab

[sub two]
a -> b
b -> c
c -> ba
"""

PENTA_TEXT = """\
alphabet: abcde

[sub penta]
a -> ab
b -> ac
c -> ad
d -> ae
e -> a
"""

DOUBLING_TEXT = """\
alphabet: ab

[sub tm]
a -> ab
b -> ba
"""


@pytest.fixture(scope="session")
def data_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("subs")
    (d / "tribo.subs").write_text(TRIBO_TEXT)
    (d / "sturmian.subs").write_text(STURMIAN_TEXT)
    (d / "quartic.subs").write_text(QUARTIC_TEXT)
    (d / "doubling.subs").write_text(DOUBLING_TEXT)
    (d / "tetra.subs").write_text(TETRA_TEXT)
    (d / "fib.subs").write_text(FIB_TEXT)
    (d / "plastic.subs").write_text(PLASTIC_TEXT)
    (d / "penta.subs").write_text(PENTA_TEXT)
    return d


@pytest.fixture(scope="session")
def tribo_path(data_dir):
    return str(data_dir / "tribo.subs")


@pytest.fixture(scope="session")
def sturmian_path(data_dir):
    return str(data_dir / "sturmian.subs")


@pytest.fixture(scope="session")
def quartic_path(data_dir):
    return str(data_dir / "quartic.subs")


@pytest.fixture(scope="session")
def tribo_set(tribo_path):
    return SubstitutionSet(load_substitution_file(tribo_path))


@pytest.fixture(scope="session")
def tribo_sd(tribo_set):
    return tribo_set.spectral()


@pytest.fixture(scope="session")
def sturmian_set(sturmian_path):
    return SubstitutionSet(load_substitution_file(sturmian_path))


@pytest.fixture(scope="session")
def quartic_set(quartic_path):
    return SubstitutionSet(load_substitution_file(quartic_path))


@pytest.fixture(scope="session")
def doubling_set(data_dir):
    return SubstitutionSet(load_substitution_file(str(data_dir / "doubling.subs")))


@pytest.fixture(scope="session")
def tetra_set(data_dir):
    return SubstitutionSet(load_substitution_file(str(data_dir / "tetra.subs")))


@pytest.fixture(scope="session")
def plastic_set(data_dir):
    return SubstitutionSet(load_substitution_file(str(data_dir / "plastic.subs")))


@pytest.fixture(scope="session")
def penta_set(data_dir):
    return SubstitutionSet(load_substitution_file(str(data_dir / "penta.subs")))


@pytest.fixture
def traced_peak():
    """A function that calls fn() under tracemalloc and returns its result
    and the peak bytes allocated during the call; tracing stops even when
    fn raises."""

    def run(fn):
        tracemalloc.start()
        try:
            result = fn()
            return result, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    return run
