from fractions import Fraction

import pytest

from hopfsmith import FieldSpec, QQ, GF, check_hopf, resolve_preset
from hopfsmith.doubles import drinfeld_double


def F(*args):
    return Fraction(*args)


# (preset spec, characteristic) pairs that are admissible together
GRID = [
    ("group:C1", 0), ("group:C1", 2),
    ("group:C2", 0), ("group:C2", 2), ("group:C2", 3), ("group:C2", 5),
    ("group:C3", 0), ("group:C3", 2), ("group:C3", 3),
    ("group:C4", 0), ("group:C4", 2),
    ("group:C6", 0), ("group:C6", 2), ("group:C6", 3),
    ("group:S3", 0), ("group:S3", 2), ("group:S3", 3),
    ("group:Q8", 0), ("group:Q8", 2),
    ("functions:C2", 0), ("functions:C2", 2), ("functions:C2", 3),
    ("functions:C3", 0), ("functions:C3", 3),
    ("functions:S3", 0), ("functions:S3", 2),
    ("sweedler", 0), ("sweedler", 3), ("sweedler", 5),
    ("taft:3:2", 7),
]

SMALL_GRID = [
    ("group:C2", 0), ("group:C2", 2), ("group:C3", 0), ("group:C3", 3),
    ("functions:C2", 0), ("functions:C2", 2), ("sweedler", 0), ("sweedler", 3),
]


def checked_double(h):
    """D(H) and the extension H -> D(H), as ``drinfeld_double`` builds them unchecked,
    once the Hopf axioms of D(H) and the extension's check pass."""
    double, ext = drinfeld_double(h)
    assert check_hopf(double).all_ok, "D(H) fails the Hopf axioms"
    return double, ext.validate()


@pytest.fixture(scope="session")
def preset_cache():
    cache = {}

    def get(spec, char=0):
        key = (spec, char)
        if key not in cache:
            cache[key] = resolve_preset(spec, FieldSpec(char))
        return cache[key]

    return get
