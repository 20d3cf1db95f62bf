"""The benchmark's workloads: fixed lists of CLI queries with expected verdicts.

Every expected exit code below was written down from the theory, not copied
from the program's output (0 = property holds / report emitted, 1 = property
refuted, 2 = input error).  A query whose exit code differs is a failed query.

The GRID rows are the 30 (preset, characteristic) cases of
``tests/conftest.py``, copied here so that the workload stays fixed even if
the test grid changes.  Each row is one case; each verdict column is one
query, so every query of ``certify`` and of the GRID part of ``structure``
has its own cell.  ``COLUMN_WHY`` cites what fixes a column, the row's last
field says which case of the column rule applies.
"""

from __future__ import annotations

CERTIFY_COMMANDS = ["separable", "coseparable", "ad-invariant", "ad-coinvariant",
                    "fs-algebra", "fs-coalgebra"]
STRUCTURE_COMMANDS = ["check-axioms", "integrals", "coradical", "wedge-filtration",
                      "lift-section", "weak-projection"]

# kG is separable iff char does not divide |G| (Maschke) and always coseparable
# (its group-likes span it); k^G is the dual, so the reverse holds.  Sweedler
# and Taft are neither semisimple nor cosemisimple.
#                        |-------------- certify --------------|  |------------- structure -------------|
# preset        char     sep cosep adinv adcoinv fsalg fscoalg     axioms integ corad wedge lift weakproj   case
GRID_TABLE = """
group:C1          0       0    0     0     0       0     0          0      0     0     0     0     0      kG, char 0
group:C1          2       0    0     0     0       0     0          0      0     0     0     0     0      kG, 2 does not divide 1
group:C2          0       0    0     0     0       0     0          0      0     0     0     0     0      kG, char 0
group:C2          2       1    0     0     1       1     0          0      0     0     0     0     0      kG, 2 divides 2
group:C2          3       0    0     0     0       0     0          0      0     0     0     0     0      kG, 3 does not divide 2
group:C2          5       0    0     0     0       0     0          0      0     0     0     0     0      kG, 5 does not divide 2
group:C3          0       0    0     0     0       0     0          0      0     0     0     0     0      kG, char 0
group:C3          2       0    0     0     0       0     0          0      0     0     0     0     0      kG, 2 does not divide 3
group:C3          3       1    0     0     1       1     0          0      0     0     0     0     0      kG, 3 divides 3
group:C4          0       0    0     0     0       0     0          0      0     0     0     0     0      kG, char 0
group:C4          2       1    0     0     1       1     0          0      0     0     0     0     0      kG, 2 divides 4
group:C6          0       0    0     0     0       0     0          0      0     0     0     0     0      kG, char 0
group:C6          2       1    0     0     1       1     0          0      0     0     0     0     0      kG, 2 divides 6
group:C6          3       1    0     0     1       1     0          0      0     0     0     0     0      kG, 3 divides 6
group:S3          0       0    0     0     0       0     0          0      0     0     0     0     0      kG, char 0
group:S3          2       1    0     0     1       1     0          0      0     0     0     0     0      kG, 2 divides 6
group:S3          3       1    0     0     1       1     0          0      0     0     0     0     0      kG, 3 divides 6
group:Q8          0       0    0     0     0       0     0          0      0     0     0     0     0      kG, char 0
group:Q8          2       1    0     0     1       1     0          0      0     0     0     0     0      kG, 2 divides 8
functions:C2      0       0    0     0     0       0     0          0      0     0     0     0     0      k^G, char 0
functions:C2      2       0    1     1     0       0     1          0      0     0     0     0     0      k^G, 2 divides 2; coradical k1
functions:C2      3       0    0     0     0       0     0          0      0     0     0     0     0      k^G, 3 does not divide 2
functions:C3      0       0    0     0     0       0     0          0      0     0     0     0     0      k^G, char 0
functions:C3      3       0    1     1     0       0     1          0      0     0     0     0     0      k^G, 3 divides 3; coradical k1
functions:S3      0       0    0     0     0       0     0          0      0     0     0     0     0      k^G, char 0
functions:S3      2       0    1     1     0       0     1          0      0     0     0     0     2      k^G, 2 divides 6; coradical not a subalgebra
sweedler          0       1    1     1     1       1     1          0      0     0     0     0     0      Sweedler, pointed, coradical kC2
sweedler          3       1    1     1     1       1     1          0      0     0     0     0     0      Sweedler, pointed, coradical kC2
sweedler          5       1    1     1     1       1     1          0      0     0     0     0     0      Sweedler, pointed, coradical kC2
taft:3:2          7       1    1     1     1       1     1          0      0     0     0     0     0      Taft(3), pointed, coradical kC3
"""

COLUMN_WHY = {
    "separable": "Maschke: H is separable iff it has a normalized integral in H",
    "coseparable": "dual Maschke (Larson-Sweedler): H is coseparable iff H* has a "
                   "normalized integral",
    "ad-invariant": "an ad-invariant integral is normalized, so it needs H coseparable; "
                    "kG always has one (acceptance criterion 2), and on the commutative "
                    "k^G every normalized integral is ad-invariant",
    "ad-coinvariant": "an ad-coinvariant integral is normalized, so it needs H separable; "
                      "on the cocommutative kG every normalized integral is "
                      "ad-coinvariant, and k^G has one by the dual of criterion 2",
    "fs-algebra": "criterion 1: an fs-section on H^+ exists iff H is separable",
    "fs-coalgebra": "dual of criterion 1: an fs-retraction on H-bar exists iff H is "
                    "coseparable",
    "check-axioms": "every preset is a Hopf algebra, so all axioms hold",
    "integrals": "the integral spaces always exist; the report is always emitted",
    "coradical": "the coradical always exists; the report is always emitted",
    "wedge-filtration": "the coradical filtration of a finite-dimensional coalgebra "
                        "exhausts it (Taft-Wilson; acceptance criterion 7)",
    "lift-section": "criterion 8: the square-zero lift always exists",
    "weak-projection": "acceptance criterion 9: a weak projection onto the coradical "
                       "exists when the coradical is a Hopf subalgebra (pointed or "
                       "cosemisimple H, or k^G with (kG/rad kG)* a Hopf subalgebra); "
                       "on functions:S3 over F_2 the coradical is not a subalgebra, "
                       "so the input is rejected with exit 2",
}

# The larger non-semisimple structure queries: (argv, expected exit, why).
STRUCTURE_EXTRA = [
    ("coradical --preset taft:4:2 --char 5", 0, "coradical always emitted"),
    ("wedge-filtration --preset taft:4:2 --char 5", 0,
     "coradical filtration exhausts (Taft-Wilson)"),
    ("lift-section --preset taft:4:2 --char 5", 0, "criterion 8: square-zero lift exists"),
    ("weak-projection --preset taft:4:2 --char 5", 0,
     "Taft(4) is pointed; coradical kC4 is a Hopf subalgebra (criterion 9)"),
    ("wedge-filtration --preset functions:C12 --char 2", 0,
     "coradical filtration exhausts (Taft-Wilson)"),
    ("weak-projection --preset functions:C12 --char 2", 0,
     "rad kC12 is a Hopf ideal, so the coradical k^C3 is a Hopf subalgebra"),
    ("wedge-filtration --preset group:C12 --char 2", 0,
     "kG is cosemisimple; the filtration stops at C_0 = H"),
    ("coradical --preset functions:C12 --char 3", 0, "coradical always emitted"),
]

# Criterion 3: D(H)/H is separable iff H has an ad-invariant integral, whose
# existence is fixed by the ad-invariant column above.
DOUBLE = [
    ("double-separable --preset sweedler", 1, "criterion 3; Sweedler has no ad-invariant integral"),
    ("double-separable --preset sweedler --char 3", 1,
     "criterion 3; Sweedler has no ad-invariant integral"),
    ("double-separable --preset group:C4 --char 2", 0,
     "criterion 3; kG always has an ad-invariant integral (criterion 2)"),
    ("double-separable --preset group:S3 --char 3", 0,
     "criterion 3; kG always has an ad-invariant integral (criterion 2)"),
    ("double-separable --preset functions:S3 --char 2", 1,
     "criterion 3; k^S3 over F_2 is not coseparable, so no ad-invariant integral"),
    ("double --preset group:S3 --char 2", 0, "D(H) is built, validated and emitted"),
]


def _grid_rows():
    for line in GRID_TABLE.strip().splitlines():
        preset, char, *cells = line.split(None, 14)
        verdicts, case = [int(c) for c in cells[:12]], cells[12]
        yield preset, int(char), verdicts, case


def _argv(command: str, preset: str, char: int) -> str:
    return f"{command} --preset {preset}" + (f" --char {char}" if char else "")


def _grid_queries(commands: list, offset: int) -> list:
    return [(_argv(cmd, preset, char), verdicts[offset + k], f"{COLUMN_WHY[cmd]} [{case}]")
            for preset, char, verdicts, case in _grid_rows()
            for k, cmd in enumerate(commands)]


WORKLOADS = {
    "certify": _grid_queries(CERTIFY_COMMANDS, 0),
    "structure": _grid_queries(STRUCTURE_COMMANDS, 6) + STRUCTURE_EXTRA,
    "double": DOUBLE,
}
