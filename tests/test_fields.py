from fractions import Fraction

import pytest

from hopfsmith.fields import GF, QQ, FieldSpec


def test_rationals_basics():
    f = QQ
    assert f.add(Fraction(1, 2), Fraction(1, 3)) == Fraction(5, 6)
    assert f.inv(Fraction(2, 7)) == Fraction(7, 2)
    assert f.is_zero(f.sub(f.one, Fraction(1)))
    assert f.from_int(-3) == Fraction(-3)


def test_prime_field_basics():
    f = GF(7)
    assert f.add(5, 4) == 2
    assert f.mul(3, 5) == 1
    assert f.inv(3) == 5
    assert f.neg(2) == 5
    with pytest.raises(ZeroDivisionError):
        f.inv(7)


def test_characteristic_validation():
    FieldSpec(0)
    FieldSpec(2)
    FieldSpec(2147483647)  # largest prime below 2^31
    with pytest.raises(ValueError):
        FieldSpec(4)
    with pytest.raises(ValueError):
        FieldSpec(1)
    with pytest.raises(ValueError):
        FieldSpec(2**31 + 11)


def test_parse_and_json_round_trip():
    f = QQ
    assert f.parse("3/4") == Fraction(3, 4)
    assert f.parse(5) == Fraction(5)
    assert f.to_json(Fraction(1, 2)) == "1/2"
    assert f.to_json(Fraction(4, 2)) == 2
    g = GF(5)
    assert g.parse(7) == 2
    assert g.parse("9") == 4
    assert g.to_json(12) == 2


def test_reduced_representations():
    # rationals always fully reduced with positive denominator
    x = QQ.div(Fraction(2), Fraction(-4))
    assert x.numerator == -1 and x.denominator == 2
    # residues always land in [0, p)
    g = GF(11)
    assert 0 <= g.sub(3, 9) < 11


@pytest.mark.parametrize("field, obj, message", [
    (QQ, "1/0", "cannot parse rational scalar from '1/0'"),
    (QQ, "x", "cannot parse rational scalar from 'x'"),
    (GF(3), "1/2", "cannot parse F_3 scalar from '1/2'"),
    (GF(7), "y", "cannot parse F_7 scalar from 'y'"),
])
def test_parse_rejects_a_malformed_scalar_by_name(field, obj, message):
    with pytest.raises(ValueError) as exc:
        field.parse(obj)
    assert str(exc.value) == message


@pytest.mark.parametrize("field, obj", [
    (QQ, "1.5"), (QQ, "1e-3"), (QQ, " 2 "), (QQ, "1_000"), (QQ, "３"), (QQ, "+3"),
    (QQ, "1/-2"), (QQ, "1/00"), (QQ, "3\n"),
    (GF(7), " 2 "), (GF(7), "1_000"), (GF(7), "３"), (GF(7), "1.5"), (GF(7), "+3"),
])
def test_parse_reads_only_ascii_decimal_numerals(field, obj):
    """A scalar string is ``-?[0-9]+``, or over Q ``-?[0-9]+/[0-9]+`` with a
    nonzero denominator; decimal points, exponents, padding, digit separators,
    signs other than a leading minus and non-ASCII digits are rejected by name."""
    name = f"F_{field.characteristic}" if field.characteristic else "rational"
    with pytest.raises(ValueError) as exc:
        field.parse(obj)
    assert str(exc.value) == f"cannot parse {name} scalar from {obj!r}"


@pytest.mark.parametrize("field, obj, value", [
    (QQ, "-12", Fraction(-12)), (QQ, "-4/6", Fraction(-2, 3)), (QQ, "0/5", Fraction(0)),
    (QQ, "7/001", Fraction(7)), (GF(7), "-3", 4), (GF(7), "0012", 5),
])
def test_parse_reads_signed_numerals_and_fractions(field, obj, value):
    assert field.parse(obj) == value


LONG = "1" * 5000  # past the 4,300 digits that int() reads from a string by default


@pytest.mark.parametrize("field, obj, value", [
    (QQ, LONG, Fraction((10 ** 5000 - 1) // 9)),
    (GF(7), LONG, (10 ** 5000 - 1) // 9 % 7),
    (QQ, "-" + LONG, Fraction(-(10 ** 5000 - 1) // 9)),
    (QQ, f"{LONG}/3", Fraction((10 ** 5000 - 1) // 9, 3)),
    (GF(7), "-" + LONG, -((10 ** 5000 - 1) // 9) % 7),
])
def test_parse_reads_a_numeral_of_any_length(field, obj, value):
    assert field.parse(obj) == value


def test_a_scalar_past_the_digit_limit_is_written_as_a_numeral_parse_reads_back():
    big = Fraction(-(10 ** 5000 - 1) // 9, 10 ** 4999)
    for x in (Fraction(10 ** 5000), big, 1 / big, Fraction(3, 4), Fraction(-12)):
        assert QQ.parse(QQ.to_json(x)) == x
    assert QQ.to_json(Fraction(-12)) == -12 and QQ.to_json(Fraction(3, 4)) == "3/4"
    assert QQ.to_json(Fraction(10 ** 5000)) == "1" + "0" * 5000


def _scaled_group_c2(digits: int) -> dict:
    """kC2 over Q on the basis 1, N g with N = 10^digits: (N g)^2 = N^2, Delta(N g)
    = (N g) (x) (N g) / N, eps(N g) = N and S(N g) = N g."""
    n = "1" + "0" * digits
    return {"field": {"char": 0}, "dim": 2, "basis": ["1", "Ng"],
            "mult": [[[1, 0], [0, 1]], [[0, 1], [n + "0" * digits, 0]]],
            "comult": [[[1, 0], [0, 0]], [[0, 0], [0, f"1/{n}"]]],
            "counit": [1, n], "antipode": [[1, 0], [0, 1]]}


def test_cli_reads_and_writes_scalars_past_the_digit_limit(tmp_path, capsys):
    """A document whose scalars have 5,001 and 10,001 digits loads, and the
    separability idempotent e = (1 (x) 1 + (N g) (x) (N g) / N^2) / 2 is
    reported with the entry 1/(2 N^2) as a numeral string."""
    import json
    from hopfsmith import cli
    path = tmp_path / "scaled.json"
    path.write_text(json.dumps(_scaled_group_c2(5000)))
    assert cli.main(["separable", "--file", str(path)]) == 0
    captured = capsys.readouterr()
    e = json.loads(captured.out)["certificate"]["e"]
    assert captured.err == ""
    assert [QQ.parse(x) for x in e] == [Fraction(1, 2), 0, 0, Fraction(1, 2 * 10 ** 10000)]
    assert e[3] == "1/2" + "0" * 10000


def test_cli_reads_a_json_number_past_the_digit_limit_as_its_numeral(tmp_path, capsys):
    """The 10,001-digit product (N g)^2 = N^2 written as a JSON number gives the
    same exit code and report as written as a string; ``dim`` must stay an int."""
    import json
    from hopfsmith import cli
    text = json.dumps(_scaled_group_c2(5000))
    square = "1" + "0" * 10000  # built as a string: no process-wide limit is touched
    assert text.count(f'"{square}"') == 1
    outcomes = []
    for name, doc in (("string", text), ("number", text.replace(f'"{square}"', square))):
        path = tmp_path / f"{name}.json"
        path.write_text(doc)
        outcomes.append((cli.main(["separable", "--file", str(path)]), capsys.readouterr()))
    (code, out), (code_n, out_n) = outcomes
    assert code == code_n == 0 and out.out == out_n.out and out_n.err == ""
    path = tmp_path / "dim.json"
    path.write_text(text.replace('"dim": 2', f'"dim": {square}'))
    assert cli.main(["separable", "--file", str(path)]) == 2
    assert json.loads(capsys.readouterr().err) == {
        "error": "malformed Hopf document: dim must be an integer"}
