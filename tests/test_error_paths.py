"""Rejections of malformed input, with the exact messages the CLI reports:
ring extensions that are not injective algebra maps, surjections and
inclusions that are not algebra or coalgebra maps, multiplications without a
two-sided unit, cyclic covers whose degree is not an integer M >= 1, and
malformed scalars and Taft orders."""

import json

import pytest

from hopfsmith import GF, QQ, cli, resolve_preset
from hopfsmith.doubles import ExtensionData
from hopfsmith.lifting import (SurjectionProblem, cyclic_cover_problem, lift_algebra_section,
                               weak_projection)
from hopfsmith.serialize import hopf_from_dict, hopf_to_dict


def _group(n):
    return resolve_preset(f"group:C{n}", QQ).alg


def _columns(cols):
    """The map whose column j is the basis vector e_{cols[j]}, as a tensor (x, j)."""
    return {(c, j): QQ.one for j, c in enumerate(cols)}


@pytest.mark.parametrize("small, cols, message", [
    # a second column on a one-dimensional S: the key (1, 1) lies outside 4 x 1
    (1, [0, 1], "embedding must be 4 x 1"),
    (2, [1, 1], "embedding is not injective"),
    (1, [1], "embedding does not preserve the unit"),
    # g -> h, g^2 -> h^2 from KC3 to KC4: g g^2 = 1 but h h^2 = h^3
    (3, [0, 1, 2], r"embedding is not multiplicative at \(1,2\)"),
    # the same map on KC2: g g = 1 but h h = h^2, and (1,1) is the only failing pair
    (2, [0, 1], r"embedding is not multiplicative at \(1,1\)"),
])
def test_extension_validate_rejects(small, cols, message):
    with pytest.raises(ValueError, match=message):
        ExtensionData(_group(4), _group(small), _columns(cols)).validate()


# each validator of an algebra map, on a map KC_small -> KC4 given as a tensor (x, j); pi
# takes its transpose, a surjection KC4 -> KC_small, and the inclusion the Hopf algebras
VALIDATORS = {
    "pi": lambda small, g: lift_algebra_section(SurjectionProblem(
        _group(4), _group(small), {(j, x): c for (x, j), c in g.items()})),
    "embedding": lambda small, g: ExtensionData(_group(4), _group(small), g).validate(),
    "inclusion": lambda small, g: weak_projection(resolve_preset("group:C4", QQ),
                                                  resolve_preset(f"group:C{small}", QQ), g),
}


@pytest.mark.parametrize("what", VALIDATORS)
@pytest.mark.parametrize("small, g, message", [
    (1, _columns([1]), "{} does not preserve the unit"),
    # g -> h from KC3 to KC4 fails at g·g^2, and its transpose h^k -> g^k (k < 3),
    # h^3 -> 0 at h·h^2: the least failing pair is (1,2) either way
    (3, _columns([0, 1, 2]), "{} is not multiplicative at (1,2)"),
], ids=["unit", "pair"])
def test_every_algebra_map_check_names_the_unit_or_the_least_failing_pair(what, small, g,
                                                                         message):
    with pytest.raises(ValueError) as exc:
        VALIDATORS[what](small, g)
    assert str(exc.value) == message.format(what)


def test_a_multiplicative_inclusion_that_is_not_comultiplicative_is_rejected():
    # g -> -h^2 from KC2 to KC4: (-h^2)^2 = 1, but Delta(-h^2) = -h^2 (x) h^2
    incl = {(0, 0): QQ.one, (2, 1): -QQ.one}
    with pytest.raises(ValueError) as exc:
        VALIDATORS["inclusion"](2, incl)
    assert str(exc.value) == "inclusion is not comultiplicative"


def _no_unit_document():
    """The Sweedler document with e_i·e_j = e_j for all i: every e_i is a left
    unit, and no vector is a right unit."""
    doc = hopf_to_dict(resolve_preset("sweedler", QQ))
    n = doc["dim"]
    doc["mult"] = [[[1 if k == j else 0 for k in range(n)] for j in range(n)] for _ in range(n)]
    return doc


def test_multiplication_without_two_sided_unit_is_rejected():
    with pytest.raises(ValueError, match="no two-sided unit"):
        hopf_from_dict(_no_unit_document())


def test_cli_file_without_two_sided_unit_exits_2(tmp_path, capsys):
    path = tmp_path / "no_unit.json"
    path.write_text(json.dumps(_no_unit_document()))
    for command in ("check-axioms", "integrals"):
        assert cli.main([command, "--file", str(path)]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err == {"error": "multiplication tensor has no two-sided unit"}


@pytest.mark.parametrize("degree", [0, -2])
def test_cyclic_cover_of_degree_below_one_is_rejected(degree, capsys):
    with pytest.raises(ValueError, match=f"cyclic-cover:{degree} needs a cover degree M >= 1"):
        cyclic_cover_problem(resolve_preset("group:C2", QQ).alg, degree)
    argv = ["lift-section", "--problem", f"cyclic-cover:{degree}", "--preset", "group:C2"]
    assert cli.main(argv) == 2
    err = json.loads(capsys.readouterr().err)["error"]
    assert err == f"cyclic-cover:{degree} needs a cover degree M >= 1"
    # --colinear is rejected before the problem is built
    assert cli.main(argv + ["--colinear"]) == 2
    err = json.loads(capsys.readouterr().err)["error"]
    assert err == "cyclic-cover ships without comodule data; drop --colinear"


# int() also reads an Arabic-Indic three, a padded two and an underscored ten
@pytest.mark.parametrize("degree", ["x", "", "\u0663", " 2", "1_0"])
def test_cyclic_cover_without_an_integer_degree_is_rejected(degree, capsys):
    argv = ["lift-section", "--problem", f"cyclic-cover:{degree}", "--preset", "group:C2"]
    assert cli.main(argv) == 2
    err = json.loads(capsys.readouterr().err)["error"]
    assert err == f"cyclic-cover:{degree} needs a cover degree M >= 1"


def test_cyclic_cover_of_degree_one_still_lifts(capsys):
    argv = ["lift-section", "--problem", "cyclic-cover:1", "--preset", "group:C2"]
    assert cli.main(argv) == 0
    assert json.loads(capsys.readouterr().out)["lifted"] is True


@pytest.mark.parametrize("argv, message", [
    (["--preset", "taft:2:1/0"],
     "cannot parse preset spec 'taft:2:1/0': cannot parse rational scalar from '1/0'"),
    (["--preset", "taft:x:2"], "cannot parse preset spec 'taft:x:2'"),
    (["--preset", "taft:3:y", "--char", "7"],
     "cannot parse preset spec 'taft:3:y': cannot parse F_7 scalar from 'y'"),
    # rejected from n and the field alone, before any power of q is taken
    (["--preset", "taft:100000:2"], "Q has no primitive n-th root of unity for n = 100000 > 2"),
    (["--preset", "taft:4:2", "--char", "7"],
     "F_7 has no primitive n-th root of unity for n = 4: 4 does not divide 6"),
    (["--preset", "taft:3:3", "--char", "7"], "q is not an n-th root of unity for n = 3"),
    # the order and q are ASCII numerals: no full-width digit, padding or plus sign
    (["--preset", "taft:\uff13:2", "--char", "7"], "cannot parse preset spec 'taft:\uff13:2'"),
    (["--preset", "taft:3:+2", "--char", "7"],
     "cannot parse preset spec 'taft:3:+2': cannot parse F_7 scalar from '+2'"),
    (["--preset", "taft:2:-1.0"],
     "cannot parse preset spec 'taft:2:-1.0': cannot parse rational scalar from '-1.0'"),
])
def test_cli_rejects_a_taft_spec_by_name(argv, message, capsys):
    assert cli.main(["integrals", *argv]) == 2
    assert json.loads(capsys.readouterr().err) == {"error": message}


def test_cli_file_with_a_malformed_scalar_is_a_malformed_document(tmp_path, capsys):
    doc = hopf_to_dict(resolve_preset("group:C2", GF(3)))
    doc["counit"][1] = "1/2"
    path = tmp_path / "scalar.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["integrals", "--file", str(path)]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err == {"error": "malformed Hopf document: cannot parse F_3 scalar from '1/2'"}
