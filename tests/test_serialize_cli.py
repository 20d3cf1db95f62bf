import json
from fractions import Fraction

import pytest

from hopfsmith import GF, QQ, check_hopf, resolve_preset
from hopfsmith.cli import main
from hopfsmith.presets import preset_sweedler, preset_taft
from hopfsmith.serialize import (hopf_from_dict, hopf_from_json, hopf_to_dict,
                                 hopf_to_json)

from conftest import F


def test_round_trip_structure_constants():
    for build in (lambda: preset_sweedler(QQ),
                  lambda: resolve_preset("group:S3", GF(5)),
                  lambda: preset_taft(3, 2, GF(7))):
        h = build()
        h2 = hopf_from_json(hopf_to_json(h))
        assert h2.alg.mult == h.alg.mult
        assert h2.coa.comult == h.coa.comult
        assert h2.coa.counit == h.coa.counit
        assert h2.antipode == h.antipode
        assert h2.alg.unit == h.alg.unit
        assert h2.basis == h.basis


def test_unit_is_rederived_from_mult():
    h = preset_sweedler(QQ)
    doc = hopf_to_dict(h)
    assert "unit" not in doc
    h2 = hopf_from_dict(doc)
    assert h2.alg.unit == h.alg.unit


def test_rational_scalars_as_strings():
    h = resolve_preset("group:C2", QQ)
    from hopfsmith.integrals import total_integral
    from hopfsmith.serialize import integral_to_dict
    t = total_integral(h, "in_h")
    d = integral_to_dict(QQ, t)
    assert d["t"] == ["1/2", "1/2"]
    assert d["type"] == "total_integral"


def test_ad_invariant_certificate_schema():
    from hopfsmith.integrals import ad_invariant_integral
    from hopfsmith.serialize import integral_to_dict
    h = resolve_preset("group:C3", GF(3))
    cert = ad_invariant_integral(h)
    d = integral_to_dict(GF(3), cert)
    assert d["type"] == "ad_invariant_integral"
    assert d["lambda"] == [1, 0, 0]
    assert d["verified"] == ["a", "b", "c"]


def test_malformed_document_raises():
    with pytest.raises(ValueError):
        hopf_from_dict({"field": {"char": 0}, "dim": 2, "mult": []})


def test_document_without_unit_rejected():
    f = QQ
    doc = {
        "field": {"char": 0}, "dim": 1, "basis": ["e"],
        "mult": [[[0]]],  # no identity exists
        "comult": [[[1]]], "counit": [1], "antipode": [[1]],
    }
    with pytest.raises(ValueError):
        hopf_from_dict(doc)


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    report = json.loads(out.out) if out.out.strip() else None
    return code, report, out.err


def test_cli_ad_invariant_group_c3_char3(capsys):
    code, report, _ = run_cli(capsys, "ad-invariant", "--preset", "group:C3", "--char", "3")
    assert code == 0
    assert report["exists"] is True
    assert report["certificate"]["lambda"] == [1, 0, 0]


def test_cli_fs_algebra_modular_refuted(capsys):
    code, report, _ = run_cli(capsys, "fs-algebra", "--preset", "group:C2", "--char", "2")
    assert code == 1
    assert report["feasible"] is False


def test_cli_check_axioms_file_round_trip(tmp_path, capsys):
    path = tmp_path / "h4.json"
    path.write_text(hopf_to_json(preset_sweedler(QQ)))
    code, report, _ = run_cli(capsys, "check-axioms", "--file", str(path))
    assert code == 0
    assert report["all_ok"] is True


def test_cli_rejects_malformed_json(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    code, report, err = run_cli(capsys, "check-axioms", "--file", str(path))
    assert code == 2
    assert "error" in err


def test_cli_rejects_char_with_file(tmp_path, capsys):
    path = tmp_path / "h.json"
    path.write_text(hopf_to_json(resolve_preset("group:C2", QQ)))
    code, _, err = run_cli(capsys, "integrals", "--file", str(path), "--char", "2")
    assert code == 2


def test_cli_unknown_preset(capsys):
    code, _, err = run_cli(capsys, "separable", "--preset", "group:C99")
    assert code == 2


def test_cli_integrals_report(capsys):
    code, report, _ = run_cli(capsys, "integrals", "--preset", "sweedler")
    assert code == 0
    assert report["in_h"]["left"]["dim"] == 1
    assert report["in_h"]["unimodular"] is False
    assert report["in_h"]["total"] is None


def test_cli_separable_coseparable(capsys):
    code, report, _ = run_cli(capsys, "separable", "--preset", "group:C2")
    assert code == 0 and report["separable"] is True
    code, report, _ = run_cli(capsys, "coseparable", "--preset", "sweedler")
    assert code == 1 and report["coseparable"] is False


def test_cli_fs_family(capsys):
    for cmd, preset, char, want in [
        ("fs-algebra", "group:C3", "0", 0),
        ("fs-algebra-complete", "group:C2", "0", 0),
        ("fs-coalgebra", "functions:C2", "0", 0),
        ("fs-coalgebra-complete", "functions:C2", "2", 1),
    ]:
        code, report, _ = run_cli(capsys, cmd, "--preset", preset, "--char", char)
        assert code == want, (cmd, preset, char)


def test_cli_double_and_double_separable(capsys):
    code, report, _ = run_cli(capsys, "double", "--preset", "group:C2")
    assert code == 0
    assert report["dim"] == 4
    # the emitted double document is itself loadable and valid
    d = hopf_from_dict(report["double"])
    assert check_hopf(d).all_ok
    code, report, _ = run_cli(capsys, "double-separable", "--preset", "sweedler")
    assert code == 1
    assert report["separable_over_h"] is False and report["ad_invariant_exists"] is False
    code, report, _ = run_cli(capsys, "double-separable", "--preset", "group:C2", "--char", "2")
    assert code == 0
    assert report["separable_over_h"] is True


def test_cli_coradical_and_filtration(capsys):
    code, report, _ = run_cli(capsys, "coradical", "--preset", "sweedler")
    assert code == 0 and report["dim"] == 2
    code, report, _ = run_cli(capsys, "wedge-filtration", "--preset", "sweedler")
    assert code == 0
    assert report["stage_dims"] == [2, 4] and report["exhausted"] is True
    code, report, _ = run_cli(capsys, "wedge-filtration", "--preset", "sweedler",
                              "--start", "unit")
    assert code == 1
    assert report["exhausted"] is False


def test_cli_lift_section(capsys):
    code, report, _ = run_cli(capsys, "lift-section", "--preset", "group:C2",
                              "--colinear")
    assert code == 0 and report["lifted"] is True
    code, report, _ = run_cli(capsys, "lift-section", "--preset", "group:C2",
                              "--char", "2", "--problem", "cyclic-cover:2")
    assert code == 1
    assert report["obstruction"]["delta_closed"] is True


def test_cli_weak_projection(capsys):
    code, report, _ = run_cli(capsys, "weak-projection", "--preset", "sweedler")
    assert code == 0
    assert report["verified"] == ["retraction", "coalgebra-map", "left-H-linear"]


def test_cli_truth_table(capsys):
    code, report, _ = run_cli(capsys, "truth-table")
    assert code == 0
    assert report["all_match"] is True
    assert len(report["grid"]) == 24


def test_cli_output_file(tmp_path, capsys):
    out = tmp_path / "report.json"
    code, report, _ = run_cli(capsys, "coradical", "--preset", "group:C2",
                              "--output", str(out))
    assert code == 0
    on_disk = json.loads(out.read_text())
    assert on_disk == report


def test_cli_deterministic_output(capsys):
    code1, r1, _ = run_cli(capsys, "integrals", "--preset", "group:C3", "--char", "2")
    code2, r2, _ = run_cli(capsys, "integrals", "--preset", "group:C3", "--char", "2")
    assert code1 == code2 == 0 and r1 == r2


def _c2_document(**changes):
    doc = hopf_to_dict(resolve_preset("group:C2", QQ))
    doc.update(changes)
    return doc


def _run_on_document(tmp_path, capsys, command, doc):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    rc = main([command, "--file", str(path)])
    return rc, capsys.readouterr()


@pytest.mark.parametrize("command", ["check-axioms", "separable"])
@pytest.mark.parametrize("resize", [lambda c: c[:1], lambda c: c + [1]], ids=["short", "long"])
def test_wrong_counit_length_is_an_input_error(tmp_path, capsys, command, resize):
    doc = _c2_document()
    doc["counit"] = resize(doc["counit"])  # the true counit [1, 1], cut short or padded
    rc, out = _run_on_document(tmp_path, capsys, command, doc)
    assert rc == 2
    assert "counit" in json.loads(out.err)["error"]
    assert out.out == ""


@pytest.mark.parametrize("command", ["check-axioms", "separable"])
def test_boolean_scalar_is_an_input_error(tmp_path, capsys, command):
    doc = _c2_document()
    doc["mult"][0][0][0] = True
    rc, out = _run_on_document(tmp_path, capsys, command, doc)
    assert rc == 2
    assert "boolean" in json.loads(out.err)["error"]


@pytest.mark.parametrize("field, bad", [
    ("mult", [[[1, 0, 0], [0, 1]], [[0, 1], [1, 0]]]),  # extra entry in a mult row
    ("comult", [[[1, 0], [0, 0]]]),                     # one block short
    ("antipode", [[1, 0], [0]]),
    ("basis", ["e", "g", "h"]),
])
def test_every_shape_is_validated(field, bad):
    with pytest.raises(ValueError, match=field):
        hopf_from_dict(_c2_document(**{field: bad}))


def test_field_parse_rejects_booleans():
    for f in (QQ, GF(3)):
        with pytest.raises(ValueError):
            f.parse(True)
        with pytest.raises(ValueError):
            f.parse(False)
