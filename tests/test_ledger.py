import json
from fractions import Fraction

import pytest

from heckeledger import ledger
from heckeledger.exactlin import FieldMatrix, InputError
from heckeledger.heckepoly import sl3_lifts, weight2_lifts
from heckeledger.ledger import (
    CuspRangeUnknown,
    FormatError,
    build_report,
    compare_external,
    load_sl3_csv,
    parse_external,
    range_table,
    report_families,
    report_to_json,
)
from heckeledger.modsym import BadLevel, BadPrime

# Column-by-column transcription of the rank table used in the tests:
# n, dim X, vcd, cusp top, cusp bottom.
RANK_TABLE = {
    2: (2, 1, 1, 1),
    3: (5, 3, 3, 2),
    4: (9, 6, 5, 4),
    5: (14, 10, 8, 6),
    6: (20, 15, 11, 9),
    7: (27, 21, 15, 12),
    8: (35, 28, 19, 16),
    9: (44, 36, 24, 20),
}


def test_range_table_all_columns():
    for n, (dim_x, vcd, top, bottom) in RANK_TABLE.items():
        rt = range_table(n)
        assert rt.dim_X == dim_x
        assert rt.vcd == vcd
        assert rt.cusp_top == top
        assert rt.cusp_bottom == bottom
        assert rt.dim_X == n * (n + 1) // 2 - 1
        assert rt.vcd == rt.dim_X - (n - 1)
        assert rt.cusp_top <= rt.vcd


def test_range_table_large_rank():
    rt = range_table(12)
    assert rt.dim_X == 77
    assert rt.vcd == 66
    assert rt.cusp_top is None
    with pytest.raises(CuspRangeUnknown):
        rt.cusp_range()


def test_range_table_rejects_rank_one():
    with pytest.raises(ValueError):
        range_table(1)


# -- report building ---------------------------------------------------------


SL3_TEXT = "level,prime,gamma,gamma_prime\n11,2,0,0\n11,3,1/2,-3\n"


def small_report(**kw):
    return build_report(11, [2, 3], **kw)


def test_report_level11_weight2_constituent():
    report = small_report(sl3_data=load_sl3_csv(SL3_TEXT), gritsenko={11: 0})
    w2 = [c for c in report.constituents if c.kind == "weight2"]
    assert len(w2) == 1
    assert w2[0].multiplicity == 2
    fam_a = w2[0].families["weight2_a"]
    first, _ = weight2_lifts(2, Fraction(-2))
    assert fam_a[2] == first


def test_report_weight4_handling():
    # The level-11 weight-4 orbit is irrational: no weight-4 constituent,
    # and the caveat says so.
    report = small_report(sl3_data=load_sl3_csv(SL3_TEXT), gritsenko={11: 0})
    assert [c for c in report.constituents if c.kind == "weight4"] == []
    assert any("weight 4" in c and "non-rational" in c for c in report.caveats)


def test_report_caveat_names_prime_disagreement(monkeypatch):
    # Shift T_2 at the partner prime of both sign quotients, where the
    # census confirms, by the identity: the rational 11a system is then
    # found at the primary prime but not confirmed at the second one,
    # and the caveat must say so instead of calling it non-rational.
    real_build_space = ledger.build_space

    def shifted_build_space(level, k, **kw):
        space = real_build_space(level, k, **kw)
        for sign in (1, -1):
            twin = space.sign_quotient(sign).partner()
            t2 = twin.hecke_matrix(2)
            twin._hecke_cache[2] = t2.add_scaled(FieldMatrix.identity(twin.field, twin.dim), 1)
        return space

    monkeypatch.setattr(ledger, "build_space", shifted_build_space)
    report = small_report(sl3_data=[], gritsenko={11: 0})
    assert [c for c in report.constituents if c.kind == "weight2"] == []
    weight2 = [c for c in report.caveats if c.startswith("weight 2:")]
    assert weight2 == [
        "weight 2: of 2 cuspidal dimensions, 2 not confirmed at the second prime; "
        "these carry no constituent entry"
    ]
    # The irrational weight-4 orbit keeps its own caveat.
    assert any(c.startswith("weight 4: 4 of 4") and "non-rational" in c for c in report.caveats)


def test_report_weight4_excluded_nonvanishing():
    # At level 5 the weight-4 system is rational with nonzero winding:
    # it must appear under excluded, not among the constituents.
    report = build_report(5, [2, 3], sl3_data=[], gritsenko={5: 0})
    assert [c for c in report.constituents if c.kind == "weight4"] == []
    assert len(report.excluded) == 1
    entry = report.excluded[0]
    assert entry["kind"] == "weight4"
    assert entry["reason"] == "nonvanishing central value"
    assert Fraction(entry["winding"]) != 0


LEDGER_LEVELS = (11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89)


def test_report_presents_only_the_sign_quotients(presentations):
    # The census and the space summary read the two sign quotients (and
    # their partners); with every weight-4 winding pairing zero at these
    # levels, nothing reads the whole space, so it is never presented.
    for level in LEDGER_LEVELS:
        build_report(level, [2, 3])
    assert presentations[None] == 0
    assert presentations[1] + presentations[-1] == 120


def test_report_builds_the_integer_relations_and_images_once_per_prime_pair(
        presentations, builds):
    # 80 sign quotients at the primary prime and 40 partners are
    # presented; a partner takes its primary's prime-free quotient, the
    # relation echelon included, and its T_2 and T_3 image columns, so
    # only the primaries build them.
    for level in LEDGER_LEVELS:
        build_report(level, [2, 3])
    assert presentations[None] == 0
    assert presentations[1] + presentations[-1] == 120
    assert builds == {"_integer_relations": 80, "echelonize": 80, "_hecke_images": 160}


def test_report_presents_the_whole_space_for_a_nonzero_winding(presentations):
    # A nonzero pairing is computed on the whole weight-4 space and its
    # partner, which are presented then and only then.
    report = build_report(5, [2, 3])
    assert presentations[None] == 2
    assert [e["kind"] for e in report.excluded] == ["weight4"]
    assert Fraction(report.excluded[0]["winding"]) != 0


def test_report_weight4_constituent_at_13():
    # The level-13 weight-4 newform has a two-prime-certified vanishing
    # winding pairing, so it enters the report as a constituent with
    # multiplicity 1 and the weight-4 polynomial family.
    from heckeledger.heckepoly import weight4_lift

    report = build_report(13, [2, 3], sl3_data=[], gritsenko={13: 0})
    w4 = [c for c in report.constituents if c.kind == "weight4"]
    assert len(w4) == 1
    assert w4[0].multiplicity == 1
    assert w4[0].families["weight4"][2] == weight4_lift(2, Fraction(-5))
    # one weight-2 class pair (genus 0 at 13 means none) and the tally
    assert report.counts["dim_s2"] == 0
    assert report.dim_eisenstein_predicted == 1


def test_report_sl3_constituents():
    report = small_report(sl3_data=load_sl3_csv(SL3_TEXT), gritsenko={11: 0})
    sl3 = [c for c in report.constituents if c.kind == "sl3"]
    assert len(sl3) == 1
    assert sl3[0].multiplicity == 2
    a, b = sl3_lifts(2, 0, 0)
    assert sl3[0].families["sl3_a"][2] == a
    assert sl3[0].families["sl3_b"][2] == b


def test_report_families_pass_factor_shape():
    from heckeledger.heckepoly import check_factor_shape

    report = small_report(sl3_data=load_sl3_csv(SL3_TEXT), gritsenko={11: 0})
    checked = 0
    for c in report.constituents:
        for kind, fam in c.families.items():
            for poly in fam.values():
                assert check_factor_shape(kind, poly)
                checked += 1
    assert checked > 0


def test_report_tally_consistency():
    report = small_report(sl3_data=load_sl3_csv(SL3_TEXT), gritsenko={11: 0})
    eis_kinds = ("weight2", "weight4", "sl3")
    assert report.dim_eisenstein_predicted == sum(
        c.multiplicity for c in report.constituents if c.kind in eis_kinds
    )
    # 2 per weight-2 newform plus 2 for the one sl3 datum
    assert report.dim_eisenstein_predicted == 4


def test_report_paramodular_contribution():
    report = build_report(5, [2], sl3_data=[], gritsenko={5: 0})
    assert report.dim_predicted_nonEisenstein == 0
    report2 = build_report(2, [3], sl3_data=[], gritsenko={2: 0})
    assert report2.dim_predicted_nonEisenstein == 0
    param = [c for c in report2.constituents if c.kind == "paramodular"]
    assert param and param[0].multiplicity == 0


def test_report_missing_gritsenko_degrades():
    report = small_report(sl3_data=load_sl3_csv(SL3_TEXT))
    assert report.dim_predicted_nonEisenstein is None
    assert any("Gritsenko" in c for c in report.caveats)


def test_report_determinism_and_threads():
    kw = dict(sl3_data=load_sl3_csv(SL3_TEXT), gritsenko={11: 0})
    a = report_to_json(build_report(11, [2, 3], **kw))
    b = report_to_json(build_report(11, [2, 3], **kw))
    assert a == b


def test_report_sl3_degradation_changes_one_caveat():
    kw = dict(gritsenko={11: 0})
    with_sl3 = build_report(11, [2, 3], sl3_data=load_sl3_csv(SL3_TEXT), **kw)
    without = build_report(11, [2, 3], sl3_data=None, **kw)
    kept = [c for c in with_sl3.constituents if c.kind != "sl3"]
    assert kept == without.constituents
    extra = set(without.caveats) - set(with_sl3.caveats)
    assert len(extra) == 1
    assert "sl3" in next(iter(extra))
    assert with_sl3.excluded == without.excluded


def test_report_rejects_bad_level_and_primes():
    with pytest.raises(ValueError):
        build_report(12, [5])
    with pytest.raises(ValueError):
        build_report(11, [11])
    with pytest.raises(BadPrime, match="11 divides the level 11"):
        build_report(11, [2, 11])
    with pytest.raises(ValueError):
        build_report(11, [])


def test_report_entry_checks_are_input_errors():
    # build_report refuses a bad level or an empty prime list where they
    # enter, as input errors with the messages the command line prints.
    with pytest.raises(BadLevel, match="^level 12 is not prime$"):
        build_report(12, [5])
    with pytest.raises(BadPrime, match="^need at least one Hecke prime$"):
        build_report(11, [])
    assert issubclass(BadLevel, InputError) and issubclass(BadPrime, InputError)


def test_report_json_roundtrip_and_schema():
    report = small_report(sl3_data=load_sl3_csv(SL3_TEXT), gritsenko={11: 0})
    text = report_to_json(report)
    assert text.endswith("\n")
    obj = json.loads(text)
    assert obj["schema"] == "ledger/1"
    assert obj["label"] == "predicted (reconstructed)"
    # reserialization is byte-identical
    again = json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=False) + "\n"
    assert again == text
    # big field primes travel as strings
    assert all(isinstance(s, str) for s in obj["field_primes"])


# -- external comparison -----------------------------------------------------


def test_compare_reflexive():
    report = small_report(sl3_data=load_sl3_csv(SL3_TEXT), gritsenko={11: 0})
    summary = compare_external(report, parse_external({"families": report_families(report)}))
    assert summary["mismatched"] == [] and summary["unknown"] == []
    assert len(summary["matched"]) == len(report_families(report))


def test_compare_flags_single_perturbation():
    report = small_report(sl3_data=load_sl3_csv(SL3_TEXT), gritsenko={11: 0})
    fams = report_families(report)
    fams[0] = dict(fams[0])
    coeffs = list(fams[0]["coeffs"])
    coeffs[1] = str(int(coeffs[1]) + 1)
    fams[0]["coeffs"] = coeffs
    summary = compare_external(report, parse_external({"families": fams}))
    assert len(summary["mismatched"]) == 1
    bad = summary["mismatched"][0]
    assert bad["report"] != bad["external"]


def test_compare_second_expansion_route():
    # weight-2 family vs an independently re-expanded factored form
    report = small_report(sl3_data=load_sl3_csv(SL3_TEXT), gritsenko={11: 0})

    def convolve(f, g):
        out = [Fraction(0)] * (len(f) + len(g) - 1)
        for i, x in enumerate(f):
            for j, y in enumerate(g):
                out[i + j] += x * y
        return out

    # level 11: alpha(2) = -2 -> (1-4T)(1-8T)(1+2T+2T^2)
    oracle = [Fraction(1)]
    for f in ([1, -4], [1, -8], [1, 2, 2]):
        oracle = convolve(oracle, [Fraction(x) for x in f])
    fams = [
        {
            "source": "w2-N11-a2=-2,a3=-1",
            "kind": "weight2_a",
            "l": 2,
            "coeffs": [str(c) for c in oracle],
        }
    ]
    summary = compare_external(report, parse_external({"families": fams}))
    assert summary["matched"] and not summary["mismatched"]


def test_compare_tscale_hook():
    report = small_report(sl3_data=load_sl3_csv(SL3_TEXT), gritsenko={11: 0})
    fams = report_families(report)
    scaled = []
    for f in fams:
        coeffs = [str(Fraction(s) * Fraction(2) ** -k) for k, s in enumerate(f["coeffs"])]
        scaled.append({**f, "coeffs": coeffs})
    summary = compare_external(report, parse_external({"families": scaled}), tscale=Fraction(2))
    assert not summary["mismatched"] and not summary["unknown"]


def test_compare_format_errors():
    report = small_report(sl3_data=load_sl3_csv(SL3_TEXT), gritsenko={11: 0})
    with pytest.raises(FormatError):
        compare_external(report, parse_external({"nope": []}))
    with pytest.raises(FormatError):
        compare_external(report, parse_external({"families": [{"kind": "weight4"}]}))
    with pytest.raises(FormatError, match="malformed family entry"):
        parse_external({"families": [{"source": "a", "kind": "b", "l": 2,
                                      "coeffs": ["1", "1/0"]}]})
    for l, coeffs in ((2.5, ["1"]), (True, ["1"]), (2, "12"), (2, {"1": 2}), (2, ["1", 0.1])):
        with pytest.raises(FormatError, match="malformed family entry"):
            parse_external({"families": [{"source": "a", "kind": "b", "l": l,
                                          "coeffs": coeffs}]})


# -- SL3 CSV -----------------------------------------------------------------


def test_load_sl3_groups_by_repeat():
    text = "11,2,0,0\n11,2,1,1\n53,2,1/2,2\n"
    data = load_sl3_csv(text)
    assert len(data) == 3
    assert data[0].level == 11 and data[0].pair(2) == (0, 0)
    assert data[1].level == 11 and data[1].pair(2) == (1, 1)
    assert data[2].level == 53 and data[2].pair(2) == (Fraction(1, 2), Fraction(2))


def test_load_sl3_rejects_malformed():
    with pytest.raises(FormatError):
        load_sl3_csv("11,2,0\n")
    with pytest.raises(FormatError):
        load_sl3_csv("11,2,zero,0\n")
    with pytest.raises(FormatError, match="line 2"):
        load_sl3_csv("11,2,0,0\n11,3,1/0,0\n")
