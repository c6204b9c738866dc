import json

import pytest

from heckeledger.cli import main

SL3_TEXT = "level,prime,gamma,gamma_prime\n11,2,0,0\n11,3,1/2,-3\n"
GRIT_TEXT = "# test data\np,dim_gritsenko\n2,0\n5,0\n11,0\n"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- help and exit codes -----------------------------------------------------


def test_help_exits_zero(capsys):
    for args in (["--help"], ["modsym", "--help"], ["paramodular", "--help"], ["ledger", "--help"]):
        assert main(args) == 0
        capsys.readouterr()


def test_missing_subcommand_is_usage_error(capsys):
    assert main([]) == 2
    capsys.readouterr()


# -- modsym ------------------------------------------------------------------


def test_modsym_level11(capsys):
    code, out, err = run(capsys, "modsym", "--level", "11", "--weight", "2",
                         "--primes", "2,3,5")
    assert code == 0
    assert "level 11" in out
    assert "11,2,2,2,-2" in out
    assert "11,2,2,5,1" in out


def test_modsym_level1_empty_table(capsys):
    code, out, err = run(capsys, "modsym", "--level", "1", "--weight", "2",
                         "--format", "csv")
    assert code == 0
    assert out.strip() == "level,weight,dim,prime,eigenvalue"


def test_modsym_weight3_rejected(capsys):
    code, out, err = run(capsys, "modsym", "--level", "11", "--weight", "3")
    assert code == 2
    assert "not supported" in err


def test_modsym_json_roundtrip(capsys):
    code, out, err = run(capsys, "modsym", "--level", "11", "--weight", "2",
                         "--primes", "2,3", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    again = json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=False) + "\n"
    assert again == out
    assert obj["summary"]["quotient_dim"] == 3
    assert obj["eigensystems"][0]["eigenvalues"] == {"2": "-2", "3": "-1"}


def test_modsym_weight4(capsys):
    code, out, err = run(capsys, "modsym", "--level", "5", "--weight", "4",
                         "--primes", "2", "--format", "csv")
    assert code == 0
    assert "5,4,2,2,-4" in out


# -- paramodular -------------------------------------------------------------


def test_paramodular_prime2(capsys):
    code, out, err = run(capsys, "paramodular", "--prime", "2")
    assert code == 0
    assert "2,0" in out


def test_paramodular_range_sweep(capsys):
    code, out, err = run(capsys, "paramodular", "--range", "2..100", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert all(isinstance(d["dim_S3"], int) and d["dim_S3"] >= 0 for d in obj["dims"])
    assert len(obj["dims"]) == 25
    again = json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=False) + "\n"
    assert again == out


@pytest.mark.parametrize("text", ["10..2", "3..2", "2..x", "2..5..7"])
def test_paramodular_bad_range_is_usage_error(capsys, text):
    code, out, err = run(capsys, "paramodular", "--range", text)
    assert code == 2
    assert "--range" in err
    assert out == ""


def test_paramodular_rejects_composite(capsys):
    code, out, err = run(capsys, "paramodular", "--prime", "4")
    assert code == 2
    assert "not prime" in err


def test_paramodular_with_gritsenko(tmp_path, capsys):
    path = tmp_path / "grit.csv"
    path.write_text(GRIT_TEXT, encoding="utf-8")
    code, out, err = run(capsys, "paramodular", "--prime", "5", "--gritsenko", str(path))
    assert code == 0
    assert "5,0,0,0" in out


@pytest.mark.parametrize("row", ["5,x", "9,0", "5,1,2"])
@pytest.mark.parametrize("command", [["paramodular", "--prime", "5"],
                                     ["ledger", "--level", "11", "--primes", "2"]],
                         ids=["paramodular", "ledger"])
def test_bad_gritsenko_row_is_usage_error(tmp_path, capsys, command, row):
    path = tmp_path / "grit.csv"
    path.write_text(f"p,dim_gritsenko\n{row}\n", encoding="utf-8")
    code, out, err = run(capsys, *command, "--gritsenko", str(path))
    assert code == 2
    assert "error: line 2: " in err
    assert out == ""


# -- ledger ------------------------------------------------------------------


def test_ledger_level11(tmp_path, capsys):
    sl3 = tmp_path / "sl3.csv"
    sl3.write_text(SL3_TEXT, encoding="utf-8")
    grit = tmp_path / "grit.csv"
    grit.write_text(GRIT_TEXT, encoding="utf-8")
    code, out, err = run(capsys, "ledger", "--level", "11", "--primes", "2,3",
                         "--sl3", str(sl3), "--gritsenko", str(grit))
    assert code == 0
    obj = json.loads(out)
    assert obj["schema"] == "ledger/1"
    assert obj["eisenstein_predicted"] == 4
    assert obj["non_eisenstein_predicted"] == 0
    again = json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=False) + "\n"
    assert again == out


def test_ledger_compare_roundtrip(tmp_path, capsys):
    code, out, err = run(capsys, "ledger", "--level", "11", "--primes", "2")
    assert code == 0
    report = json.loads(out)
    families = []
    for c in report["constituents"]:
        for kind, fam in c["families"].items():
            for l, coeffs in fam.items():
                families.append(
                    {"source": c["source"], "kind": kind, "l": int(l), "coeffs": coeffs}
                )
    ext = tmp_path / "external.json"
    ext.write_text(json.dumps({"families": families}), encoding="utf-8")
    code, out, err = run(capsys, "ledger", "--level", "11", "--primes", "2",
                         "--compare", str(ext))
    assert code == 0
    summary = json.loads(out)
    assert summary["mismatched"] == []
    assert len(summary["matched"]) == len(families)


@pytest.mark.parametrize("tscale", ["abc", "1/0"])
def test_ledger_bad_tscale_is_usage_error(tmp_path, capsys, monkeypatch, tscale):
    # Rejected before any report is built.
    def no_report(*args, **kwargs):
        raise AssertionError("build_report ran before --tscale was checked")

    monkeypatch.setattr("heckeledger.cli.build_report", no_report)
    ext = tmp_path / "external.json"
    ext.write_text(json.dumps({"families": []}), encoding="utf-8")
    code, out, err = run(capsys, "ledger", "--level", "11", "--primes", "2",
                         "--compare", str(ext), "--tscale", tscale)
    assert code == 2
    assert "--tscale" in err
    assert out == ""


@pytest.mark.parametrize("case", ["missing", "directory", "not-utf8", "bad-json"])
def test_ledger_bad_compare_file_is_rejected_before_report(tmp_path, capsys, monkeypatch,
                                                           case):
    def no_report(*args, **kwargs):
        raise AssertionError("build_report ran before --compare was read")

    monkeypatch.setattr("heckeledger.cli.build_report", no_report)
    path = tmp_path / "external.json"
    if case == "directory":
        path = tmp_path
    elif case == "not-utf8":
        path.write_bytes(b"\xff\xfe")
    elif case == "bad-json":
        path.write_text("{\"families\": [", encoding="utf-8")
    code, out, err = run(capsys, "ledger", "--level", "11", "--primes", "2",
                         "--compare", str(path))
    assert code == 2
    assert err.startswith("error:") and str(path) in err
    assert out == ""


def test_ledger_composite_level_rejected(capsys):
    code, out, err = run(capsys, "ledger", "--level", "12", "--primes", "5")
    assert code == 2


def test_ledger_missing_file_rejected(capsys):
    code, out, err = run(capsys, "ledger", "--level", "11", "--primes", "2",
                         "--sl3", "/nonexistent/path.csv")
    assert code == 2


def test_unreadable_input_is_usage_error(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_bytes(b"\xff\xfe")
    for path in (str(tmp_path), str(bad)):
        for argv in (["ledger", "--level", "11", "--primes", "2", "--sl3", path],
                     ["ledger", "--level", "11", "--primes", "2", "--gritsenko", path],
                     ["paramodular", "--prime", "5", "--gritsenko", path],
                     ["ledger", "--level", "11", "--primes", "2", "--compare", path]):
            code, out, err = run(capsys, *argv)
            assert code == 2, argv
            assert err.startswith("error:"), (argv, err)


def test_non_prime_hecke_index_is_usage_error(capsys):
    for l in ("0", "1"):
        for argv in (["modsym", "--level", "11", "--weight", "2", "--primes", l],
                     ["ledger", "--level", "11", "--primes", f"{l},2"]):
            code, out, err = run(capsys, *argv)
            assert code == 2, argv
            assert "is not prime" in err, (argv, err)


# -- config ------------------------------------------------------------------


def test_field_prime_env_override(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("HECKE_FIELD_PRIME", str((1 << 61) - 1))
    code, out, err = run(capsys, "modsym", "--level", "11", "--weight", "2",
                         "--primes", "2", "--format", "csv")
    assert code == 0
    assert "11,2,2,2,-2" in out


def test_field_prime_flag_rejects_composite(capsys):
    code, out, err = run(capsys, "modsym", "--level", "11", "--weight", "2",
                         "--primes", "2", "--field-prime", str((1 << 61) - 3))
    assert code in (1, 2)  # surfaced, not swallowed


# A prime above the old 2**31 floor and below the 2**60 one.
SMALL_FIELD_PRIME = "2147483659"


@pytest.mark.parametrize("via", ["flag", "env"])
@pytest.mark.parametrize("argv", [
    ["modsym", "--level", "11", "--weight", "2", "--primes", "2,3"],
    ["ledger", "--level", "5", "--primes", "2,3"],
], ids=["modsym", "ledger"])
def test_field_prime_below_floor_is_usage_error(capsys, monkeypatch, argv, via):
    if via == "flag":
        argv = argv + ["--field-prime", SMALL_FIELD_PRIME]
    else:
        monkeypatch.setenv("HECKE_FIELD_PRIME", SMALL_FIELD_PRIME)
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert err.startswith("error:") and "2**60" in err
    assert "Traceback" not in err
    assert out == ""


def test_threads_flag_same_output(capsys):
    _, out1, _ = run(capsys, "modsym", "--level", "11", "--weight", "2",
                     "--primes", "2,3", "--format", "json")
    _, out2, _ = run(capsys, "modsym", "--level", "11", "--weight", "2",
                     "--primes", "2,3", "--format", "json")
    assert out1 == out2
