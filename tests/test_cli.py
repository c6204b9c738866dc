import importlib
import json
import pkgutil

import pytest

import heckeledger
from heckeledger import cli, paramodular
from heckeledger.cli import main
from heckeledger.exactlin import ComputationError, InputError

from oracles import is_prime, primes_upto

SL3_TEXT = "level,prime,gamma,gamma_prime\n11,2,0,0\n11,3,1/2,-3\n"
GRIT_TEXT = "# test data\np,dim_gritsenko\n2,0\n5,0\n11,0\n"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def package_modules() -> list:
    """Every module of the heckeledger package but `__main__`, imported."""
    return [importlib.import_module(info.name)
            for info in pkgutil.iter_modules(heckeledger.__path__, "heckeledger.")
            if info.name != "heckeledger.__main__"]


def error_classes() -> list[type]:
    """Each exception class defined in a heckeledger module, but the two kinds."""
    return [obj for module in package_modules() for obj in vars(module).values()
            if isinstance(obj, type) and issubclass(obj, BaseException)
            and obj.__module__ == module.__name__
            and obj not in (InputError, ComputationError)]


ERRORS = error_classes()


# -- help and exit codes -----------------------------------------------------


def test_help_exits_zero(capsys):
    for args in (["--help"], ["modsym", "--help"], ["paramodular", "--help"], ["ledger", "--help"]):
        assert main(args) == 0
        capsys.readouterr()


def test_ledger_help_says_it_writes_json(capsys):
    # cmd_ledger ignores --format; its help must not promise a text default.
    assert main(["ledger", "--help"]) == 0
    out = " ".join(capsys.readouterr().out.split())
    assert "always writes JSON" in out
    assert "default text" not in out


def test_paramodular_help_says_text_writes_csv(capsys):
    # cmd_paramodular writes CSV for both csv and text; its help must say so.
    assert main(["paramodular", "--help"]) == 0
    out = " ".join(capsys.readouterr().out.split())
    assert "csv and text (the default) both write the same CSV" in out
    assert "output format (default text)" not in out


def test_missing_subcommand_is_usage_error(capsys):
    assert main([]) == 2
    capsys.readouterr()


def test_every_error_declares_exactly_one_kind():
    names = {cls.__name__ for cls in ERRORS}
    assert names >= {"UsageError", "BadPrime", "BadLevel", "UnsupportedWeight", "FormatError",
                     "GritsenkoExceedsTotal", "CuspRangeUnknown", "NotInvariant",
                     "NonCommuting", "FamilyMismatch", "NoReconstruction",
                     "MultiPrimeMismatch", "HalvesMismatch", "NonIntegralResult"}
    for cls in ERRORS:
        assert issubclass(cls, InputError) != issubclass(cls, ComputationError), cls


@pytest.mark.parametrize("cls", ERRORS, ids=[cls.__name__ for cls in ERRORS])
def test_error_kind_sets_exit_code(capsys, monkeypatch, cls):
    # raised from behind the entry checks, each error exits by its kind alone
    def fail(*args, **kwargs):
        raise cls("a message")

    monkeypatch.setattr(cli, "build_report", fail)
    code, out, err = run(capsys, "ledger", "--level", "11", "--primes", "2")
    if issubclass(cls, InputError):
        assert (code, err) == (2, "error: a message\n")
    else:
        assert (code, err) == (1, "computation error: a message\n")
    assert out == ""


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


def count_primality_tests(monkeypatch, modules) -> list[int]:
    """Record each n that the primality test is asked about through the
    `_is_prime` binding of any of `modules`."""
    calls = []

    def counted(n, _is_prime=paramodular._is_prime):
        calls.append(n)
        return _is_prime(n)

    for module in modules:
        if hasattr(module, "_is_prime"):
            monkeypatch.setattr(module, "_is_prime", counted)
    return calls


def test_paramodular_range_tests_each_candidate_once(capsys, monkeypatch):
    calls = count_primality_tests(monkeypatch, [paramodular])
    code, out, err = run(capsys, "paramodular", "--range", "2..200")
    assert code == 0
    primes = [int(line.split(",")[0]) for line in out.splitlines()[1:]]
    assert len(primes) == 46
    # the range filter is a sieve; dim_S3 checks each prime it is given
    assert sorted(calls) == primes


def test_paramodular_range_lists_every_prime(capsys):
    code, out, err = run(capsys, "paramodular", "--range", "2..10000")
    assert code == 0
    listed = [int(line.split(",")[0]) for line in out.splitlines()[1:]]
    assert listed == primes_upto(10000)
    for text, want in (("-5..10", [2, 3, 5, 7]), ("0..1", []), ("24..28", []),
                       ("49..53", [53]), ("10000000000..10000000100",
                                          [n for n in range(10**10, 10**10 + 101)
                                           if is_prime(n)])):
        code, out, err = run(capsys, "paramodular", f"--range={text}")
        assert code == 0, text
        assert [int(line.split(",")[0]) for line in out.splitlines()[1:]] == want, text


def test_paramodular_rejects_composite(capsys):
    code, out, err = run(capsys, "paramodular", "--prime", "4")
    assert code == 2
    assert "not prime" in err


def test_paramodular_prime_is_tested_once(capsys, monkeypatch):
    # dim_S3 tests --prime where it enters; the CLI does not test it again
    calls = count_primality_tests(monkeypatch, package_modules())
    code, out, err = run(capsys, "paramodular", "--prime", "5")
    assert code == 0
    assert calls == [5]


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


@pytest.mark.parametrize("data,message", [
    ({"x": 1}, "`families` list"),
    ({"families": 3}, "must be a list"),
    ({"families": [{"source": "a"}]}, "malformed family entry"),
    ({"families": [{"source": "a", "kind": "b", "l": 2, "coeffs": ["1", "1/0"]}]},
     "malformed family entry"),
    ({"families": [{"source": "a", "kind": "b", "l": float("inf"), "coeffs": ["1"]}]},
     "malformed family entry"),
    ({"families": [{"source": ["a"], "kind": "b", "l": 2, "coeffs": ["1"]}]},
     "malformed family entry"),
    ({"families": [{"source": "a", "kind": "b", "l": 2.5, "coeffs": ["1"]}]},
     "`l` must be an integer"),
    ({"families": [{"source": "a", "kind": "b", "l": True, "coeffs": ["1"]}]},
     "`l` must be an integer"),
    ({"families": [{"source": "a", "kind": "b", "l": 2, "coeffs": "12"}]},
     "`coeffs` must be a list"),
    ({"families": [{"source": "a", "kind": "b", "l": 2, "coeffs": {"1": 2}}]},
     "`coeffs` must be a list"),
    ({"families": [{"source": "a", "kind": "b", "l": 2, "coeffs": ["1", 0.1]}]},
     "`coeffs` must be a list"),
], ids=["no-families", "families-not-list", "entry-missing-fields", "zero-denominator",
        "infinite-l", "list-source", "float-l", "bool-l", "string-coeffs", "object-coeffs",
        "float-coeff"])
def test_ledger_malformed_compare_data_is_rejected_before_report(tmp_path, capsys,
                                                                  monkeypatch, data, message):
    def no_report(*args, **kwargs):
        raise AssertionError("build_report ran before --compare was checked")

    monkeypatch.setattr("heckeledger.cli.build_report", no_report)
    path = tmp_path / "external.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    code, out, err = run(capsys, "ledger", "--level", "11", "--primes", "2",
                         "--compare", str(path))
    assert code == 2
    assert err.startswith("error:") and message in err
    assert out == ""


@pytest.mark.parametrize("row", ["11,2,1/0,0", "11,2,0"])
def test_bad_sl3_row_is_usage_error(tmp_path, capsys, row):
    path = tmp_path / "sl3.csv"
    path.write_text(f"level,prime,gamma,gamma_prime\n{row}\n", encoding="utf-8")
    code, out, err = run(capsys, "ledger", "--level", "11", "--primes", "2",
                         "--sl3", str(path))
    assert code == 2
    assert "error: line 2: " in err
    assert out == ""


def test_ledger_composite_level_rejected(capsys):
    code, out, err = run(capsys, "ledger", "--level", "12", "--primes", "5")
    assert code == 2


def test_ledger_internal_value_error_is_computation_error(capsys, monkeypatch):
    # Only the level and the Hecke primes are entry errors of build_report;
    # a ValueError from behind them, here a family failing its factor-shape
    # check, is a computation error.
    from heckeledger import heckepoly

    monkeypatch.setattr(heckepoly, "check_factor_shape", lambda kind, poly: False)
    code, out, err = run(capsys, "ledger", "--level", "11", "--primes", "2")
    assert code == 1
    assert err.startswith("computation error: ") and "factor shape" in err
    code, out, err = run(capsys, "ledger", "--level", "12", "--primes", "2")
    assert code == 2
    assert err == "error: level 12 is not prime\n"


def test_modsym_internal_value_error_is_computation_error(capsys, monkeypatch):
    # main classifies the errors of every subcommand alike: a ValueError
    # from behind modsym's entry checks exits 1 as it does under ledger,
    # while BadPrime, the ValueError of the entry check, still exits 2.
    def failing(space, primes):
        raise ValueError("basis is not the reduced echelon basis of independent vectors")

    monkeypatch.setattr(cli, "eigensystems", failing)
    code, out, err = run(capsys, "modsym", "--level", "11", "--weight", "2", "--primes", "2")
    assert code == 1
    assert out == ""
    assert err.startswith("computation error: ")
    code, out, err = run(capsys, "modsym", "--level", "11", "--weight", "2", "--primes", "11")
    assert code == 2
    assert err == "error: 11 divides the level 11\n"


def test_ledger_unreconstructed_winding_is_computation_error(capsys, monkeypatch):
    # A winding pairing above the reconstruction height is a computation error,
    # exit 1, not a traceback.
    from heckeledger import ledger
    from heckeledger.exactlin import NoReconstruction

    def too_tall(space, system):
        raise NoReconstruction("no rational of height 10^6 lifts the pairing")

    monkeypatch.setattr(ledger, "winding_pairing", too_tall)
    code, out, err = run(capsys, "ledger", "--level", "13", "--primes", "2")
    assert code == 1
    assert out == ""
    assert err.startswith("computation error: ")


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


def test_ledger_hecke_prime_dividing_level_message(capsys):
    code, out, err = run(capsys, "ledger", "--level", "11", "--primes", "2,11")
    assert code == 2
    assert err == "error: 11 divides the level 11\n"
    assert out == ""


@pytest.mark.parametrize("primes, message", [
    ("4", "4 is not prime"),
    ("2,4001", "4001 divides the level 4001"),
], ids=["not-prime", "divides-level"])
def test_modsym_hecke_primes_checked_before_space(capsys, monkeypatch, primes, message):
    def no_space(*args, **kwargs):
        raise AssertionError("build_space ran before --primes was checked")

    monkeypatch.setattr("heckeledger.cli.build_space", no_space)
    code, out, err = run(capsys, "modsym", "--level", "4001", "--weight", "4",
                         "--primes", primes)
    assert code == 2
    assert err == f"error: {message}\n"
    assert out == ""


@pytest.mark.parametrize("argv, message", [
    (["--level", "0", "--weight", "2"], "level must be positive"),
    (["--level", "11", "--weight", "3"], "weight 3 means k = 2"),
    (["--level", "0", "--weight", "2", "--field-prime", "15"], "modulus 15 is not prime"),
], ids=["level", "weight", "field-prime"])
def test_modsym_usage_errors_precede_hecke_primes(capsys, argv, message):
    code, out, err = run(capsys, "modsym", *argv, "--primes", "4")
    assert code == 2
    assert err.startswith(f"error: {message}"), err


# -- config ------------------------------------------------------------------


def test_field_prime_env_override(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("HECKE_FIELD_PRIME", str((1 << 61) - 1))
    code, out, err = run(capsys, "modsym", "--level", "11", "--weight", "2",
                         "--primes", "2", "--format", "csv")
    assert code == 0
    assert "11,2,2,2,-2" in out


def test_field_prime_strong_pseudoprime_is_usage_error(capsys, monkeypatch):
    # psi_12 = 399165290221 * 798330580441 passes Miller-Rabin to every
    # base 2..37; the base 41 rejects it.
    monkeypatch.setenv("HECKE_FIELD_PRIME", "318665857834031151167461")
    code, out, err = run(capsys, "modsym", "--level", "11", "--weight", "2")
    assert code == 2
    assert err == "error: modulus 318665857834031151167461 is not prime\n"
    assert out == ""


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


def test_repeated_modsym_run_prints_same_json(capsys):
    _, out1, _ = run(capsys, "modsym", "--level", "11", "--weight", "2",
                     "--primes", "2,3", "--format", "json")
    _, out2, _ = run(capsys, "modsym", "--level", "11", "--weight", "2",
                     "--primes", "2,3", "--format", "json")
    assert out1 == out2
