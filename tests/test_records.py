"""The package's records: value equality, hash, immutability and the
checks of the validating constructors, and an import that loads neither
`dataclasses` nor `inspect`."""

import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from heckeledger.exactlin import (DEFAULT_PRIME, Eigenspace, FieldContext, PrimeField,
                                  SplitResult, Subspace, next_field_prime)
from heckeledger.heckepoly import WEIGHT4, HeckePolynomial, LiftClass, SL3Datum, weight2_lifts
from heckeledger.ledger import Constituent, LedgerReport, range_table
from heckeledger.modsym import (CoefficientModule, Cusp, CuspidalSplit, EigenSystem,
                                HomogeneousPoly, ModularSymbol, build_space)
from heckeledger.paramodular import ParamodularDims

SRC = Path(__file__).resolve().parents[1] / "src"
F = PrimeField(DEFAULT_PRIME)
G = PrimeField(next_field_prime(DEFAULT_PRIME + 1))
HALF = Fraction(1, 2)


def test_package_imports_without_dataclasses():
    # -S keeps site-packages' .pth files, which may import anything, out
    # of the result.
    code = ("import sys\n"
            f"sys.path.insert(0, {str(SRC)!r})\n"
            "import heckeledger, heckeledger.cli\n"
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))\n")
    out = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True,
                         text=True, timeout=60, check=True)
    assert out.stdout.strip() == "[]"


def _report(caveats):
    return LedgerReport(11, [2, 3], (F.p, G.p), [], [], 1, None, {"dim_s2": 1}, {}, caveats)


# (make, other): make() builds a fresh record each call, other differs
# from it in one field.
RECORDS = {
    "FieldContext": (lambda: FieldContext(F, G), FieldContext(G, F)),
    "Eigenspace": (lambda: Eigenspace((1, 2), (1, 1)), Eigenspace((1, 2), (1, 2))),
    "SplitResult": (lambda: SplitResult([Eigenspace((1,), (2,))], [((3,), 1)], 0),
                    SplitResult([Eigenspace((1,), (2,))], [((3,), 1)], 1)),
    "SL3Datum": (lambda: SL3Datum(11, {2: (HALF, Fraction(1))}),
                 SL3Datum(11, {2: (HALF, Fraction(2))})),
    "RangeTable": (lambda: range_table(3), range_table(4)),
    "Constituent": (lambda: Constituent("weight2", "a", 1, {"first": {}}),
                    Constituent("weight2", "a", 2, {"first": {}})),
    "LedgerReport": (lambda: _report(["x"]), _report([])),
    "ModularSymbol": (lambda: ModularSymbol(Cusp(0, 1), Cusp(1, 0), HomogeneousPoly((1,))),
                      ModularSymbol(Cusp(0, 1), Cusp(1, 0), HomogeneousPoly((2,)))),
    "EigenSystem": (lambda: EigenSystem(11, 2, {2: Fraction(-2)}, True, 1),
                    EigenSystem(11, 2, {2: Fraction(-2)}, True, 2)),
    "CuspidalSplit": (lambda: CuspidalSplit([], 2, 2, [2, 3], {"defective": 2}),
                      CuspidalSplit([], 2, 2, [2, 5], {"defective": 2})),
    "Subspace": (lambda: Subspace(3, [{0: 1, 2: 5}], F), Subspace(3, [{0: 1, 2: 6}], F)),
    "HeckePolynomial": (lambda: HeckePolynomial(2, (Fraction(1), HALF), 4),
                        HeckePolynomial(3, (Fraction(1), HALF), 4)),
    "LiftClass": (lambda: LiftClass(WEIGHT4, "a", {}), LiftClass(WEIGHT4, "b", {})),
    "ParamodularDims": (lambda: ParamodularDims(37, 4, 1, 3), ParamodularDims(37, 4, None, None)),
    "CoefficientModule": (lambda: CoefficientModule(3), CoefficientModule(5)),
}

# Records that hash when every field does.
HASHABLE = ("HeckePolynomial", "CoefficientModule", "ParamodularDims", "RangeTable",
            "FieldContext", "Eigenspace")
# Records whose fields include a dict or a list.
UNHASHABLE = ("SL3Datum", "Subspace", "LiftClass", "SplitResult", "LedgerReport",
              "CuspidalSplit", "EigenSystem", "Constituent")


@pytest.mark.parametrize("name", RECORDS)
def test_records_compare_by_value(name):
    make, other = RECORDS[name]
    first, second = make(), make()
    assert first is not second
    assert first == second and not first != second
    assert first != other


@pytest.mark.parametrize("name", HASHABLE)
def test_hashable_records_hash_by_value(name):
    make, other = RECORDS[name]
    assert hash(make()) == hash(make())
    assert len({make(), make(), other}) == 2


@pytest.mark.parametrize("name", UNHASHABLE)
def test_records_holding_a_dict_or_list_do_not_hash(name):
    with pytest.raises(TypeError):
        hash(RECORDS[name][0]())


def test_presentation_compares_by_value():
    pres = build_space(11, 1).presentation
    assert type(pres)(*pres) == pres
    assert pres._replace(guard_leads=pres.guard_leads + (7,)) != pres


@pytest.mark.parametrize("name", RECORDS)
def test_records_refuse_assignment(name):
    record = RECORDS[name][0]()
    field = next(iter(type(record).__annotations__))
    with pytest.raises(AttributeError):
        setattr(record, field, None)
    with pytest.raises(AttributeError):
        setattr(record, "extra", None)
    with pytest.raises(AttributeError):
        delattr(record, field)


def test_validating_records_repr_every_field():
    assert repr(CoefficientModule(3)) == "CoefficientModule(k=3)"
    assert repr(ParamodularDims(5, 0, None, None)) == (
        "ParamodularDims(p=5, dim_S3=0, dim_gritsenko=None, dim_nonGritsenko=None)")
    assert repr(HeckePolynomial(2, (Fraction(1),), 4)) == (
        "HeckePolynomial(prime_l=2, coeffs=(Fraction(1, 1),), n=4)")
    assert repr(LiftClass(WEIGHT4, "a", {})) == (
        "LiftClass(kind='weight4', source='a', polynomial_family={})")
    assert repr(Subspace(2, [{1: 1}], F)) == (
        f"Subspace(ambient_dim=2, basis=({{1: 1}},), field=PrimeField({F.p}))")


@pytest.mark.parametrize("build, message", [
    (lambda: Subspace(3, [{0: 2}], F),
     "basis is not the reduced echelon basis of independent vectors"),
    (lambda: HeckePolynomial(2, (Fraction(2), Fraction(1)), 4),
     "Hecke polynomials are normalized with constant term 1"),
    (lambda: HeckePolynomial(2, (), 4),
     "Hecke polynomials are normalized with constant term 1"),
    (lambda: HeckePolynomial(2, (Fraction(1), Fraction(1), Fraction(1)), 1),
     "degree exceeds the rank parameter"),
    (lambda: ParamodularDims(37, 4, 1, 1), "dimension split does not add up"),
    (lambda: CoefficientModule(0), "k must be at least 1"),
    (lambda: LiftClass(WEIGHT4, "a", {2: weight2_lifts(2, 1)[0]}),
     "weight4 polynomial at l=2 fails its factor shape"),
], ids=["Subspace", "HeckePolynomial-constant", "HeckePolynomial-empty",
        "HeckePolynomial-degree", "ParamodularDims", "CoefficientModule", "LiftClass"])
def test_validating_records_name_the_failed_check(build, message):
    with pytest.raises(ValueError) as exc:
        build()
    assert str(exc.value) == message
