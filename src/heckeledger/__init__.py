"""Exact modular-symbol cohomology and the prime-level decomposition ledger."""

from .exactlin import (
    DEFAULT_PRIME,
    FieldContext,
    FieldMatrix,
    PrimeField,
    Subspace,
    rank_and_kernel,
    rational_reconstruct,
    restrict_operator,
    split_eigenspaces,
)
from .heckepoly import (
    HeckePolynomial,
    LiftClass,
    SL3Datum,
    assemble,
    sl3_lifts,
    weight2_lifts,
    weight4_lift,
)
from .ledger import (LedgerReport, RangeTable, build_report, compare_external,
                     parse_external, range_table)
from .modsym import (
    Cusp,
    EigenSystem,
    ManinBasisSpace,
    ModularSymbol,
    build_space,
    determinant,
    eigensystems,
    hecke_operator,
    unimodularize,
    winding_pairing,
)
from .paramodular import ParamodularDims, complement_dims, dim_S3

__version__ = "0.1.0"
