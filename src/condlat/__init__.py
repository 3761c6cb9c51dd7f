"""condlat: a workbench for conditional operations on finite bounded lattices.

The package validates finite lattices, checks binary operation tables
against a family of implication axioms, classifies the operations that
pass, and connects them to three kinds of semantics: relational frames
with their fixpoint lattices, selection-function frames, and a
threshold-based probabilistic model.  A small model-finding search and
a command line front end sit on top.
"""

from .errors import (
    BudgetExhausted,
    CondlatError,
    ConditioningOnNull,
    EmbeddingNotVerified,
    InternalInconsistency,
    MissingBound,
    NotALattice,
    NotAPartialOrder,
    NotAPrecomplementation,
    NotAPreconditional,
    NotAnOrthocomplementation,
    NotBoolean,
    NotResiduated,
    ParseError,
    PreconditionFailed,
    TooLarge,
    WidthMismatch,
)
from .lattice import FiniteLattice, antichain_bounded, boolean_algebra, chain
from .ops import (
    Axiom,
    BINARY_AXIOMS,
    PRECONDITIONAL_AXIOMS,
    ClassLabel,
    Classification,
    ConditionalOp,
    UnaryOp,
    check_axiom,
    check_axioms,
    classify,
    from_precomplementation,
    heyting_residual,
    is_orthomodular,
    precomplementation_report,
    require_preconditional,
    residuation_witness,
    sasaki_hook,
)
from .frames import (
    FixpointLattice,
    RelationalFrame,
    closed_sets,
    fixpoints,
    random_frame,
)
from .representation import (
    build_fi_space,
    build_pair_frame,
    check_space_conditions,
    verify_fi_embedding,
    verify_pair_embedding,
)
from .selection import (
    SelectionFrame,
    ba_to_selection,
    check_frame,
    from_well_order,
    induced_conditional,
)
from .probabilistic import ConfidenceSpace, arrow_table, confidence_space, verify_axioms
from .search import (
    INVENTORY,
    SearchSpec,
    SearchResult,
    enumerate_lattices,
    find_witness,
    minimal_witness,
)
from .io import (
    load_document,
    parse_frame,
    parse_lattice,
    parse_selection,
    serialize_frame,
    serialize_lattice,
    serialize_selection,
)

__version__ = "0.1.0"
