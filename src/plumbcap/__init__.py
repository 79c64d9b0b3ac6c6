"""Rational homology disk obstructions for negative definite plumbing trees.

The pipeline: parse or generate a plumbing tree of spheres, validate it
(tree, negative definite, framings at most minus the valency), read off
the planar open book, build the dual configuration at an admissible root,
and test whether its intersection lattice embeds into the diagonal
lattice of the same rank.  No embedding means the plumbed manifold bounds
no rational homology disk.  All arithmetic is exact integer arithmetic.
"""

from .dualcap import (
    DualConfiguration,
    NoAdmissibleRootError,
    OpenBookDescription,
    admissible_roots,
    build_dual,
    build_open_book,
    choose_root,
    string_counts,
)
from .embedder import (
    EmbeddingOutcome,
    embed_diagonal,
    verify_witness,
)
from .intlin import (
    GramMatrix,
    NonUniqueSpinError,
    NotDefiniteError,
    determinant,
    first_sylvester_violation,
    gram_from_json,
    mu_bar,
    wu_classes,
)
from .pipeline import (
    INCONCLUSIVE,
    OBSTRUCTED,
    UNDECIDED,
    ObstructionReport,
    RootResult,
    qhd_obstruction,
    render_report,
)
from .plumbing import (
    GraphFormatError,
    PlumbingGraph,
    ValidationFailure,
    ValidationReport,
    generate_gamma_n,
    gram_matrix,
    parse_plumbing,
    serialize_plumbing,
    validate,
)

__version__ = "1.0.0"

__all__ = [
    "DualConfiguration",
    "EmbeddingOutcome",
    "GramMatrix",
    "GraphFormatError",
    "INCONCLUSIVE",
    "NoAdmissibleRootError",
    "NonUniqueSpinError",
    "NotDefiniteError",
    "OBSTRUCTED",
    "ObstructionReport",
    "OpenBookDescription",
    "PlumbingGraph",
    "RootResult",
    "UNDECIDED",
    "ValidationFailure",
    "ValidationReport",
    "admissible_roots",
    "build_dual",
    "build_open_book",
    "choose_root",
    "determinant",
    "embed_diagonal",
    "first_sylvester_violation",
    "generate_gamma_n",
    "gram_from_json",
    "gram_matrix",
    "mu_bar",
    "parse_plumbing",
    "qhd_obstruction",
    "render_report",
    "serialize_plumbing",
    "string_counts",
    "validate",
    "verify_witness",
    "wu_classes",
]
