"""specrad: certified brackets for spectral radii of nonnegative operators.

The toolkit has three layers:

- an operator algebra over dense nonnegative matrices, structured banded
  operators on l2, and finite sets of either (Hadamard products and
  powers, weighted geometric means, products, sums, adjoints,
  symmetrizations);
- bracket estimators: Perron roots via Gelfand/Collatz-Wielandt squeezes,
  operator norms, the Hausdorff measure of noncompactness, essential
  spectral radii, and joint/generalized set radii with a branch-and-bound
  refinement;
- a registry of machine-checkable inequality chains evaluated over seeded
  ensembles, with a CLI for reproducible sweeps and reports.
"""

__version__ = "0.1.0"

from .chains import (
    ChainInputs,
    ChainReport,
    ChainSpec,
    EvalContext,
    evaluate_chain,
    run_ensemble,
)
from .ensembles import EnsembleSpec
from .errors import (
    BudgetExceededError,
    ClosureOverflowError,
    DomainError,
    HypothesisViolation,
    InputFormatError,
    ShapeMismatchError,
    SpecradError,
)
from .families import (
    OperatorFamily,
    diagonal_family,
    finite_rank_family,
    identity_family,
    shift_family,
)
from .jsr import (
    gen_radius_lb,
    gripenberg_bracket,
    joint_radius_ub,
)
from .matrices import FiniteMatrix, WeightVector
from .registry import by_id, catalog_json, registry
from .sequences import (
    Constant,
    EventuallyConstant,
    PrefixWithLimit,
    RationalFormula,
    WeightSeq,
)
from .sets import (
    OperatorSet,
    set_adjoint,
    set_hadamard_mean,
    set_hadamard_power,
    set_power,
    set_product,
    set_sum,
    symmetrization,
    weighted_geometric_mean,
)
from .spectral import (
    Bracket,
    essential_spectral_radius,
    hausdorff_mnc,
    operator_norm,
    spectral_radius,
)
