"""MM subspace solver for penalized quadratics, with rate certification."""

from .errors import InputError, NumericError, OracleError, StreamExhausted
from .majorant import MajorantAtPoint, build_majorant, check_majorization, eval_surrogate
from .model import (
    FairPenalty,
    HyperbolicPenalty,
    ProblemInstance,
    QuadraticData,
    TikhonovPenalty,
    ZeroPenalty,
    curvature_bound,
    eval_gradient,
    eval_hessian,
    eval_objective,
    load_problem,
    majorant_curvature,
    problem_from_dict,
    problem_to_dict,
    save_problem,
)
from .rates import (
    BatchRateSummary,
    RateCertificate,
    batch_rate_summary,
    certify_iteration,
    check_decay_inequality,
    check_linear_iterate_convergence,
    compute_sigma_bounds,
    gradient_reference,
)
from .solver import (
    SolveOptions,
    Trace,
    optimal_gradient_step,
    reference_minimizer,
    run_batch,
    run_online,
    subspace_step,
)
from .stream import (
    ConstantStream,
    FileReplayStream,
    GeometricPerturbationStream,
    RunningAverageStream,
    summability_report,
)
from .subspace import DirectionMatrix, SubspaceStrategy, build_subspace, parse_strategy
from .verify import verify_trace

__version__ = "0.1.0"
