"""Curvature-adaptive step sizes for gradient, Newton and quasi-Newton
methods on self-concordant objectives, with line-search and hybrid
baselines, a logistic-regression benchmark harness, and stochastic
variants for online least squares."""

from .data_io import (SparseDataset, load_libsvm, max_row_norm, parse_libsvm,
                      serialize_libsvm, synth_logistic)
from .directions import (BfgsDense, GradientDescent, LBfgs, Newton,
                         bfgs_update_dense, compute_direction,
                         default_lbfgs_memory, identity_scaling_factor,
                         ingest_pair, new_state, two_loop_direction)
from .driver import (IterationRecord, ReferenceOptimum, RunConfig,
                     SuperlinearReport, Termination, Trace, run,
                     superlinear_report, t_settle_index)
from .errors import NumericalError, ParseError
from .oracles import (HessVecRay, LogisticObjective, ObjectiveOracle,
                      OnlineLsExpectedObjective, OraclePoint,
                      QuadraticObjective, Ray, logistic_sc_scale)
from .sc import (adaptive_step, omega, sc_lower_f, sc_lower_gd, sc_upper_f,
                 sc_upper_gd)
from .steps import (Adaptive, ArmijoWolfe, Constant, Hybrid, StepOutcome,
                    adaptive_step_size, armijo_check, armijo_wolfe_search,
                    choose_step, hybrid_select, wolfe_check)
from .stochastic import (CONSTANT_STEP_SIZES, ConstantBatch, GrowingBatch,
                         OnlineSampler, SampledBatchOracle, batch_size,
                         draw_batch, make_sparse_beta, make_synthetic_sigma,
                         stochastic_run)

__version__ = "0.1.0"
