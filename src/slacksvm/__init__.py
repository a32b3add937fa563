"""Kernel SVM training under kernel-evaluation budgets.

A margin-maximizing stochastic solver with water-filling sampling, plus
regularized baselines, random Fourier features, and a benchmark harness.
"""

from .baselines import (PegasosConfig, PerceptronConfig, SdcaConfig,
                        pegasos_train, perceptron_train, sdca_train)
from .bench import (SOLVER_KINDS, BenchPlan, calibrate_nu, fourier_plan,
                    parse_plan, run_plan, train_solver)
from .data import DataError, Dataset, SyntheticSpec, generate, parse_libsvm
from .fourier import FourierMap, fourier_features_batch, linearize, make_fourier_map
from .kernels import GaussianKernel, KernelOracle, LinearKernel, kernel_from_spec
from .model import (SolverError, TrainedModel, evaluate, load_model, save_model,
                    score, score_batch, serialize_model, deserialize_model)
from .recording import RunRecord, Sample, geometric_schedule, run_steps
from .sbp import SbpConfig, SbpState, sbp_init, sbp_step, sbp_train
from .waterfill import find_gamma, find_gamma_and_bias, support_set

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
