"""interplab: a numerical laboratory for interpolating predictors.

Modules
-------
rng         deterministic per-purpose random substreams
numlin      validated dense linear algebra (min-norm and SPD solves, top eigenvalue)
datagen     two-class datasets: synthetic sources, IDX loading, label corruption
kernelmach  interpolating kernel machines and random-feature sweeps
direct      the 1-nearest-neighbor rule and the simplex minority volume
netmodels   one-hidden-layer nets: exact jacobians, curvature, tangent kernels
optim       gradient descent on linear models or networks, batch-size scans
labcli      experiment runner behind the ``interplab`` command
artifacts   a run's files, written all or nothing
"""

from . import artifacts, datagen, direct, errors, kernelmach, labcli, netmodels, numlin, optim, rng
from .datagen import (
    CorruptionSpec,
    Dataset,
    TwoGaussians,
    UniformSimplex,
    bayes_risk,
    corrupt,
    load_idx,
    make_dataset,
    sample,
)
from .direct import nearest_neighbor_predict, simplex_minority_volume
from .errors import InterpLabError
from .kernelmach import (
    KernelMachine,
    KernelSpec,
    RFFModel,
    double_descent_sweep,
    fit_interpolating,
    kernel_matrix,
    kernel_predict,
    rff_fit_minnorm,
)
from .labcli import ExperimentConfig, main
from .netmodels import (
    MLPModel,
    hessian_norm,
    init_mlp,
    linearity_scan,
    tangent_kernel,
)
from .optim import critical_batch_scan, gd
from .rng import substream

__version__ = "0.1.0"

__all__ = [
    "CorruptionSpec",
    "Dataset",
    "ExperimentConfig",
    "InterpLabError",
    "KernelMachine",
    "KernelSpec",
    "MLPModel",
    "RFFModel",
    "TwoGaussians",
    "UniformSimplex",
    "artifacts",
    "bayes_risk",
    "corrupt",
    "critical_batch_scan",
    "datagen",
    "direct",
    "double_descent_sweep",
    "errors",
    "fit_interpolating",
    "gd",
    "hessian_norm",
    "init_mlp",
    "kernel_matrix",
    "kernel_predict",
    "kernelmach",
    "labcli",
    "linearity_scan",
    "load_idx",
    "main",
    "make_dataset",
    "nearest_neighbor_predict",
    "netmodels",
    "numlin",
    "optim",
    "rff_fit_minnorm",
    "rng",
    "sample",
    "simplex_minority_volume",
    "substream",
    "tangent_kernel",
]
