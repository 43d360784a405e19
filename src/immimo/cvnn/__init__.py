"""From-scratch complex-valued neural-network engine (plus real twins)."""

from immimo.cvnn.layers import (
    ComplexConv2d,
    ComplexDense,
    ComplexReLU,
    ComplexBatchNorm,
    RealConv2d,
    RealDense,
    RealReLU,
    RealSigmoid,
    RealBatchNorm,
    RealHeadDense,
    Flatten,
    Residual,
    SplitReIm,
    MergeReIm,
    layer_from_spec,
)
from immimo.cvnn.model import Model, count_params, count_flops
from immimo.cvnn.losses import bce, bce_backward, mse, mse_backward
from immimo.cvnn.optim import Adam
