"""Index-modulation MIMO simulation and detection toolkit."""

from immimo.linalg import (
    Rng,
    complex_gaussian,
    ls_solve,
    cholesky_factor,
    SingularMatrixError,
    DecompositionError,
)
from immimo.modulation import QamConstellation
from immimo.phy import (
    TacTable,
    build_tac_table,
    assemble_frame,
    demap_frame,
    draw_channel,
    make_correlated,
    apply_channel,
    noise_variance,
    ber,
)
from immimo.detectors import (
    ml_detect,
    somp_supports,
    zf_estimate,
    tacs_from_probabilities,
    classical_detect,
)

__version__ = "0.1.0"
