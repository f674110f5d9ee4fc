"""Maximally orthogonal launch-state sets in generalized Stokes space.

Library layout:

    gellmann   Gell-Mann basis, Jones/Stokes maps, and the angle chart on
               stacked (m, 2(n-1)) angle arrays
    sets       launch-set families (Yang-Nolan, MUB, SIC, random, simplex)
    metrics    Gram matrix, noise-amplification cost, set diagnostics
    spheres    L-BFGS + Armijo descent loop on products of spheres or a chart
    optimize   cost, gradients, multi-start descent and the one worker pool
    fibersim   simulated modal-dispersion / mode-dependent-loss measurement
    seeding    deterministic RNG streams and the complex Gaussian draw
    cli        command-line front end (`stokesopt ...`)
"""
from __future__ import annotations

__version__ = "0.1.0"

from .errors import (
    ConfigError,
    DimensionError,
    EstimationFailedError,
    SearchFailedError,
    SingularSetError,
    StokesOptError,
)
from .gellmann import (
    assemble,
    expand_matrix,
    gell_mann_basis,
    jones_to_stokes,
    norm_coeff,
    projection_operator,
    stokes_dot_from_jones,
)
from .sets import (
    LaunchSet,
    SimplexSet,
    bundled_optimal_set,
    load_set,
    mub_set,
    random_set,
    save_set,
    sic_search,
    simplex_set,
    yang_nolan,
)
from .metrics import (
    SetMetrics,
    gram,
    metrics,
    metrics_from_gram,
    variance_prediction,
)
from .optimize import (
    OptimizerConfig,
    OptimizerRun,
    descend,
    gradient_check,
    jitter_set,
    multi_start,
)
from .fibersim import (
    FiberModel,
    MdlEstimate,
    ReceiverModel,
    measure_delay,
    monte_carlo_md,
    monte_carlo_mdl,
    reconstruct_md,
    reconstruct_mdl,
    synth_md_fiber,
    synth_mdl_fiber,
)
