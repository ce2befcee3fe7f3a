"""Posterior-mean denoisers, the regularizers they implicitly minimize, and a
plug-and-play proximal-gradient solver built on top of them.

The core chain: a scalar mixture prior (`prior`) is smoothed by Gaussian noise
into a marginal (`marginal`); the marginal's score gives the posterior-mean
denoiser (`denoiser`); inverting the denoiser recovers the penalty the
denoiser is the proximal operator of (`regularizer`), with one-dimensional
Moreau envelope machinery in `moreau`; `operators` and `pnp` pose circular
deblurring problems and run proximal-gradient iterations with the denoiser as
the proximal step; `certificates` checks the chain's claims numerically, and
`cli` exposes config-driven experiments.
"""

from .certificates import (CERTIFICATES, COMPARISONS, CONVEXITY_TOL, NUMERICAL_FAILURES, passes,
                           run_certificates)
from .denoiser import Denoiser, QuadratureError
from .marginal import Marginal, NoiseModel
from .moreau import (
    EnvelopeNotUnimodalError,
    EnvelopeResult,
    EnvelopeUnboundedError,
    MultivaluedProxError,
    envelope_gradient,
    lower_envelope,
    lower_envelope_many,
    upper_envelope,
    upper_envelope_many,
)
from .operators import CircularConv2D, Fidelity, gaussian_blur_kernel, observe
from .pnp import (
    DivergenceError,
    Init,
    IterRecord,
    RateCertificate,
    SolverConfig,
    SolverTrace,
    descent_check,
    psnr,
    rate_certificate,
    run,
    write_trace_csv,
)
from .prior import ComponentKind, MixtureComponent, MixturePrior
from .regularizer import ImageGridError, Regularizer, certify_weak_convexity

__all__ = [
    "CERTIFICATES",
    "COMPARISONS",
    "CONVEXITY_TOL",
    "CircularConv2D",
    "ComponentKind",
    "Denoiser",
    "DivergenceError",
    "EnvelopeNotUnimodalError",
    "EnvelopeResult",
    "EnvelopeUnboundedError",
    "Fidelity",
    "ImageGridError",
    "Init",
    "IterRecord",
    "Marginal",
    "MixtureComponent",
    "MixturePrior",
    "MultivaluedProxError",
    "NUMERICAL_FAILURES",
    "NoiseModel",
    "QuadratureError",
    "RateCertificate",
    "Regularizer",
    "SolverConfig",
    "SolverTrace",
    "certify_weak_convexity",
    "descent_check",
    "envelope_gradient",
    "gaussian_blur_kernel",
    "lower_envelope",
    "lower_envelope_many",
    "observe",
    "passes",
    "psnr",
    "rate_certificate",
    "run",
    "run_certificates",
    "upper_envelope",
    "upper_envelope_many",
    "write_trace_csv",
]

__version__ = "0.1.0"
