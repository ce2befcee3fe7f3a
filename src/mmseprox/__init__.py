"""Posterior-mean denoisers, the regularizers they implicitly minimize, and a
plug-and-play proximal-gradient solver built on top of them.

The core chain: a scalar mixture prior (`prior`) is smoothed by Gaussian noise
into a marginal (`marginal`); the marginal's score gives the posterior-mean
denoiser (`denoiser`); inverting the denoiser recovers the penalty the
denoiser is the proximal operator of (`regularizer`), with one-dimensional
Moreau envelope machinery in `moreau`; `operators` and `pnp` pose circular
deblurring problems and run proximal-gradient iterations with the denoiser as
the proximal step; `cli` exposes config-driven experiments.
"""

from .denoiser import Denoiser, QuadratureError
from .marginal import Marginal, NoiseModel
from .moreau import (
    EnvelopeResult,
    EnvelopeUnboundedError,
    MultivaluedProxError,
    ScalarFunction,
    envelope_gradient,
    lower_envelope,
    lower_envelope_many,
    prox,
    upper_envelope,
    upper_envelope_many,
)
from .operators import CircularConv2D, Fidelity, gaussian_blur_kernel
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
from .regularizer import (
    CertificateReport,
    Regularizer,
    certify_weak_convexity,
    second_difference_report,
)

__all__ = [
    "CertificateReport",
    "CircularConv2D",
    "ComponentKind",
    "Denoiser",
    "DivergenceError",
    "EnvelopeResult",
    "EnvelopeUnboundedError",
    "Fidelity",
    "Init",
    "IterRecord",
    "Marginal",
    "MixtureComponent",
    "MixturePrior",
    "MultivaluedProxError",
    "NoiseModel",
    "QuadratureError",
    "RateCertificate",
    "Regularizer",
    "ScalarFunction",
    "SolverConfig",
    "SolverTrace",
    "certify_weak_convexity",
    "descent_check",
    "envelope_gradient",
    "gaussian_blur_kernel",
    "lower_envelope",
    "lower_envelope_many",
    "prox",
    "psnr",
    "rate_certificate",
    "run",
    "second_difference_report",
    "upper_envelope",
    "upper_envelope_many",
    "write_trace_csv",
]

__version__ = "0.1.0"
