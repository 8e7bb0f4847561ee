"""Hyperspectral pansharpening toolkit: fusion methods, a Wald-protocol
evaluation harness, and supporting raster utilities."""

from .imgcore import DynamicRange, SpectralImage
from .sensorsim import (
    NOISE_ALGORITHM,
    BlurKernel,
    SensorModel,
    add_gaussian_noise,
    blur_downsample,
    default_pan_response,
    default_phase,
    kernel_from_mtf,
    synth_pan,
)
from .resample import upsample
from .metrics import (
    QualityReport,
    cc,
    compute_report,
    ergas,
    rmse,
    rmse_map,
    rmse_per_band,
    sam,
)

__version__ = "0.1.0"

__all__ = [
    "DynamicRange",
    "SpectralImage",
    "NOISE_ALGORITHM",
    "BlurKernel",
    "SensorModel",
    "add_gaussian_noise",
    "blur_downsample",
    "default_pan_response",
    "default_phase",
    "kernel_from_mtf",
    "synth_pan",
    "upsample",
    "QualityReport",
    "cc",
    "compute_report",
    "ergas",
    "rmse",
    "rmse_map",
    "rmse_per_band",
    "sam",
    "__version__",
]
