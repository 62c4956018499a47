"""nearband: joint wideband/near-field beamforming-gain analysis for ULAs.

Models the gain loss of a frequency-flat, plane-wave beamformer driving
a uniform linear array in the radiating near field over a wide band,
evaluates the closed-form gain surface over the two severity parameters
(gamma1, gamma2), and inverts gain thresholds into design limits:
aperture-bandwidth product, maximum usable bandwidth, and the
frequency-selective near-field boundary distance.
"""

from . import arrays, constants, fresnel, regimes
from .arrays import *  # noqa: F403
from .constants import *  # noqa: F403
from .fresnel import *  # noqa: F403
from .regimes import *  # noqa: F403

__version__ = "0.1.0"

__all__ = ["__version__", *arrays.__all__, *constants.__all__, *fresnel.__all__,
           *regimes.__all__]
