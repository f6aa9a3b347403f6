"""Rate regions and power allocation for the full-duplex two-way relay
channel with a composite decode-forward scheme.

All rates are log base 2 (bits per channel use).
"""

from . import channel, errors, oracle, optimizer, rate_region, regimes, sweeps
from .channel import *
from .errors import *
from .oracle import *
from .optimizer import *
from .rate_region import *
from .regimes import *
from .sweeps import *

__version__ = "0.1.0"

__all__ = ["__version__"]
__all__ += channel.__all__
__all__ += errors.__all__
__all__ += oracle.__all__
__all__ += optimizer.__all__
__all__ += rate_region.__all__
__all__ += regimes.__all__
__all__ += sweeps.__all__
