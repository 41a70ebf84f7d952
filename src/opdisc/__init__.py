"""Minimal-error discrimination of quantum operations.

Closed forms for channels mixing orthogonal unitary families (qubit Pauli
channels in particular), a numeric path for arbitrary Kraus maps with and
without an entangled ancilla, and naive brute-force oracles to check both.

Each module lists the public names it defines in its own __all__; the
package exports exactly those.
"""

from . import errors, linalg, channels, optimizer, discrimination, oracle
from .errors import *
from .linalg import *
from .channels import *
from .optimizer import *
from .discrimination import *
from .oracle import *

__all__ = [
    *errors.__all__, *linalg.__all__, *channels.__all__,
    *optimizer.__all__, *discrimination.__all__, *oracle.__all__,
]

__version__ = "0.1.0"
