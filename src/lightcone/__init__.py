"""Observer-based space-time splitting, numerically.

Past-light-cone observer mappings, moving frames of reference, relative
kinematics and desk-scale Newtonian-limit verification on chart-based
spacetime models.  The modules are the interface; the package re-exports
only the names its scripts and the README's example import from it.
"""

from .charts import minkowski, schwarzschild
from .lorentz import Event
from .splitting import MultistartConfig

__version__ = "0.1.0"
