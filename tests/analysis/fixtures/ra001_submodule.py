"""RA001 fixture: ``import numpy.random`` binds only ``numpy`` (one finding).

``numpy.zeros`` is not a numpy.random call; ``numpy.random.rand`` is.
"""

import numpy.random

DRAWN = numpy.random.rand(3)
ZEROS = numpy.zeros(3)
