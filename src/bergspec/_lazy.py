"""numpy, imported on first numerical use.

Every bergspec module that computes with numpy binds `np` to the one
stand-in below.  The first attribute read from it imports numpy and rebinds
`np` to the numpy module in each bergspec module, so every later read is a
plain global lookup.  A built-in or parametric config parses, and `classify`
and `plot` run on it, without numpy.  The import lock makes a first read
from two threads safe: both get the same module, and both rebind to it.
"""

import sys


class _Numpy:
    def __getattr__(self, name):
        import numpy
        for key, module in sys.modules.copy().items():
            if key.startswith(__package__ + ".") and vars(module).get("np") is self:
                module.np = numpy
        return getattr(numpy, name)


np = _Numpy()
