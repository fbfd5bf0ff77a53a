"""Machine-speed reference for turning measured times into reference seconds.

The processors of a shared machine change speed by up to a factor of
two as other tenants come and go, over seconds to minutes, which no
median inside one run can remove.  ``kernel`` is a fixed piece of
pure-Python work of the same kind as cgk's (sparse polynomial products
over ``Fraction`` coefficients, small objects with slots), timed next to
every sample.  A sample divided by the kernel's time measured around it
no longer depends on the machine's speed at that moment; multiplied by
``REFERENCE_S`` it reads as seconds on a machine where the kernel takes
``REFERENCE_S`` seconds.  The kernel never touches ``cgk``, so a change to
the program moves only the samples, not the reference.
"""

import time
from fractions import Fraction

# The kernel's time on an unloaded Intel Xeon vCPU under CPython 3.11;
# reported figures are seconds at that speed.
REFERENCE_S = 0.0015

_LEFT = {(i % 3, i % 4, i // 5, 0, 0): Fraction(i + 1, i % 4 + 1) for i in range(14)}
_RIGHT = {(i % 2, i // 3, i % 5, 1, 0): Fraction(2 * i - 7, i % 3 + 1)
          for i in range(12)}


class _Term:
    __slots__ = ("terms", "scale")

    def __init__(self, terms, scale):
        self.terms = terms
        self.scale = scale


def _product(a, b):
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            prev = out.get(e)
            prod = c1 * c2
            out[e] = prod if prev is None else prev + prod
    return _Term({e: c for e, c in out.items() if c}, 1)


def kernel():
    """The fixed reference work (about REFERENCE_S seconds)."""
    for _ in range(3):
        _product(_LEFT, _RIGHT)


def kernel_seconds():
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start
