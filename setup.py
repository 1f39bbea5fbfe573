"""Build hook for the optional compiled step kernel.

The package is fully functional without the extension: it is marked
optional, so an install without a C compiler still succeeds, and
caosim.kernel then falls back to the pure-Python implementation.
"""

from setuptools import Extension, setup

setup(
    ext_modules=[
        Extension("caosim._stepcore", ["src/caosim/_stepcore.c"], optional=True)
    ]
)
