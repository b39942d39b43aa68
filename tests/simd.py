"""The SIMD level that byte pins are keyed by.

numpy 2.4 dispatches its transcendental kernels and transforms by x86-64
level, and some of their results differ in the last bits between levels,
so a test that pins bytes keys the pins by (simd_level(), ...) and gets
them through pin(), which skips, naming the numpy and the level, where
no pin was recorded.  Each level is reached on a machine that has the
one above it by limiting numpy before it is imported:

    NPY_DISABLE_CPU_FEATURES="X86_V4"         -> X86_V3
    NPY_DISABLE_CPU_FEATURES="X86_V4 X86_V3"  -> X86_V2

Run as a script, it prints the level in use, or "none" where no level
is keyed (another numpy, another architecture).
"""

from __future__ import annotations

import numpy as np
import pytest

LEVELS = ("X86_V4", "X86_V3", "X86_V2")


def simd_level() -> str | None:
    """The x86-64 SIMD level numpy 2.4 dispatches to, or None elsewhere."""
    if not np.__version__.startswith("2.4."):
        return None
    from numpy._core._multiarray_umath import __cpu_features__
    return next((level for level in LEVELS if __cpu_features__.get(level)), None)


def pin(pins: dict, *key):
    """pins[(simd_level(), *key)], or a skip saying which level has none."""
    level = simd_level()
    if (level, *key) not in pins:
        pytest.skip(f"no pin for numpy {np.__version__} at SIMD level {level}")
    return pins[(level, *key)]


if __name__ == "__main__":
    print(simd_level() or "none")
