import collections

import numpy as np
import pytest


@pytest.fixture
def fft_calls(monkeypatch):
    """A count of the numpy.fft.rfft and irfft calls made while the test runs."""
    calls = collections.Counter()
    for name in ("rfft", "irfft"):
        real = getattr(np.fft, name)

        def counted(*args, _name=name, _real=real, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(np.fft, name, counted)
    return calls
