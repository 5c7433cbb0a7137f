"""Tests of the reference implementations in oracles.py."""

import math

import numpy as np
import pytest

from oracles import adaptive_simpson, mixture_pdf_1d, weight_1d


class TestAdaptiveSimpson:
    def test_polynomial(self):
        assert adaptive_simpson(lambda x: x * x, 0.0, 1.0) == pytest.approx(1.0 / 3.0, rel=1e-14)

    def test_exponential(self):
        val = adaptive_simpson(math.exp, 0.0, 1.0, tol=1e-13)
        assert val == pytest.approx(math.e - 1.0, rel=1e-13)

    def test_orientation(self):
        forward = adaptive_simpson(math.sin, 0.0, math.pi, tol=1e-12)
        assert forward == pytest.approx(2.0, rel=1e-12)


class TestMixturePdf:
    def test_pdf_normalizes(self):
        total = adaptive_simpson(lambda y: float(mixture_pdf_1d(y, 0.9)), -14.0, 14.0, tol=1e-13)
        assert total == pytest.approx(1.0, abs=1e-12)


class TestWeight:
    def test_complement_is_exact(self):
        """w(u) + w(-u) = 1 bit for bit (tanh is odd in floating point)."""
        u = np.linspace(-30.0, 30.0, 1001)
        assert np.all(weight_1d(u, 1.7) + weight_1d(-u, 1.7) == 1.0)

    def test_saturation(self):
        # tanh rounds to +-1 near |z| ~ 19, so the weight hits the endpoints exactly
        assert weight_1d(40.0, 1.0) == 1.0
        assert weight_1d(-40.0, 1.0) == 0.0

    def test_zero_argument(self):
        assert weight_1d(0.0, 2.3) == 0.5
