"""Tests of the reference implementations in oracles.py."""

import math

import pytest

from oracles import adaptive_simpson, mixture_pdf_1d


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
