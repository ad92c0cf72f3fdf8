"""Tests for functional activations and tensor surgery ops."""

import numpy as np
import pytest

from repro.nn import Tensor
from repro.nn import functional as F

from .gradcheck import check_grad


class TestActivations:
    def test_relu_forward(self):
        np.testing.assert_allclose(
            F.relu(Tensor([-1.0, 0.0, 2.0])).data, [0, 0, 2]
        )

    def test_relu_grad(self):
        check_grad(F.relu, np.array([-1.0, 0.5, 2.0]))

    def test_sigmoid_forward_range(self):
        out = F.sigmoid(Tensor([-100.0, 0.0, 100.0]))
        np.testing.assert_allclose(out.data, [0.0, 0.5, 1.0], atol=1e-10)

    def test_sigmoid_grad(self):
        check_grad(F.sigmoid, np.array([-2.0, 0.0, 1.5]))

    def test_sigmoid_extreme_inputs_finite(self):
        t = Tensor([1e6, -1e6], requires_grad=True)
        out = F.sigmoid(t)
        out.sum().backward()
        assert np.all(np.isfinite(out.data))
        assert np.all(np.isfinite(t.grad))


class TestMinMaxClip:
    def test_maximum_forward(self):
        np.testing.assert_allclose(
            F.maximum(Tensor([1.0, 5.0]), 3.0).data, [3, 5]
        )

    def test_maximum_grad_both_sides(self):
        check_grad(lambda t: F.maximum(t, 1.0), np.array([0.0, 2.0]))
        a = np.array([0.0, 2.0])
        other = Tensor(np.array([1.0, 1.0]), requires_grad=True)
        out = F.maximum(Tensor(a), other).sum()
        out.backward()
        np.testing.assert_allclose(other.grad, [1.0, 0.0])

    def test_minimum(self):
        np.testing.assert_allclose(
            F.minimum(Tensor([1.0, 5.0]), 3.0).data, [1, 3]
        )
        check_grad(lambda t: F.minimum(t, 1.0), np.array([0.0, 2.0]))


class TestConcatPad:
    def test_concat_forward(self):
        a = Tensor(np.ones((1, 2, 3)))
        b = Tensor(np.zeros((1, 1, 3)))
        out = F.concat([a, b], axis=1)
        assert out.shape == (1, 3, 3)

    def test_concat_grad_splits(self):
        a = Tensor(np.ones((2, 2)), requires_grad=True)
        b = Tensor(np.ones((2, 3)), requires_grad=True)
        out = F.concat([a, b], axis=1)
        out.backward(np.arange(10.0).reshape(2, 5))
        np.testing.assert_allclose(a.grad, [[0, 1], [5, 6]])
        np.testing.assert_allclose(b.grad, [[2, 3, 4], [7, 8, 9]])

    def test_concat_empty_rejected(self):
        with pytest.raises(ValueError):
            F.concat([], axis=0)

    def test_pad2d_forward(self):
        x = Tensor(np.ones((1, 1, 2, 2)))
        out = F.pad2d(x, (1, 0, 0, 2))
        assert out.shape == (1, 1, 3, 4)
        assert out.data[0, 0, 0].sum() == 0  # padded top row
        assert out.data[0, 0, 1, :2].sum() == 2

    def test_pad2d_grad(self):
        check_grad(lambda t: F.pad2d(t, (1, 2, 3, 0)) * 2.0,
                   np.random.default_rng(0).normal(size=(1, 1, 3, 3)))

    def test_pad2d_negative_rejected(self):
        with pytest.raises(ValueError):
            F.pad2d(Tensor(np.ones((1, 1, 2, 2))), (-1, 0, 0, 0))
