"""Tests for the Adam optimizer and the MSE loss."""

import numpy as np
import pytest

from repro.nn import Adam, Tensor, mse_loss


def rosenbrock(t: Tensor) -> Tensor:
    x, y = t[0], t[1]
    return (1 - x) ** 2 + (y - x**2) ** 2 * 100.0


class TestAdam:
    def test_rosenbrock_progress(self):
        x = Tensor([-1.2, 1.0], requires_grad=True)
        opt = Adam([x], lr=0.02)
        start = float(rosenbrock(x).data)
        for _ in range(2500):
            opt.zero_grad()
            rosenbrock(x).backward()
            opt.step()
        end = float(rosenbrock(x).data)
        assert end < 1e-3 < start

    def test_bias_correction_first_step(self):
        """First Adam step has magnitude ~lr regardless of gradient scale."""
        for scale in (1e-3, 1e3):
            x = Tensor([0.0], requires_grad=True)
            opt = Adam([x], lr=0.1)
            opt.zero_grad()
            (x * scale).sum().backward()
            opt.step()
            assert abs(float(x.data[0])) == pytest.approx(0.1, rel=1e-3)

    def test_invalid_betas(self):
        x = Tensor([1.0], requires_grad=True)
        with pytest.raises(ValueError):
            Adam([x], betas=(1.0, 0.9))

    def test_invalid_params(self):
        x = Tensor([1.0], requires_grad=True)
        with pytest.raises(ValueError):
            Adam([x], lr=-1)
        with pytest.raises(ValueError):
            Adam([], lr=0.1)

    def test_skips_parameters_without_grad(self):
        x = Tensor([1.0], requires_grad=True)
        opt = Adam([x], lr=0.1)
        opt.step()  # no backward happened; should be a no-op
        np.testing.assert_allclose(x.data, [1.0])

    @pytest.mark.parametrize("weight_decay", [0.0, 0.01])
    def test_inplace_step_matches_textbook_update(self, weight_decay):
        """The buffer-reusing step must reproduce the allocating formula."""
        rng = np.random.default_rng(0)
        data = rng.normal(size=(4, 3))
        x = Tensor(data.copy(), requires_grad=True)
        opt = Adam([x], lr=0.05, betas=(0.9, 0.999), eps=1e-8,
                   weight_decay=weight_decay)

        # Reference state updated with the plain allocating expressions.
        ref = data.copy()
        m = np.zeros_like(ref)
        v = np.zeros_like(ref)
        for t in range(1, 6):
            grad = rng.normal(size=ref.shape)
            x.grad = grad.copy()
            opt.step()

            g = grad + weight_decay * ref if weight_decay else grad
            m = 0.9 * m + 0.1 * g
            v = 0.999 * v + 0.001 * g * g
            m_hat = m / (1.0 - 0.9**t)
            v_hat = v / (1.0 - 0.999**t)
            ref = ref - 0.05 * m_hat / (np.sqrt(v_hat) + 1e-8)
            np.testing.assert_allclose(x.data, ref, rtol=0, atol=1e-14)

    def test_step_does_not_alias_grad_or_state(self):
        """Scratch reuse must never write through to the gradient array."""
        x = Tensor([1.0, 2.0], requires_grad=True)
        opt = Adam([x], lr=0.1)
        grad = np.array([0.5, -0.5])
        x.grad = grad
        opt.step()
        np.testing.assert_array_equal(grad, [0.5, -0.5])


class TestLosses:
    def test_mse_value(self):
        a = Tensor([1.0, 2.0])
        b = Tensor([3.0, 2.0])
        assert mse_loss(a, b).item() == pytest.approx(2.0)

    def test_mse_grad(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        mse_loss(a, Tensor([0.0, 0.0])).backward()
        np.testing.assert_allclose(a.grad, [1.0, 2.0])  # 2x/n

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            mse_loss(Tensor([1.0]), Tensor([1.0, 2.0]))
