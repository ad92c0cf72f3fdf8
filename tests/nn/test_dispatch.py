"""Backend parity suite for the shape-rule conv dispatch layer.

Both backends (im2col / matmul) must produce the same forward values AND
the same input/weight/bias adjoints, across strides 1-2, paddings 0-2,
odd shapes and 1x1/2x2/3x3 kernels.  The im2col path is the reference
(it is the seed implementation, already validated against brute-force
loops in test_conv.py).  A backend is forced by monkeypatching the shape
rule for the duration of a test.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.nn import Tensor, conv2d
from repro.nn import dispatch


@pytest.fixture(autouse=True)
def _isolated_dispatch():
    """Each test starts and ends with an empty plan table."""
    dispatch.clear_caches()
    yield
    dispatch.clear_caches()


def _force(monkeypatch, backend):
    monkeypatch.setattr(dispatch, "_heuristic", lambda op, kh, kw: backend)
    dispatch.clear_caches()


def _conv_case(backend, monkeypatch, *, shape, wshape, stride, padding):
    _force(monkeypatch, backend)
    rng = np.random.default_rng(7)
    x = Tensor(rng.normal(size=shape), requires_grad=True)
    w = Tensor(rng.normal(size=wshape), requires_grad=True)
    b = Tensor(rng.normal(size=wshape[0]), requires_grad=True)
    out = conv2d(x, w, b, stride=stride, padding=padding)
    out.backward(rng.normal(size=out.shape))
    return out.data, x.grad, w.grad, b.grad


class TestConv2dBackendParity:
    @pytest.mark.parametrize("backend", ["matmul"])
    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("padding", [0, 1, 2])
    @pytest.mark.parametrize("shape,wshape", [
        ((2, 3, 6, 7), (4, 3, 3, 3)),    # odd spatial, 3x3
        ((1, 2, 9, 5), (3, 2, 2, 2)),    # even kernel, odd map
        ((2, 4, 8, 8), (5, 4, 1, 1)),    # pointwise
        ((1, 1, 11, 13), (1, 1, 5, 3)),  # asymmetric kernel
    ])
    def test_forward_and_adjoints_match_im2col(self, backend, stride, padding,
                                               shape, wshape, monkeypatch):
        ref = _conv_case("im2col", monkeypatch,
                         shape=shape, wshape=wshape, stride=stride,
                         padding=padding)
        got = _conv_case(backend, monkeypatch,
                         shape=shape, wshape=wshape, stride=stride,
                         padding=padding)
        for r, g, name in zip(ref, got, ("out", "dx", "dw", "db")):
            np.testing.assert_allclose(g, r, rtol=1e-9, atol=1e-9,
                                       err_msg=f"{backend}/{name}")


class TestPlanCache:
    def test_heuristic_below_threshold(self):
        rng = np.random.default_rng(0)
        dispatch.corr2d(rng.normal(size=(1, 2, 8, 8)),
                        rng.normal(size=(3, 2, 3, 3)))
        dispatch.corr2d(rng.normal(size=(1, 2, 8, 8)),
                        rng.normal(size=(3, 2, 1, 1)))
        dispatch.corr2d(rng.normal(size=(1, 2, 8, 8)),
                        rng.normal(size=(3, 2, 5, 5)))
        dispatch.corr2d_weight_grad(rng.normal(size=(1, 3, 6, 6)),
                                    rng.normal(size=(1, 2, 8, 8)), 3, 3)
        plans = dispatch.plan_table()
        by_key = {(key.split("|")[0], key.split("|")[1].split("k")[1][:3]): plan
                  for key, plan in plans.items()}
        # Small forward kernels ride the shifted-GEMM path; big kernels
        # and the fused weight-grad contraction stay on im2col.
        assert by_key[("corr", "3x3")]["backend"] == "matmul"
        assert by_key[("corr", "1x1")]["backend"] == "matmul"
        assert by_key[("corr", "5x5")]["backend"] == "im2col"
        assert by_key[("wgrad", "3x3")]["backend"] == "im2col"
        assert all(p["source"] == "heuristic" for p in plans.values())

    def test_rule_ignores_map_size(self):
        """Large maps get the same shape rule as small ones: no timing."""
        rng = np.random.default_rng(0)
        xp = rng.normal(size=(1, 2, 160, 160))
        dispatch.corr2d(xp, rng.normal(size=(3, 2, 3, 3)))
        dispatch.corr2d_weight_grad(rng.normal(size=(1, 3, 158, 158)), xp,
                                    3, 3)
        plans = dispatch.plan_table()
        assert sorted(p["backend"] for p in plans.values()) == [
            "im2col", "matmul"]
        assert all(p == {"backend": p["backend"], "source": "heuristic"}
                   for p in plans.values())


# One cold interpreter: a fixed-seed depth-2 surrogate on a 160x160
# design-A layout, one evaluate (value and gradient), hashed.
_COLD_EVALUATE = """
import hashlib
import numpy as np
from repro.layout import make_design_a
from repro.nn import UNet
from repro.surrogate import (
    NUM_FEATURE_CHANNELS, CmpNeuralNetwork, HeightNormalizer,
    PlanarityWeights)

layout = make_design_a(rows=160, cols=160)
unet = UNet(NUM_FEATURE_CHANNELS, 1, base_channels=4, depth=2, rng=0)
net = CmpNeuralNetwork(layout, unet, HeightNormalizer(6000.0, 40.0))
fill = np.random.default_rng(5).random(layout.shape) * layout.slack_stack()
ev = net.evaluate(fill, PlanarityWeights(0.2, 100.0, 0.2, 1000.0, 0.15, 10.0))
digest = hashlib.sha256(np.float64(ev.s_plan).tobytes())
digest.update(np.ascontiguousarray(ev.heights).tobytes())
digest.update(np.ascontiguousarray(ev.gradient).tobytes())
print(digest.hexdigest())
"""


class TestColdCacheCrossProcess:
    def test_fresh_processes_give_identical_bits(self, tmp_path):
        src = str(Path(repro.__file__).resolve().parent.parent)
        digests = []
        for run in range(2):
            home = tmp_path / f"home{run}"
            home.mkdir()
            env = dict(os.environ, HOME=str(home), PYTHONPATH=src)
            proc = subprocess.run(
                [sys.executable, "-c", _COLD_EVALUATE], env=env,
                capture_output=True, text=True, timeout=300)
            assert proc.returncode == 0, proc.stderr
            digests.append(proc.stdout.strip())
        assert len(digests[0]) == len(hashlib.sha256().hexdigest())
        assert digests[0] == digests[1]
