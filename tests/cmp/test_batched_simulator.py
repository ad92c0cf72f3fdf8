"""Bitwise-parity tests for the batched CMP simulator.

The batched polish contract (DESIGN.md "Batched CMP simulator") is
*bitwise* identity: ``simulate_batch`` over a ``(B, L, N, M)`` stack
must return exactly what a Python loop of solo ``simulate`` calls
returns, bit for bit, in every output array and in both the default and
``stack_topography`` modes.  These tests pin that contract, the
lift-off behaviour of the batched pressure solve, and the float64
compute precision.
"""

import numpy as np
import pytest

from repro.cmp import (
    CmpSimulator,
    DEFAULT_PROCESS,
    ProcessParams,
    effective_density,
    solve_pressure,
)
from repro.cmp import pad as pad_mod
from repro.layout import (
    FeatureStack,
    LayerWindows,
    Layout,
    WindowGrid,
    apply_fill,
    make_design_a,
    make_design_b,
    make_design_c,
    stack_features,
)

RESULT_FIELDS = ("height", "dishing", "erosion", "pressure", "step_height")


def varied_stacks(rows=8, cols=8, count=4, layers=None, seed=0):
    """Distinct designs + fills sharing one grid (and layer count)."""
    makers = (make_design_a, make_design_b, make_design_c)
    rng = np.random.default_rng(seed)
    stacks = []
    for k in range(count):
        layout = makers[k % len(makers)](rows=rows, cols=cols)
        fill = rng.uniform(0.0, 0.9) * layout.slack_stack()
        features = apply_fill(layout, fill)
        if layers is not None:
            features = FeatureStack(
                density=features.density[:layers],
                perimeter=features.perimeter[:layers],
                wire_width=features.wire_width[:layers],
                trench_depth=features.trench_depth[:layers],
            )
        stacks.append(features)
    return stacks


def assert_batched_bitwise(batched, solos):
    """Every result array of every entry matches its solo run exactly."""
    for name in RESULT_FIELDS:
        arr = getattr(batched, name)
        assert arr.shape == (len(solos),) + getattr(solos[0], name).shape
        for k, solo in enumerate(solos):
            np.testing.assert_array_equal(
                arr[k], getattr(solo, name),
                err_msg=f"{name} differs for batch entry {k}")


class TestSimulateBatchParity:
    @pytest.mark.parametrize("batch", [1, 4])
    def test_default_mode_bitwise(self, batch):
        stacks = varied_stacks(count=batch)
        sim = CmpSimulator()
        batched = sim.simulate_batch(stacks)
        solos = [sim.simulate(s) for s in stacks]
        assert_batched_bitwise(batched, solos)

    def test_prestacked_input_equivalent(self):
        stacks = varied_stacks(count=3)
        sim = CmpSimulator()
        from_seq = sim.simulate_batch(stacks)
        from_stack = sim.simulate_batch(stack_features(stacks))
        for name in RESULT_FIELDS:
            np.testing.assert_array_equal(
                getattr(from_seq, name), getattr(from_stack, name))

    def test_windowed_smoother_path_bitwise(self):
        """Grids beyond DENSE_SMOOTHER_MAX take the sliding-window
        smoother; the batched contract must hold there too."""
        rows = pad_mod.DENSE_SMOOTHER_MAX + 6
        stacks = varied_stacks(rows=rows, cols=6, count=2, layers=1)
        sim = CmpSimulator()
        batched = sim.simulate_batch(stacks)
        solos = [sim.simulate(s) for s in stacks]
        assert_batched_bitwise(batched, solos)

    def test_entry_slices_match(self):
        stacks = varied_stacks(count=3)
        sim = CmpSimulator()
        batched = sim.simulate_batch(stacks)
        assert batched.batch_shape == (3,)
        one = batched.entry(1)
        assert one.batch_shape == ()
        for name in RESULT_FIELDS:
            np.testing.assert_array_equal(
                getattr(one, name), getattr(batched, name)[1])

    def test_single_stack_rejected(self):
        sim = CmpSimulator()
        with pytest.raises(ValueError, match="leading batch axis"):
            sim.simulate_batch(varied_stacks(count=1)[0])

    def test_mismatched_shapes_rejected(self):
        a = varied_stacks(rows=8, cols=8, count=1)[0]
        b = varied_stacks(rows=6, cols=6, count=1)[0]
        with pytest.raises(ValueError, match="shape"):
            stack_features([a, b])

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError):
            stack_features([])


class TestStackedModeParity:
    def test_single_layer_stacked_equals_default(self):
        """With one layer there is no residual to propagate, so the
        multilevel mode must reproduce the default path exactly."""
        stacks = varied_stacks(count=2, layers=1)
        default = CmpSimulator(ProcessParams(stack_topography=False))
        stacked = CmpSimulator(ProcessParams(stack_topography=True))
        for features in stacks:
            a = default.simulate(features)
            b = stacked.simulate(features)
            for name in RESULT_FIELDS:
                np.testing.assert_array_equal(
                    getattr(a, name), getattr(b, name), err_msg=name)

    def test_batched_multilevel_bitwise(self):
        stacks = varied_stacks(count=3)
        sim = CmpSimulator(ProcessParams(stack_topography=True,
                                         stacking_attenuation=0.7))
        batched = sim.simulate_batch(stacks)
        solos = [sim.simulate(s) for s in stacks]
        assert_batched_bitwise(batched, solos)


def rough_envelopes(scales, rows=12, cols=12, layers=2, seed=7):
    """One ``(len(scales), layers, rows, cols)`` batch of envelopes whose
    per-entry roughness is set by ``scales``."""
    rng = np.random.default_rng(seed)
    return np.stack([
        rng.normal(0.0, s, size=(layers, rows, cols)) for s in scales
    ])


class TestSolvePressureBatched:
    # Stiff enough that rough entries lift off, gentle ones do not.
    PARAMS = DEFAULT_PROCESS.scaled(pad_stiffness=3.0e-3)

    def test_mixed_liftoff_batch_bitwise(self):
        """A batch mixing lifted (iterative) and non-lifted (fast path)
        entries must match per-entry solo solves exactly."""
        env = rough_envelopes(scales=(10.0, 2000.0, 50.0, 5000.0))
        batched = solve_pressure(env, 100.0, self.PARAMS, batch_ndim=1)
        lifted_seen = unlifted_seen = False
        for k in range(env.shape[0]):
            solo = solve_pressure(env[k], 100.0, self.PARAMS)
            np.testing.assert_array_equal(batched[k], solo)
            ref = pad_mod.conformed_reference(env[k], 100.0, self.PARAMS)
            base = 1.0 + self.PARAMS.pad_stiffness * (env[k] - ref)
            if np.any(base <= 0.0):
                lifted_seen = True
            else:
                unlifted_seen = True
        assert lifted_seen and unlifted_seen  # the mix actually mixes

    def test_liftoff_balances_per_layer(self):
        env = rough_envelopes(scales=(3000.0, 4000.0))
        p = solve_pressure(env, 100.0, self.PARAMS, batch_ndim=1)
        assert np.all(p >= 0.0)
        means = p.mean(axis=(-2, -1))
        np.testing.assert_allclose(means, self.PARAMS.pressure_psi,
                                   rtol=1e-6)

    def test_degenerate_uniform_load_fallback(self, monkeypatch):
        """If every window of one entry lifts off (all base <= 0 — a
        defensive case the smoothing normally forbids), that entry falls
        back to the uniform applied load without disturbing the others."""
        real_ref = pad_mod.conformed_reference
        marker = 1.0e7  # entries offset this high get a sunk reference

        def sinking_reference(envelope, window_um, params):
            ref = real_ref(envelope, window_um, params)
            sunk = np.mean(envelope, axis=(-2, -1),
                           keepdims=True) > marker / 2
            return np.where(sunk, ref + 1.0e8, ref)

        monkeypatch.setattr(pad_mod, "conformed_reference",
                            sinking_reference)
        rng = np.random.default_rng(3)
        env = np.stack([
            rng.normal(marker, 100.0, size=(2, 10, 10)),  # degenerate
            rng.normal(0.0, 2000.0, size=(2, 10, 10)),    # lifts, converges
        ])
        batched = solve_pressure(env, 100.0, self.PARAMS, batch_ndim=1)
        # The sunk entry gets the uniform fallback pressure...
        np.testing.assert_array_equal(
            batched[0], np.full((2, 10, 10), self.PARAMS.pressure_psi))
        # ...and both entries still match their solo solves bitwise.
        for k in range(2):
            np.testing.assert_array_equal(
                batched[k], solve_pressure(env[k], 100.0, self.PARAMS))

    def test_batch_ndim_validated(self):
        env = np.zeros((2, 3, 4, 4))
        with pytest.raises(ValueError, match="batch_ndim"):
            solve_pressure(env, 100.0, DEFAULT_PROCESS, batch_ndim=3)
        with pytest.raises(ValueError, match="batch_ndim"):
            solve_pressure(env, 100.0, DEFAULT_PROCESS, batch_ndim=-1)


class TestFloat64Precision:
    def test_float32_features_computed_in_float64(self):
        f = varied_stacks(count=1)[0]
        f32 = FeatureStack(
            density=f.density.astype(np.float32),
            perimeter=f.perimeter.astype(np.float32),
            wire_width=f.wire_width.astype(np.float32),
            trench_depth=f.trench_depth.astype(np.float32),
        )
        f64 = FeatureStack(
            density=f32.density.astype(np.float64),
            perimeter=f32.perimeter.astype(np.float64),
            wire_width=f32.wire_width.astype(np.float64),
            trench_depth=f32.trench_depth.astype(np.float64),
        )
        res = CmpSimulator().simulate(f32)
        ref = CmpSimulator().simulate(f64)
        for name in RESULT_FIELDS:
            assert getattr(res, name).dtype == np.float64, name
            np.testing.assert_array_equal(getattr(res, name),
                                          getattr(ref, name), err_msg=name)


class TestMaxEffectiveDensity:
    def test_default_matches_historical_clip(self):
        assert DEFAULT_PROCESS.max_effective_density == 0.98

    def test_custom_ceiling_applied(self):
        params = DEFAULT_PROCESS.scaled(max_effective_density=0.9)
        rho = effective_density(np.array([[0.97]]), np.array([[1.0e6]]),
                                1.0e4, params)
        assert rho[0, 0] == 0.9

    @pytest.mark.parametrize("bad", [0.0, 0.01, 1.2, -0.5])
    def test_invalid_values_rejected(self, bad):
        with pytest.raises(ValueError, match="max_effective_density"):
            ProcessParams(max_effective_density=bad)

    def test_must_exceed_min(self):
        with pytest.raises(ValueError, match="max_effective_density"):
            ProcessParams(min_effective_density=0.5,
                          max_effective_density=0.5)

    def test_ceiling_changes_simulation(self):
        """The promoted knob is live: a lower ceiling alters the polish
        of a near-blanket layout."""
        grid = WindowGrid(8, 8)
        d = np.full((8, 8), 0.95)
        layer = LayerWindows("M1", d, np.zeros_like(d),
                             np.full_like(d, 5.0e5),
                             np.full_like(d, 0.2), 3000.0)
        lay = Layout("dense", grid, [layer])
        hi = CmpSimulator(DEFAULT_PROCESS).simulate_layout(lay).height
        lo = CmpSimulator(
            DEFAULT_PROCESS.scaled(max_effective_density=0.96)
        ).simulate_layout(lay).height
        assert not np.array_equal(hi, lo)
