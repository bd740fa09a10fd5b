import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reluflow.schedule import (
    ControlSchedule,
    FlowOverflowError,
    FlowState,
    Neuron,
    Segment,
    flow_points,
    flow_schedule,
    flow_segment,
    invert_schedule,
    oracle_flow,
    oracle_points,
)
from tests.conftest import random_schedule


class TestFlowSegment:
    def test_1d_dilation(self):
        # exp(w t)(x - b) + b with w=1, b=0, t=ln 2 doubles x and logdet=ln 2
        state = FlowState(np.array([1.0]))
        out = flow_segment(state, Neuron([1.0], [1.0], 0.0), np.log(2))
        assert out.x[0] == pytest.approx(2.0, abs=1e-14)
        assert out.logdet == pytest.approx(np.log(2), abs=1e-14)

    def test_inactive_point_fixed(self):
        state = FlowState(np.array([-1.0]), logdet=0.0)
        out = flow_segment(state, Neuron([1.5], [1.0], 0.0), 0.7)
        assert out.x[0] == -1.0
        assert out.logdet == 0.0

    def test_2d_shear(self):
        # a.w = 0: pure shear, logdet exactly 0
        state = FlowState(np.array([0.5, 0.0]))
        out = flow_segment(state, Neuron([0.0, 2.0], [1.0, 0.0], 0.0), 1.0)
        np.testing.assert_allclose(out.x, [0.5, 1.0], atol=1e-14)
        assert out.logdet == 0.0

    def test_boundary_is_inactive(self):
        state = FlowState(np.array([0.0]))
        out = flow_segment(state, Neuron([1.0], [1.0], 0.0), 1.0)
        assert out.x[0] == 0.0

    def test_overflow_guard(self):
        state = FlowState(np.array([1.0]))
        with pytest.raises(FlowOverflowError):
            flow_segment(state, Neuron([1000.0], [1.0], 0.0), 1.0)

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            Neuron([np.nan], [1.0], 0.0)
        with pytest.raises(ValueError):
            Segment(Neuron([1.0], [1.0], 0.0), -0.1)


class TestFlowSchedule:
    def test_empty_schedule_identity(self):
        out = flow_schedule(np.array([1.0, 2.0]), ControlSchedule())
        np.testing.assert_array_equal(out.x, [1.0, 2.0])
        assert out.logdet == 0.0

    def test_single_segment_matches_flow_segment(self, rng):
        neuron = Neuron(rng.normal(size=3), rng.normal(size=3), 0.3)
        sched = ControlSchedule((Segment(neuron, 0.4),))
        x = rng.normal(size=3)
        a = flow_schedule(x, sched)
        b = flow_segment(FlowState(x), neuron, 0.4)
        np.testing.assert_array_equal(a.x, b.x)
        assert a.logdet == b.logdet

    def test_matches_oracle_random(self, rng):
        for d in (1, 2, 3):
            sched = random_schedule(rng, d, n_segments=4, max_duration=0.8)
            X = rng.uniform(-3, 3, size=(8, d))
            Xo, lo = flow_points(X, sched)
            ref_x, ref_q = oracle_points(X, sched, step=1e-4)
            np.testing.assert_allclose(Xo, ref_x, atol=1e-6)
            np.testing.assert_allclose(lo, ref_q, rtol=0, atol=1e-6)

    def test_activation_sign_invariant(self, rng):
        # if a.x+b > 0 at segment start it stays positive along the segment
        for _ in range(20):
            neuron = Neuron(rng.uniform(-2, 2, 2), rng.uniform(-2, 2, 2),
                            rng.uniform(-1, 1))
            x = rng.uniform(-2, 2, 2)
            if neuron.a @ x + neuron.b <= 0:
                continue
            for t in np.linspace(0, 1, 11):
                xt = flow_segment(FlowState(x), neuron, t).x
                assert neuron.a @ xt + neuron.b > 0

    @pytest.mark.parametrize("n_segments", [0, 4])
    def test_flow_points_copies_its_input(self, rng, n_segments):
        sched = random_schedule(rng, 2, n_segments=n_segments)
        X = rng.uniform(-3, 3, size=(8, 2))
        X_before = X.copy()
        Xo, _ = flow_points(X, sched)
        np.testing.assert_array_equal(X, X_before)
        Xo += 1.0
        np.testing.assert_array_equal(X, X_before)


class TestInvertSchedule:
    def test_empty(self):
        assert len(invert_schedule(ControlSchedule())) == 0

    def test_single_segment_sign_flip(self):
        sched = ControlSchedule((Segment(Neuron([1.0, 2.0], [0.0, 1.0], 0.5), 0.3),))
        inv = invert_schedule(sched)
        np.testing.assert_array_equal(inv.segments[0].neuron.w, [-1.0, -2.0])
        np.testing.assert_array_equal(inv.segments[0].neuron.a, [0.0, 1.0])
        assert inv.segments[0].neuron.b == 0.5
        assert inv.segments[0].duration == 0.3

    def test_round_trip(self, rng):
        sched = random_schedule(rng, 2, n_segments=5, max_duration=0.6)
        inv = invert_schedule(sched)
        X = rng.uniform(-3, 3, size=(100, 2))
        Y, ldf = flow_points(X, sched)
        Z, ldr = flow_points(Y, inv)
        assert np.max(np.abs(Z - X)) <= 1e-9
        assert np.max(np.abs(ldf + ldr)) <= 1e-9


class TestOracle:
    def test_oracle_matches_dilation(self):
        sched = ControlSchedule((Segment(Neuron([1.0], [1.0], 0.0), np.log(2)),))
        ref = oracle_flow(np.array([1.0]), sched, step=1e-4)
        assert ref.x[0] == pytest.approx(2.0, abs=1e-6)
        assert ref.logdet == pytest.approx(np.log(2), abs=1e-6)

    def test_oracle_exact_on_inactive(self):
        sched = ControlSchedule((Segment(Neuron([1.0], [1.0], 0.0), 1.0),))
        ref = oracle_flow(np.array([-2.0]), sched, step=1e-3)
        assert ref.x[0] == -2.0

    def test_oracle_shear(self):
        sched = ControlSchedule((Segment(Neuron([0.0, 2.0], [1.0, 0.0], 0.0), 1.0),))
        ref = oracle_flow(np.array([0.5, 0.0]), sched, step=1e-3)
        np.testing.assert_allclose(ref.x, [0.5, 1.0], atol=1e-8)


class TestSerialization:
    def test_round_trip_json(self, rng, tmp_path):
        sched = random_schedule(rng, 3, n_segments=4)
        path = tmp_path / "sched.json"
        sched.save(path)
        loaded = ControlSchedule.load(path)
        for a, b in zip(sched.segments, loaded.segments):
            np.testing.assert_array_equal(a.neuron.w, b.neuron.w)
            np.testing.assert_array_equal(a.neuron.a, b.neuron.a)
            assert a.neuron.b == b.neuron.b
            assert a.duration == b.duration

    def test_format_fields(self):
        sched = ControlSchedule((Segment(Neuron([1.0, 0.0], [0.0, 1.0], 0.25), 0.5),))
        data = json.loads(json.dumps(sched.to_dict()))
        assert data["d"] == 2
        assert data["segments"][0] == {
            "w": [1.0, 0.0], "a": [0.0, 1.0], "b": 0.25, "duration": 0.5}

    def test_declared_dimension_checked(self):
        sched = ControlSchedule((Segment(Neuron([1.0, 0.0], [0.0, 1.0], 0.25), 0.5),))
        data = sched.to_dict()
        data["d"] = 3
        with pytest.raises(ValueError, match="d = 3"):
            ControlSchedule.from_dict(data)
        del data["d"]
        assert len(ControlSchedule.from_dict(data)) == 1
        assert len(ControlSchedule.from_dict(ControlSchedule().to_dict())) == 0


@settings(max_examples=30, deadline=None)
@given(
    x=st.floats(-3, 3), w=st.floats(-2, 2), a=st.floats(-2, 2),
    b=st.floats(-1, 1), t=st.floats(0, 1),
)
def test_segment_group_property(x, w, a, b, t):
    # flowing t then t again equals flowing 2t (semigroup in time)
    neuron = Neuron([w], [a], b)
    one = flow_segment(flow_segment(FlowState(np.array([x])), neuron, t), neuron, t)
    two = flow_segment(FlowState(np.array([x])), neuron, 2 * t)
    assert one.x[0] == pytest.approx(two.x[0], rel=1e-9, abs=1e-9)
    assert one.logdet == pytest.approx(two.logdet, rel=1e-9, abs=1e-9)
