import json
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reluflow.compressible import profile_schedule, slope_profile
from reluflow.pipeline import realize_target
from reluflow.schedule import (
    _FLOW_BLOCK_ROWS,
    MIN_FUSED_RUN,
    ControlSchedule,
    FlowOverflowError,
    PiecewiseLinear,
    ProfileRun,
    ShearRun,
    compile_schedule,
    flow_points,
    flow_segments,
    invert_schedule,
    oracle_points,
)
from reluflow.targets import get_target
from tests.conftest import random_schedule, schedule_of


def flow_one(x, *rows):
    """Position and log-det of the single point x after the rows
    (w, a, b, duration), one segment each."""
    X, ld = flow_points(np.array(x, dtype=float)[None], schedule_of(*rows))
    return X[0], ld[0]


class TestFlowSegment:
    def test_1d_dilation(self):
        # exp(w t)(x - b) + b with w=1, b=0, t=ln 2 doubles x and logdet=ln 2
        x, ld = flow_one([1.0], ([1.0], [1.0], 0.0, np.log(2)))
        assert x[0] == pytest.approx(2.0, abs=1e-14)
        assert ld == pytest.approx(np.log(2), abs=1e-14)

    def test_inactive_point_fixed(self):
        x, ld = flow_one([-1.0], ([1.5], [1.0], 0.0, 0.7))
        assert x[0] == -1.0
        assert ld == 0.0

    def test_2d_shear(self):
        # a.w = 0: pure shear, logdet exactly 0
        x, ld = flow_one([0.5, 0.0], ([0.0, 2.0], [1.0, 0.0], 0.0, 1.0))
        np.testing.assert_allclose(x, [0.5, 1.0], atol=1e-14)
        assert ld == 0.0

    def test_boundary_is_inactive(self):
        x, _ = flow_one([0.0], ([1.0], [1.0], 0.0, 1.0))
        assert x[0] == 0.0

    def test_overflow_guard(self):
        with pytest.raises(FlowOverflowError):
            flow_one([1.0], ([1000.0], [1.0], 0.0, 1.0))


class TestFlowSchedule:
    def test_empty_schedule_identity(self):
        X, ld = flow_points(np.array([[1.0, 2.0]]), ControlSchedule())
        np.testing.assert_array_equal(X, [[1.0, 2.0]])
        assert ld[0] == 0.0

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
            w, a = rng.uniform(-2, 2, 2), rng.uniform(-2, 2, 2)
            b = rng.uniform(-1, 1)
            x = rng.uniform(-2, 2, 2)
            if a @ x + b <= 0:
                continue
            for t in np.linspace(0, 1, 11):
                xt, _ = flow_one(x, (w, a, b, t))
                assert a @ xt + b > 0

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
        sched = schedule_of(([1.0, 2.0], [0.0, 1.0], 0.5, 0.3))
        inv = invert_schedule(sched)
        np.testing.assert_array_equal(inv.w, [[-1.0, -2.0]])
        np.testing.assert_array_equal(inv.a, [[0.0, 1.0]])
        np.testing.assert_array_equal(inv.b, [0.5])
        np.testing.assert_array_equal(inv.duration, [0.3])

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
        sched = schedule_of(([1.0], [1.0], 0.0, np.log(2)))
        X, ld = oracle_points(np.array([[1.0]]), sched, step=1e-4)
        assert X[0, 0] == pytest.approx(2.0, abs=1e-6)
        assert ld[0] == pytest.approx(np.log(2), abs=1e-6)

    def test_oracle_exact_on_inactive(self):
        sched = schedule_of(([1.0], [1.0], 0.0, 1.0))
        X, _ = oracle_points(np.array([[-2.0]]), sched, step=1e-3)
        assert X[0, 0] == -2.0

    def test_oracle_shear(self):
        sched = schedule_of(([0.0, 2.0], [1.0, 0.0], 0.0, 1.0))
        X, _ = oracle_points(np.array([[0.5, 0.0]]), sched, step=1e-3)
        np.testing.assert_allclose(X[0], [0.5, 1.0], atol=1e-8)


class TestSerialization:
    def test_round_trip_json(self, rng, tmp_path):
        sched = random_schedule(rng, 3, n_segments=4)
        path = tmp_path / "sched.json"
        sched.save(path)
        loaded = ControlSchedule.load(path)
        for name in ("a", "w", "b", "duration"):
            np.testing.assert_array_equal(getattr(loaded, name),
                                          getattr(sched, name))

    def test_format_fields(self):
        sched = schedule_of(([1.0, 0.0], [0.0, 1.0], 0.25, 0.5))
        data = json.loads(json.dumps(sched.to_dict()))
        assert data["d"] == 2
        assert data["segments"][0] == {
            "w": [1.0, 0.0], "a": [0.0, 1.0], "b": 0.25, "duration": 0.5}

    def test_declared_dimension_checked(self):
        sched = schedule_of(([1.0, 0.0], [0.0, 1.0], 0.25, 0.5))
        data = sched.to_dict()
        data["d"] = 3
        with pytest.raises(ValueError, match="d = 3"):
            ControlSchedule.from_dict(data)
        del data["d"]
        assert len(ControlSchedule.from_dict(data)) == 1
        assert len(ControlSchedule.from_dict(ControlSchedule().to_dict())) == 0


class TestArrays:
    def _arrays(self, rng, n=4, d=2):
        return (rng.normal(size=(n, d)), rng.normal(size=(n, d)),
                rng.normal(size=n), rng.uniform(0, 1, size=n))

    def test_arrays_are_read_only(self, rng):
        sched = ControlSchedule.from_arrays(*self._arrays(rng))
        for v in (sched.a, sched.w, sched.b, sched.duration):
            assert not v.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            sched.w[0, 0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            sched.segments[0].w[0] = 1.0

    def test_caller_arrays_are_copied(self, rng):
        arrays = self._arrays(rng)
        sched = ControlSchedule.from_arrays(*arrays)
        w = np.array(arrays[1][0])
        single = schedule_of((w, arrays[0][0], 0.5, 0.3))
        X = rng.uniform(-1, 1, size=(16, 2))
        before = flow_points(X, sched), flow_points(X, single)
        kept = [v.copy() for v in (sched.a, sched.w, sched.b, sched.duration)]
        for v in arrays + (w,):
            v *= -2.0
        for v, k in zip((sched.a, sched.w, sched.b, sched.duration), kept):
            np.testing.assert_array_equal(v, k)
        # compile afresh: the cached compiled form is not what is checked
        after = (flow_segments(X, sched), flow_segments(X, single))
        for (Y, ld), (Y2, ld2) in zip(before, after):
            np.testing.assert_array_equal(Y, Y2)
            np.testing.assert_array_equal(ld, ld2)

    @pytest.mark.parametrize("change,problem", [
        (lambda a, w, b, t: (a, w[:, :1], b, t), "same dimension"),
        (lambda a, w, b, t: (a, w, b[:2], t), "one b and one duration"),
        (lambda a, w, b, t: (a, np.where(w > 0, np.inf, w), b, t),
         "w has non-finite"),
        (lambda a, w, b, t: (a, w, np.full_like(b, np.nan), t),
         "b must be finite"),
        (lambda a, w, b, t: (a, w, b, -t), "duration must be finite"),
    ], ids=["a-w-shape", "b-length", "inf-w", "nan-b", "negative-duration"])
    def test_from_arrays_checks(self, rng, change, problem):
        with pytest.raises(ValueError, match=problem):
            ControlSchedule.from_arrays(*change(*self._arrays(rng)))

    def test_concatenation(self, rng):
        one, two = (random_schedule(rng, 2, n_segments=n) for n in (2, 3))
        both = one + ControlSchedule() + two
        assert len(both) == 5 and both.d == 2
        np.testing.assert_array_equal(both.w[2:], two.w)
        assert both.total_duration == sum(one.duration.tolist()
                                          + two.duration.tolist())
        with pytest.raises(ValueError, match="dimension"):
            one + random_schedule(rng, 3, n_segments=1)


@settings(max_examples=30, deadline=None)
@given(
    x=st.floats(-3, 3), w=st.floats(-2, 2), a=st.floats(-2, 2),
    b=st.floats(-1, 1), t=st.floats(0, 1),
)
def test_segment_group_property(x, w, a, b, t):
    # flowing t then t again equals flowing 2t (semigroup in time)
    one = flow_one([x], ([w], [a], b, t), ([w], [a], b, t))
    two = flow_one([x], ([w], [a], b, 2 * t))
    assert one[0][0] == pytest.approx(two[0][0], rel=1e-9, abs=1e-9)
    assert one[1] == pytest.approx(two[1], rel=1e-9, abs=1e-9)


# --------------------------------------------------------------------------
# compiled schedules


class TestPiecewiseLinear:
    def test_two_constructions_agree(self):
        knots = np.array([0.0, 0.5, 2.0])
        # end slopes equal to the end chords, which ``through`` extends by
        by_slopes = PiecewiseLinear.from_slopes(knots, np.array([2.0, 2.0, 0.5,
                                                                 0.5]), 1.0)
        np.testing.assert_array_equal(by_slopes.values, [1.0, 2.0, 2.75])
        through = PiecewiseLinear.through(knots, by_slopes.values)
        np.testing.assert_array_equal(through.slopes, by_slopes.slopes)
        x = np.array([-1.0, 0.0, 0.25, 0.5, 1.0, 2.0, 3.0])
        np.testing.assert_array_equal(by_slopes(x), through(x))
        np.testing.assert_array_equal(by_slopes(x),
                                      [-1.0, 1.0, 1.5, 2.0, 2.25, 2.75, 3.25])

    def test_end_pieces_default_to_end_chords(self):
        f = PiecewiseLinear.through(np.array([0.0, 1.0, 2.0]),
                                    np.array([0.0, 2.0, 2.5]))
        np.testing.assert_array_equal(f.slopes, [2.0, 2.0, 0.5, 0.5])

    def test_given_slopes_are_stored_as_given(self):
        # the chords of the cumulated values need not reproduce 0.1 exactly
        slopes = np.full(12, 0.1)
        f = PiecewiseLinear.from_slopes(np.linspace(0.3, 1.7, 11), slopes, 0.2)
        assert np.any(np.diff(f.values) / np.diff(f.knots) != 0.1)
        assert np.all(f.slopes == 0.1)

    def test_inverse_extends_affinely(self, rng):
        slopes = np.array([0.5, 0.5, 4 / 3, 4 / 3])
        f = PiecewiseLinear.from_slopes(np.array([0.0, 0.4, 1.0]), slopes, 0.3)
        x = rng.uniform(-2.0, 3.0, size=200)
        np.testing.assert_allclose(f.inverse()(f(x)), x, rtol=0, atol=1e-14)
        # below the image, the inverse continues the first piece's slope
        assert f.inverse()(np.array([0.0]))[0] == pytest.approx(-0.6)

    @pytest.mark.parametrize("gaps", ["uniform", "heavy-tailed", "one knot"])
    def test_piece_equals_searchsorted(self, rng, gaps):
        for _ in range(20):
            n = 1 if gaps == "one knot" else int(rng.integers(2, 300))
            steps = (rng.uniform(size=n) if gaps == "uniform"
                     # a few huge gaps between clusters of tiny ones, as the
                     # level offsets of a permutation schedule give
                     else rng.pareto(0.3, size=n) + 1e-12)
            knots = np.unique(rng.normal() + rng.choice([1e-6, 1.0, 1e6])
                              * np.cumsum(steps))
            f = PiecewiseLinear(knots, knots, np.ones(len(knots) + 1))
            x = np.concatenate([
                rng.uniform(2 * knots[0] - knots[-1] - 1,
                            2 * knots[-1] - knots[0] + 1, size=500),
                knots, np.nextafter(knots, -np.inf),
                np.nextafter(knots, np.inf), [np.inf, -np.inf, np.nan]])
            np.testing.assert_array_equal(
                f.piece(x), np.searchsorted(knots, x, side="right"))
            # 2-d and 0-d x keep their shape
            np.testing.assert_array_equal(
                f.piece(x[:300].reshape(20, 15)),
                np.searchsorted(knots, x[:300], side="right").reshape(20, 15))
            for v in (knots[-1], np.nan, -np.inf, np.float64(x[0]),
                      np.array(x[1])):
                assert np.shape(f.piece(v)) == ()
                assert f.piece(v) == np.searchsorted(knots, v, side="right")


def _aligned(read, write, d, rng, scale=1.0, duration=0.05):
    """An axis-aligned row (w, a, b, duration): a = +-e_read, w = c e_write."""
    a, w = np.zeros(d), np.zeros(d)
    a[read] = rng.choice([-1.0, 1.0])
    w[write] = scale * rng.uniform(-2, 2)
    return w, a, rng.uniform(-1, 1), rng.uniform(0, duration)


@pytest.fixture(scope="module")
def corpus():
    """The band-tower schedules of the geometric route, by name."""
    levels = [("sine-radial", 1 / 16), ("sine-radial", 1 / 32),
              ("kr", 1 / 16), ("sine-shear", 1 / 16),
              ("radial-compress", 1 / 16)]
    return {f"{name}@{h:g}": realize_target(get_target(name), mesh_h=h,
                                             cube_h=h, resolution=8).schedule
            for name, h in levels}


class TestCompiledSchedule:
    def test_band_towers_compile_to_runs(self, corpus):
        for name, sched in corpus.items():
            steps = compile_schedule(sched).steps
            assert all(isinstance(s, (ShearRun, ProfileRun)) for s in steps)
            assert len(steps) == (3 if name.startswith("sine-shear") else 6)

    def test_corpus_matches_per_segment_kernel(self, corpus):
        X = np.random.default_rng(4096).uniform(size=(4096, 2))
        for name, sched in corpus.items():
            Y, ld = flow_points(X, sched)
            Y_ref, ld_ref = flow_segments(X, sched)
            assert np.abs(Y - Y_ref).max() <= 1e-9, name
            assert np.abs(ld - ld_ref).max() <= 1e-12, name
            # the inverse is ill-conditioned across the shear ramps, whose
            # slope is the stagger over the ramp width
            inv = invert_schedule(sched)
            Z, lz = flow_points(Y_ref, inv)
            Z_ref, lz_ref = flow_segments(Y_ref, inv)
            assert np.abs(Z - Z_ref).max() <= 1e-7, name
            assert np.abs(lz - lz_ref).max() <= 1e-12, name

    def test_blocks_cover_every_row(self, rng, corpus):
        # loop segments share flow_segments' arithmetic, so every row must
        # agree exactly across the block edges; an overflowing point in the
        # last, partial block still raises
        sched = random_schedule(rng, 2, n_segments=8)
        X = rng.uniform(-1, 1, size=(2 * _FLOW_BLOCK_ROWS + 3, 2))
        Y, ld = flow_points(X, sched)
        Y_ref, ld_ref = flow_segments(X, sched)
        np.testing.assert_array_equal(Y, Y_ref)
        np.testing.assert_array_equal(ld, ld_ref)
        Y, ld = flow_points(X, corpus["kr@0.0625"])
        for start in (0, _FLOW_BLOCK_ROWS - 1, 2 * _FLOW_BLOCK_ROWS):
            Y1, ld1 = flow_points(X[start:start + 2], corpus["kr@0.0625"])
            np.testing.assert_array_equal(Y1, Y[start:start + 2])
            np.testing.assert_array_equal(ld1, ld[start:start + 2])
        # active only where x_0 > 20
        overflow = schedule_of(([1.0, 0.0], [1000.0, 0.0], -20000.0, 1.0))
        flow_points(X, overflow)
        X[-1, 0] = 50.0
        with pytest.raises(FlowOverflowError, match="segment"):
            flow_points(X, overflow)

    def test_compiled_round_trip(self, corpus):
        X = np.random.default_rng(7).uniform(size=(4096, 2))
        for name, sched in corpus.items():
            Y, ld = flow_points(X, sched)
            Z, lz = flow_points(Y, invert_schedule(sched))
            assert np.abs(Z - X).max() <= 1e-10, name
            assert np.abs(ld + lz).max() <= 1e-12, name

    def test_inverse_swaps_runs_instead_of_recompiling(self, corpus):
        sched = corpus["sine-radial@0.0625"]
        fwd = compile_schedule(sched).steps
        inv = compile_schedule(invert_schedule(sched)).steps
        for run, back in zip(fwd, reversed(inv)):
            assert type(run) is type(back)
            if isinstance(run, ProfileRun):
                np.testing.assert_array_equal(back.g.knots, run.g.values)
                np.testing.assert_array_equal(back.g.values, run.g.knots)
                np.testing.assert_array_equal(back.logdets, -run.logdets)
            else:
                np.testing.assert_array_equal(back.f.knots, run.f.knots)
                np.testing.assert_array_equal(back.f.values, -run.f.values)

    def test_short_runs_stay_on_the_loop(self, rng):
        segs = [_aligned(0, 1, 2, rng) for _ in range(MIN_FUSED_RUN - 1)]
        steps = compile_schedule(schedule_of(*segs)).steps
        assert len(steps) == 1 and isinstance(steps[0], np.ndarray)
        segs.append(_aligned(0, 1, 2, rng))
        steps = compile_schedule(schedule_of(*segs)).steps
        assert len(steps) == 1 and isinstance(steps[0], ShearRun)

    def test_no_op_segments_do_not_break_runs(self, rng):
        segs = []
        for _ in range(MIN_FUSED_RUN):
            segs.append(_aligned(1, 1, 2, rng))
            segs.append(([0.0, 0.0], [1.0, 0.5], 0.1, 0.3))
            segs.append(([0.3, 0.2], [1.0, 0.5], 0.1, 0.0))
        sched = schedule_of(*segs)
        steps = compile_schedule(sched).steps
        assert len(steps) == 1 and isinstance(steps[0], ProfileRun)
        X = rng.uniform(-2, 2, size=(200, 2))
        Y, ld = flow_points(X, sched)
        Y_ref, ld_ref = flow_segments(X, sched)
        np.testing.assert_allclose(Y, Y_ref, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(ld, ld_ref, rtol=0, atol=1e-12)

    def test_overflowing_segment_raises_only_when_active(self, rng):
        # a long profile run with one segment far past the overflow guard
        # on {x_0 > 5}
        segs = [_aligned(0, 0, 2, rng) for _ in range(2 * MIN_FUSED_RUN)]
        segs.insert(MIN_FUSED_RUN, ([1000.0, 0.0], [1.0, 0.0], -5.0, 1.0))
        sched = schedule_of(*segs)
        assert any(isinstance(s, ProfileRun)
                   for s in compile_schedule(sched).steps)
        X = rng.uniform(-1, 1, size=(64, 2))
        Y, ld = flow_points(X, sched)
        Y_ref, ld_ref = flow_segments(X, sched)
        np.testing.assert_allclose(Y, Y_ref, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(ld, ld_ref, rtol=0, atol=1e-12)
        X[0, 0] = 50.0
        with pytest.raises(FlowOverflowError, match="segment"):
            flow_points(X, sched)
        with pytest.raises(FlowOverflowError, match="segment"):
            flow_segments(X, sched)

    def test_contracting_segment_overflows_in_the_inverse(self, rng):
        segs = [_aligned(0, 0, 1, rng) for _ in range(2 * MIN_FUSED_RUN)]
        segs.insert(MIN_FUSED_RUN, ([-1000.0], [1.0], -5.0, 1.0))
        sched = schedule_of(*segs)
        X = rng.uniform(6, 7, size=(8, 1))
        Y, _ = flow_points(X, sched)
        with pytest.raises(FlowOverflowError):
            flow_points(np.array([[50.0]]), invert_schedule(sched))
        assert np.all(np.isfinite(Y))

    def test_run_with_extreme_slopes_stays_on_the_loop(self, rng):
        # each segment contracts {x_0 > 0} by e^-60: the composed slope
        # e^-1200 underflows, so the run is not fused
        seg = ([-60.0, 0.0], [1.0, 0.0], 0.0, 1.0)
        sched = schedule_of(*(seg,) * (2 * MIN_FUSED_RUN))
        steps = compile_schedule(sched).steps
        assert len(steps) == 1 and isinstance(steps[0], np.ndarray)
        X = rng.uniform(-1, 1, size=(64, 2))
        Y, ld = flow_points(X, sched)
        Y_ref, ld_ref = flow_segments(X, sched)
        np.testing.assert_array_equal(Y, Y_ref)
        np.testing.assert_array_equal(ld, ld_ref)

    def test_input_checks_keep_their_messages(self, rng):
        sched = schedule_of(*(_aligned(0, 1, 2, rng)
                              for _ in range(MIN_FUSED_RUN)))
        with pytest.raises(ValueError, match="non-finite"):
            flow_points(np.array([[np.nan, 0.0]]), sched)
        with pytest.raises(ValueError, match="dimension 2 != point "
                                             "dimension 3"):
            flow_points(np.zeros((4, 3)), sched)

    def test_cache_keeps_no_schedule_alive(self, rng):
        sched = schedule_of(*(_aligned(0, 1, 2, rng)
                              for _ in range(MIN_FUSED_RUN)))
        flow_points(np.zeros((3, 2)), sched)
        inv = invert_schedule(sched)
        refs = weakref.ref(sched), weakref.ref(inv)
        del sched, inv
        assert refs[0]() is None and refs[1]() is None

    def test_compiled_once(self, rng):
        sched = random_schedule(rng, 2, n_segments=3)
        assert compile_schedule(sched) is compile_schedule(sched)


def loop_entries(sched) -> int:
    """The number of entries on the compiled schedule's per-segment loop."""
    return sum(len(step) for step in compile_schedule(sched).steps
               if isinstance(step, np.ndarray))


class TestMergedLoop:
    """Consecutive loop segments with equal (a, w, b) flow as one entry for
    their summed duration."""

    @staticmethod
    def repeated(rng, d=2):
        """Generic rows, each repeated one to four times, with a row of zero
        duration inside one repeated group."""
        rows = []
        for _ in range(12):
            w, a = rng.uniform(-1, 1, size=d), rng.uniform(-1, 1, size=d)
            b = rng.uniform(-0.5, 0.5)
            group = [(w, a, b, rng.uniform(0, 0.2))
                     for _ in range(int(rng.integers(1, 5)))]
            rows += group
        rows.insert(1, (rows[0][0], rows[0][1], rows[0][2], 0.0))
        return schedule_of(*rows)

    def test_repeated_rows_match_the_segments(self, rng):
        sched = self.repeated(rng)
        live = int(np.count_nonzero(sched.duration > 0))
        assert loop_entries(sched) <= 12 < live
        X = rng.uniform(-2, 2, size=(256, 2))
        Y, ld = flow_points(X, sched)
        Y_ref, ld_ref = flow_segments(X, sched)
        np.testing.assert_allclose(Y, Y_ref, rtol=0, atol=1e-12)
        np.testing.assert_allclose(ld, ld_ref, rtol=0, atol=1e-12)

    def test_fused_run_keeps_equal_rows_apart(self, rng):
        row = ([0.3, -0.4], [0.6, 0.8], 0.1, 0.2)
        run = [_aligned(0, 1, 2, rng) for _ in range(MIN_FUSED_RUN)]
        sched = schedule_of(row, *run, row)
        steps = compile_schedule(sched).steps
        assert [type(step) for step in steps] == [np.ndarray, ShearRun,
                                                  np.ndarray]
        X = rng.uniform(-2, 2, size=(64, 2))
        Y, ld = flow_points(X, sched)
        Y_ref, ld_ref = flow_segments(X, sched)
        np.testing.assert_allclose(Y, Y_ref, rtol=0, atol=1e-12)
        np.testing.assert_allclose(ld, ld_ref, rtol=0, atol=1e-12)

    def test_merged_round_trip(self, rng):
        sched = self.repeated(rng)
        inv = invert_schedule(sched)
        assert loop_entries(inv) == loop_entries(sched)
        X = rng.uniform(-2, 2, size=(256, 2))
        Y, ld = flow_points(X, sched)
        Z, lz = flow_points(Y, inv)
        np.testing.assert_allclose(Z, X, rtol=0, atol=1e-12)
        np.testing.assert_allclose(ld + lz, 0.0, rtol=0, atol=1e-12)

    def test_group_past_the_guard_stays_unmerged(self):
        # s tau = 400 each; merged, 800 would pass the overflow guard and
        # raise on every active point
        seg = ([400.0], [1.0], 0.0, 1.0)
        sched = schedule_of(seg, seg)
        assert loop_entries(sched) == 2
        X = np.array([[-1.0], [1e-200], [3e-250]])
        Y, ld = flow_points(X, sched)
        Y_ref, ld_ref = flow_segments(X, sched)
        np.testing.assert_array_equal(Y, Y_ref)
        np.testing.assert_array_equal(ld, ld_ref)
        assert Y[0, 0] == -1.0 and np.all(np.isfinite(Y))
        np.testing.assert_allclose(ld, [0.0, 800.0, 800.0], rtol=1e-15)

    def test_infinite_shift_leaves_inactive_points(self):
        # s = 1e-10 and s tau = 690, within the guard: scale = expm1(690) / s
        # overflows, and scale * w holds 0 * inf
        sched = schedule_of(([1e-5, 0.0], [1e-5, 0.0], 0.0, 6.9e12))
        assert not np.all(np.isfinite(compile_schedule(sched).shift))
        X = np.array([[-1.0, 0.5], [-3.0, -2.0], [0.0, 1.0]])
        for kernel in (flow_points, flow_segments):
            Y, ld = kernel(X, sched)
            np.testing.assert_array_equal(Y, X)
            np.testing.assert_array_equal(ld, 0.0)


class TestFusedProfileRuns:
    """Profile runs whose kinks coincide, which the fused map must merge
    into one knot, compared with the per-segment kernel off the kinks."""

    @staticmethod
    def fused(rows):
        """The schedule of ``rows`` (1-d) and its one fused ProfileRun."""
        sched = schedule_of(*rows)
        steps = compile_schedule(sched).steps
        assert len(steps) == 1 and isinstance(steps[0], ProfileRun)
        return sched, steps[0]

    @staticmethod
    def assert_matches_segments(sched, run, rng):
        x = rng.uniform(-2.0, 2.0, size=500)
        x = x[np.abs(x[:, None] - run.g.knots).min(axis=1) > 1e-9]
        Y, ld = flow_points(x[:, None], sched)
        Y_ref, ld_ref = flow_segments(x[:, None], sched)
        np.testing.assert_allclose(Y, Y_ref, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(ld, ld_ref, rtol=0, atol=1e-12)

    def test_repeated_segment(self, rng):
        for w, a in ((0.7, 1.0), (-0.7, 1.0), (0.7, -1.0), (-0.7, -1.0)):
            sched, run = self.fused([([w], [a], 0.3, 0.05)]
                                    * (2 * MIN_FUSED_RUN))
            np.testing.assert_array_equal(run.g.knots, [-0.3 * a])
            self.assert_matches_segments(sched, run, rng)

    def test_both_signs_about_one_kink(self, rng):
        rows = [([rng.uniform(-2, 2)], [sign], -0.4 * sign, 0.05)
                for sign in (1.0, -1.0) * MIN_FUSED_RUN]
        sched, run = self.fused(rows)
        np.testing.assert_array_equal(run.g.knots, [0.4])
        self.assert_matches_segments(sched, run, rng)

    def test_mixed_run_with_repeating_kinks(self, rng):
        # kinks from three values, so later kinks often repeat earlier ones
        rows = [([rng.uniform(-2, 2)], [a], -a * c, rng.uniform(0, 0.1))
                for a, c in zip(rng.choice([-1.0, 1.0], 4 * MIN_FUSED_RUN),
                                rng.choice([-0.5, 0.0, 0.3],
                                           4 * MIN_FUSED_RUN))]
        sched, run = self.fused(rows)
        self.assert_matches_segments(sched, run, rng)

    def test_contracting_and_dilating(self, rng):
        # rates s = w a of both signs and sizes, up to e^{+-2} per segment
        rows = [([w], [a], rng.uniform(-1, 1), 0.5)
                for w, a in zip(rng.choice([-4.0, -0.5, 0.5, 4.0],
                                           2 * MIN_FUSED_RUN),
                                rng.choice([-1.0, 1.0], 2 * MIN_FUSED_RUN))]
        sched, run = self.fused(rows)
        assert run.logdets.min() < 0 < run.logdets.max()
        self.assert_matches_segments(sched, run, rng)

    @pytest.mark.parametrize("beta0", [0.3, -0.3])
    def test_profile_schedule_reproduces_the_profile(self, rng, beta0):
        # one stage per slope change and the two translation segments,
        # whose knots lie left of the profile's
        n = MIN_FUSED_RUN + 4
        p = slope_profile(np.linspace(0.0, 1.0, n + 1),
                          rng.uniform(0.5, 2.0, n), beta0)
        _, run = self.fused(zip(*(getattr(profile_schedule(p), name)
                                  for name in ("w", "a", "b", "duration"))))
        assert len(run.g.knots) == n + 2
        np.testing.assert_allclose(run.g.knots[2:], p.knots[:-1], rtol=0,
                                   atol=1e-12)
        np.testing.assert_allclose(run.g(p.knots), p.values, rtol=0,
                                   atol=1e-12)
        np.testing.assert_allclose(run.logdets[3:], np.log(p.slopes[1:-1]),
                                   rtol=0, atol=1e-12)


@st.composite
def mixed_schedules(draw):
    """Random runs: axis-aligned shear and profile runs, some long enough
    to fuse, interleaved with generic segments."""
    d = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    parts = []
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(["shear", "profile", "generic"]))
        length = draw(st.integers(1, 2 * MIN_FUSED_RUN))
        if kind == "generic" or (kind == "shear" and d == 1):
            parts.append(random_schedule(rng, d, length, scale=1.0,
                                         max_duration=0.05))
            continue
        read = int(rng.integers(d))
        write = read if kind == "profile" else (read + 1) % d
        parts.append(schedule_of(*(_aligned(read, write, d, rng)
                                   for _ in range(length))))
    return ControlSchedule.concat(parts), rng.uniform(-2, 2, size=(64, d))


@settings(max_examples=40, deadline=None)
@given(case=mixed_schedules())
def test_compiled_matches_per_segment_property(case):
    sched, X = case
    Y, ld = flow_points(X, sched)
    Y_ref, ld_ref = flow_segments(X, sched)
    np.testing.assert_allclose(Y, Y_ref, rtol=1e-9, atol=1e-9)
    np.testing.assert_allclose(ld, ld_ref, rtol=0, atol=1e-9)
    Z, lz = flow_points(Y, invert_schedule(sched))
    np.testing.assert_allclose(Z, X, rtol=1e-9, atol=1e-9)
    np.testing.assert_allclose(ld + lz, 0.0, atol=1e-9)
