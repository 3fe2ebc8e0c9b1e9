import numpy as np
import pytest

from vvtrack import tracker as trk
from vvtrack.tracker import (PATCH, PATCH_DIM, Species, TrackerConfig,
                             TrackerError, detect_occlusion, compete,
                             init_species, observe, repulsion_force,
                             sample_patch, selective_update, state_box,
                             step_particles, track_sequence)


def _textured_frame(box, size=(64, 96), seed=0, bg=0.5):
    """Gray frame with a reproducible textured rectangle at (x, y, w, h)."""
    rng = np.random.default_rng(seed)
    frame = np.full(size, bg)
    x, y, w, h = box
    frame[y:y + h, x:x + w] = rng.random((h, w)) * 0.8 + 0.1
    return frame


def _smooth_texture(shape, seed):
    """Spatially smooth texture so small shifts give small residuals."""
    from scipy import ndimage
    rng = np.random.default_rng(seed)
    tex = ndimage.gaussian_filter(rng.random(shape), 2.0, mode="wrap")
    tex -= tex.min()
    peak = tex.max()
    if peak > 0:
        tex /= peak
    return tex * 0.8 + 0.1


def _shifted_frames(n, start=(20, 20, 16, 16), step=(2, 0), seed=0):
    """The same texture translated step px per frame."""
    x0, y0, w, h = start
    tex = _smooth_texture((h, w), seed)
    out = []
    for t in range(n):
        frame = np.full((64, 96), 0.5)
        x = x0 + step[0] * t
        y = y0 + step[1] * t
        frame[y:y + h, x:x + w] = tex
        out.append(frame)
    return out


class TestStateBoxAndPatch:
    def test_state_box_geometry(self):
        sp = Species(id=0, template=(10.0, 20.0), gbest=np.zeros(3),
                     gbest_fit=0.0, mean_patch=np.zeros(PATCH_DIM))
        assert state_box(sp, (50.0, 40.0, 2.0)) == (40.0, 20.0, 20.0, 40.0)

    def test_sample_patch_constant_region(self):
        frame = np.full((40, 40), 0.7)
        patch = sample_patch(frame, (5, 5, 16, 16))
        assert patch.shape == (PATCH, PATCH)
        assert np.allclose(patch, 0.7)

    def test_sample_patch_preserves_gradient(self):
        frame = np.tile(np.linspace(0, 1, 40), (40, 1))
        patch = sample_patch(frame, (0, 0, 40, 40))
        # left column maps to 0, right column to 1
        assert patch[:, 0] == pytest.approx(0.0)
        assert patch[:, -1] == pytest.approx(1.0)
        assert (np.diff(patch, axis=1) >= -1e-12).all()


class TestObserve:
    def test_perfect_match_fit_one(self):
        frame = _textured_frame((20, 20, 16, 16))
        cfg = TrackerConfig()
        sp = init_species(frame, 0, (20, 20, 16, 16), cfg)
        fit = observe(frame, sp, sp.gbest, cfg)
        assert fit == pytest.approx(1.0)

    def test_fit_decreases_off_target(self):
        frame = _textured_frame((20, 20, 16, 16))
        cfg = TrackerConfig()
        sp = init_species(frame, 0, (20, 20, 16, 16), cfg)
        on = observe(frame, sp, np.array([28.0, 28.0, 1.0]), cfg)
        off = observe(frame, sp, np.array([60.0, 40.0, 1.0]), cfg)
        assert off < on

    def test_off_frame_box_floors(self):
        frame = _textured_frame((20, 20, 16, 16))
        cfg = TrackerConfig()
        sp = init_species(frame, 0, (20, 20, 16, 16), cfg)
        fit = observe(frame, sp, np.array([-100.0, -100.0, 1.0]), cfg)
        assert fit == cfg.fit_floor

    def test_masked_pixels_excluded(self):
        frame = _textured_frame((20, 20, 16, 16))
        cfg = TrackerConfig()
        sp = init_species(frame, 0, (20, 20, 16, 16), cfg)
        # corrupt a sub-rect of the object; fit drops, but masking that
        # rect restores it
        corrupted = frame.copy()
        corrupted[20:28, 20:28] = 0.0
        bad = observe(corrupted, sp, sp.gbest, cfg)
        sp.masked_rects = [(20.0, 20.0, 8.0, 8.0)]
        masked = observe(corrupted, sp, sp.gbest, cfg)
        assert bad < masked
        assert masked == pytest.approx(1.0, abs=1e-6)


class TestInitSpecies:
    def test_initial_state(self):
        frame = _textured_frame((10, 12, 8, 6))
        cfg = TrackerConfig(n_particles=7)
        sp = init_species(frame, 3, (10, 12, 8, 6), cfg)
        assert sp.id == 3
        assert tuple(sp.gbest) == (14.0, 15.0, 1.0)
        assert sp.template == (8.0, 6.0)
        assert sp.particles.shape == (7, 3)
        assert len(sp.window) == 1
        assert sp.U is None

    def test_degenerate_box_errors(self):
        with pytest.raises(TrackerError):
            init_species(np.zeros((32, 32)), 0, (5, 5, 0, 4), TrackerConfig())


class TestStepParticles:
    def test_gbest_monotone_nondecreasing(self):
        frame = _textured_frame((30, 20, 16, 16))
        cfg = TrackerConfig(n_particles=20)
        sp = init_species(frame, 0, (26, 18, 16, 16), cfg)  # slightly off
        sp.gbest_fit = observe(frame, sp, sp.gbest, cfg)
        rng = np.random.default_rng(0)
        prev = sp.gbest_fit
        for it in range(10):
            step_particles(sp, frame, it, rng, cfg)
            assert sp.gbest_fit >= prev - 1e-15
            prev = sp.gbest_fit

    def test_annealing_shrinks_disturbance(self):
        cfg = TrackerConfig()
        s0 = np.asarray(cfg.sigma0) * np.exp(-cfg.c_anneal * 0 / 2.0)
        s10 = np.asarray(cfg.sigma0) * np.exp(-cfg.c_anneal * 10 / 2.0)
        assert (s10 < s0).all()
        assert s10[0] == pytest.approx(8.0 * np.exp(-1.5))

    def test_scale_frozen_without_track_scale(self):
        frame = _textured_frame((30, 20, 16, 16))
        cfg = TrackerConfig(n_particles=10, track_scale=False)
        sp = init_species(frame, 0, (30, 20, 16, 16), cfg)
        rng = np.random.default_rng(1)
        for it in range(5):
            step_particles(sp, frame, it, rng, cfg)
        assert np.allclose(sp.particles[:, 2], 1.0)

    def test_deterministic_for_seed(self):
        frame = _textured_frame((30, 20, 16, 16))
        cfg = TrackerConfig(n_particles=10)

        def run():
            sp = init_species(frame, 0, (28, 19, 16, 16), cfg)
            sp.gbest_fit = observe(frame, sp, sp.gbest, cfg)
            rng = np.random.default_rng(2)
            for it in range(5):
                step_particles(sp, frame, it, rng, cfg)
            return sp.gbest.copy(), sp.gbest_fit

        (g1, f1), (g2, f2) = run(), run()
        assert np.array_equal(g1, g2) and f1 == f2


class TestOcclusionAndCompetition:
    def _pair(self, frame, boxes, cfg):
        return [init_species(frame, i, b, cfg) for i, b in enumerate(boxes)]

    def test_no_arena_when_separated(self):
        frame = np.full((64, 96), 0.5)
        cfg = TrackerConfig()
        sps = self._pair(frame, [(5, 5, 10, 10), (50, 40, 10, 10)], cfg)
        assert detect_occlusion(sps) == []

    def test_arena_rect_is_intersection(self):
        frame = np.full((64, 96), 0.5)
        cfg = TrackerConfig()
        sps = self._pair(frame, [(10, 10, 20, 20), (20, 20, 20, 20)], cfg)
        arenas = detect_occlusion(sps)
        assert len(arenas) == 1
        assert arenas[0].pair == (0, 1)
        assert arenas[0].rect == (20.0, 20.0, 10.0, 10.0)

    def test_better_model_wins(self):
        # species 0's template matches the overlap content; species 1's
        # does not, so 0 wins and 1 masks the rect
        overlap_frame = _textured_frame((20, 20, 20, 20), seed=5)
        cfg = TrackerConfig()
        sp0 = init_species(overlap_frame, 0, (20, 20, 20, 20), cfg)
        other = _textured_frame((30, 30, 20, 20), seed=9)
        sp1 = init_species(other, 1, (30, 30, 20, 20), cfg)
        sp1.gbest = np.array([40.0, 40.0, 1.0])
        arenas = detect_occlusion([sp0, sp1])
        assert len(arenas) == 1
        arena = compete(arenas[0], overlap_frame, {0: sp0, 1: sp1}, cfg)
        assert arena.winner == 0
        assert sp1.masked_rects == [arena.rect]
        assert sum(arena.interactive.values()) == pytest.approx(1.0)

    def test_repulsion_points_away_and_scales(self):
        frame = np.full((64, 96), 0.5)
        cfg = TrackerConfig(eta=4.0)
        sps = self._pair(frame, [(20, 20, 10, 10), (24, 20, 10, 10)], cfg)
        arenas = detect_occlusion(sps)
        rng = np.random.default_rng(0)
        f = repulsion_force(sps[0], sps[1], arenas[0], cfg, rng)
        # species 0 is left of species 1 -> push in -x
        assert f[0] < 0 and f[1] == pytest.approx(0.0) and f[2] == 0.0
        _, _, ow, oh = arenas[0].rect
        ratio = (ow * oh) / (10.0 * 10.0)
        assert abs(f[0]) == pytest.approx(cfg.eta * ratio)


class TestSelectiveUpdate:
    def test_window_grows_and_caps(self):
        frames = _shifted_frames(25, step=(0, 0))
        cfg = TrackerConfig(window=4, update_every=2)
        sp = init_species(frames[0], 0, (20, 20, 16, 16), cfg)
        for t in range(1, 10):
            selective_update(sp, frames[t], [], cfg)
        assert len(sp.window) == 4

    def test_subspace_recomputed_on_schedule(self):
        rng = np.random.default_rng(3)
        frames = [rng.random((64, 96)) for _ in range(6)]
        cfg = TrackerConfig(update_every=3, q=4)
        sp = init_species(frames[0], 0, (20, 20, 16, 16), cfg)
        selective_update(sp, frames[1], [], cfg)
        selective_update(sp, frames[2], [], cfg)
        assert sp.U is None  # frames_tracked = 2 < 3
        selective_update(sp, frames[3], [], cfg)
        assert sp.U is not None
        assert sp.U.shape[0] == PATCH_DIM and sp.U.shape[1] <= 4
        # orthonormal columns
        assert np.allclose(sp.U.T @ sp.U, np.eye(sp.U.shape[1]), atol=1e-10)

    def test_occluded_pixels_gated(self):
        frame = _textured_frame((20, 20, 16, 16), seed=4)
        cfg = TrackerConfig(tau=0.1)
        sp = init_species(frame, 0, (20, 20, 16, 16), cfg)
        # corrupt half the object far beyond tau, mark it as an overlap
        corrupted = frame.copy()
        corrupted[20:36, 20:28] = 0.0
        from vvtrack.tracker import CompetitionArena
        arena = CompetitionArena(pair=(0, 1), rect=(20.0, 20.0, 8.0, 16.0))
        selective_update(sp, corrupted, [arena], cfg)
        stored = sp.window[-1].reshape(PATCH, PATCH)
        clean = sample_patch(frame, state_box(sp, sp.gbest))
        corrupt_patch = sample_patch(corrupted, state_box(sp, sp.gbest))
        # with U = None the reconstruction is the template itself, so
        # overlap pixels differing from it by >= tau keep the template
        # and everything else takes the new observation
        overlap = np.zeros((PATCH, PATCH), bool)
        overlap[:, :17]  = True  # pixel centers 20..35; <= 28 -> idx 0..16
        reject = overlap & (np.abs(corrupt_patch - clean) >= cfg.tau)
        assert reject.sum() > 100  # the gate actually fired
        assert np.allclose(stored[reject], clean[reject], atol=1e-12)
        assert np.allclose(stored[~reject], corrupt_patch[~reject], atol=1e-12)


class TestTrackSequence:
    def test_follows_translating_texture(self):
        frames = _shifted_frames(12, start=(20, 20, 16, 16), step=(2, 0))
        cfg = TrackerConfig(track_scale=False)
        records = track_sequence(frames, [(20, 20, 16, 16)], cfg, seed=0)
        by_frame = {r.frame: r for r in records}
        assert len(by_frame) == 12
        for t in range(12):
            true_cx = 20 + 2 * t + 8
            assert abs(by_frame[t].cx - true_cx) < 4.0
            assert abs(by_frame[t].cy - 28.0) < 4.0

    def test_deterministic_for_seed(self):
        frames = _shifted_frames(8)
        cfg = TrackerConfig(track_scale=False)
        r1 = track_sequence(frames, [(20, 20, 16, 16)], cfg, seed=5)
        r2 = track_sequence(frames, [(20, 20, 16, 16)], cfg, seed=5)
        assert [(r.frame, r.id, r.cx, r.cy, r.fit) for r in r1] == \
               [(r.frame, r.id, r.cx, r.cy, r.fit) for r in r2]

    def test_two_objects_keep_ids(self):
        tex_a = _smooth_texture((14, 14), 6)
        tex_b = _smooth_texture((14, 14), 7) * 0.5  # darker, distinct look
        frames = []
        for t in range(10):
            f = np.full((64, 96), 0.5)
            f[10:24, 10 + 2 * t:24 + 2 * t] = tex_a
            f[40:54, 70 - 2 * t:84 - 2 * t] = tex_b
            frames.append(f)
        cfg = TrackerConfig(track_scale=False)
        records = track_sequence(frames, [(10, 10, 14, 14), (70, 40, 14, 14)],
                                 cfg, seed=0)
        last = {r.id: r for r in records if r.frame == 9}
        assert abs(last[0].cx - (10 + 18 + 7)) < 5
        assert abs(last[0].cy - 17.0) < 5
        assert abs(last[1].cx - (70 - 18 + 7)) < 5
        assert abs(last[1].cy - 47.0) < 5

    def test_empty_detections_error(self):
        with pytest.raises(TrackerError):
            track_sequence([np.zeros((32, 32))], [], TrackerConfig())
