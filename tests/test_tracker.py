import numpy as np
import pytest
from scipy import ndimage

from vvtrack import scenes
from vvtrack import tracker as trk
from vvtrack.config import ConfigError, merge_config
from vvtrack.frames import FrameError, generate_synthetic, to_grayscale
from vvtrack.metrics import evaluate_tracks
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


def _cross2(seed, n=40):
    """Gray cross2 frames, the frame-0 truth boxes, and the truth records."""
    frames, truth = generate_synthetic(scenes.build_scene("cross2", n, seed=seed), n)
    boxes = [tuple(o["box"]) for o in truth[0]["objects"]]
    return [to_grayscale(f) for f in frames], boxes, truth


def _seeded_swarm(frame, box, cfg, seed):
    """A species at box whose first swarm is drawn as track_sequence draws it."""
    sp = init_species(frame, 0, box, cfg)
    rng = np.random.default_rng(seed)
    trk._seed_swarm(sp, frame, rng, cfg)
    return sp, rng


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
        assert state_box(sp, (50.0, 40.0, 2.0)).tolist() == [40.0, 20.0, 20.0, 40.0]

    @pytest.mark.parametrize("lead", [(), (5,), (2, 3)])
    def test_state_box_is_one_array_per_leading_shape(self, lead):
        """A (..., 3) batch of states gives one (..., 4) array whose rows are
        the boxes of the states taken one at a time."""
        sp = Species(id=0, template=(10.0, 6.0), gbest=np.zeros(3),
                     gbest_fit=0.0, mean_patch=np.zeros(PATCH_DIM))
        rng = np.random.default_rng(3)
        states = np.concatenate((rng.uniform(-20, 80, lead + (2,)),
                                 rng.uniform(0.5, 2.0, lead + (1,))), -1)
        boxes = state_box(sp, states)
        assert isinstance(boxes, np.ndarray) and boxes.shape == lead + (4,)
        for idx in np.ndindex(lead):
            cx, cy, s = states[idx]
            w, h = 10.0 * s, 6.0 * s
            assert boxes[idx].tolist() == [cx - w / 2, cy - h / 2, w, h]

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

    @pytest.mark.parametrize("size,boxes", [
        ((64, 96), [
            (-5.0, 20.0, 16.0, 12.0), (88.3, 20.0, 16.0, 12.0),     # left, right edge
            (30.0, -4.6, 16.0, 12.0), (30.0, 58.2, 16.0, 12.0),     # top, bottom edge
            (-40.0, 20.0, 16.0, 12.0), (120.0, 20.0, 16.0, 12.0),   # fully outside
            (30.0, -30.0, 16.0, 12.0), (30.0, 80.0, 16.0, 12.0),
            (-30.0, -30.0, 10.0, 10.0), (100.0, 70.0, 10.0, 10.0),
            # integer samples on the last column (95), the last row (63) or both
            (64.0, 20.0, 32.0, 12.0), (20.0, 32.0, 16.0, 32.0),
            (0.0, 0.0, 96.0, 64.0), (64.0, 32.0, 32.0, 32.0),
            (40.3, 20.7, 0.016, 0.012), (95.0, 63.0, 0.016, 0.012),  # s = 1e-3
            (10.25, 5.5, 37.0, 21.0)]),
        ((1, 50), [(-3.0, -2.0, 20.0, 5.0), (10.5, 0.0, 16.0, 1.0),
                   (40.0, -0.4, 16.0, 0.8), (60.0, 3.0, 8.0, 8.0),
                   (0.0, 0.0, 50.0, 1.0), (20.1, 0.3, 0.016, 0.012)]),
        ((50, 1), [(-2.0, -3.0, 5.0, 20.0), (0.0, 10.5, 1.0, 16.0),
                   (-0.4, 40.0, 0.8, 16.0), (3.0, 60.0, 8.0, 8.0),
                   (0.0, 0.0, 1.0, 50.0), (0.3, 20.1, 0.012, 0.016)]),
        # The first six boxes span at most 32 = PATCH rows, so as a batch
        # they take contiguous row runs, some past the last row (239). Alone,
        # a box spanning 33 or more rows, and the batch of all (12-px boxes
        # beside 100-px ones), mix the rows y0 and y1 of each sample instead.
        ((240, 160), [
            (20.0, 10.0, 30.0, 31.0),                               # spans 32 rows
            (70.0, 220.0, 20.0, 20.0), (70.0, 208.0, 20.0, 32.0),   # clamped last row
            (30.4, 120.2, 12.0, 12.0), (140.5, 231.3, 12.0, 12.0),
            (-6.0, -8.5, 16.0, 30.0),
            (60.5, 20.0, 30.0, 32.0),                               # spans 33 rows
            (20.0, 10.0, 30.0, 63.0), (60.5, 20.0, 30.0, 64.0),     # 64 and 65 rows
            (5.25, 40.6, 50.0, 100.0), (100.1, 60.3, 45.0, 150.0),
            (10.0, 150.0, 30.0, 120.0), (40.0, -30.5, 20.0, 100.0),
            (0.0, 0.0, 160.0, 240.0)]),
        # Taller boxes than the frame: as a batch, the run of a box that
        # starts low ends past the last row (11), where the tent weights
        # must be 0 so the clamped copies of row 11 add nothing.
        ((12, 40), [
            (2.0, -1.5, 12.0, 14.0), (10.3, 4.6, 8.0, 20.0),
            (20.0, 9.2, 10.0, 30.0), (-3.0, 6.0, 16.0, 17.5),
            (30.5, -10.0, 9.0, 26.0), (5.0, 11.0, 6.0, 14.0)]),
    ], ids=["64x96", "1-row", "1-column", "240x160", "12x40"])
    def test_sample_patch_matches_map_coordinates(self, size, boxes):
        frame = np.random.default_rng(8).random(size)
        boxes = np.array(boxes)

        def reference(box):
            x, y, w, h = box
            us = np.linspace(0, 1, PATCH)
            ys, xs = y + us * max(h - 1, 1e-9), x + us * max(w - 1, 1e-9)
            coords = np.stack(np.meshgrid(ys, xs, indexing="ij"))
            return ndimage.map_coordinates(frame, coords, order=1, mode="nearest")

        expected = np.array([reference(box) for box in boxes])
        for box, want in zip(boxes, expected):
            one = sample_patch(frame, tuple(box))
            assert one.shape == (PATCH, PATCH)
            assert np.abs(one - want).max() <= 1e-12
        batch = sample_patch(frame, boxes)
        assert batch.shape == (len(boxes), PATCH, PATCH)
        assert np.abs(batch - expected).max() <= 1e-12
        grid = sample_patch(frame, boxes[:6].reshape(2, 3, 4))
        assert grid.shape == (2, 3, PATCH, PATCH)
        assert np.abs(grid - expected[:6].reshape(2, 3, PATCH, PATCH)).max() <= 1e-12


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

    @pytest.mark.parametrize("rank", [1, 3, 8])
    def test_in_subspace_fit_clamped_at_one(self, rank):
        """Patches mean + U a with ||a|| = 1e3 lie in the subspace, so the
        energy ||o||^2 - ||U^T o||^2 cancels from 1e6 to rounding noise of
        either sign.  The clamp keeps every fit <= 1; what noise is left
        stays within the dot-product rounding bound PATCH_DIM * eps * ||o||^2.
        """
        rng = np.random.default_rng(rank)
        cfg = TrackerConfig()
        sp = Species(id=0, template=(16.0, 12.0), gbest=np.zeros(3), gbest_fit=0.0,
                     mean_patch=rng.random(PATCH_DIM))
        sp.U = np.linalg.qr(rng.standard_normal((PATCH_DIM, rank)))[0]
        a = rng.standard_normal((50, rank))
        a *= 1e3 / np.linalg.norm(a, axis=1, keepdims=True)
        patches = sp.mean_patch + a @ sp.U.T
        o = patches - sp.mean_patch
        c = o @ sp.U
        raw = np.einsum("...i,...i->...", o, o) - np.einsum("...i,...i->...", c, c)
        assert (raw < 0).any()  # without the clamp some fits would exceed 1
        fits = trk._power(patches, sp, cfg)
        assert (fits <= 1.0).all()
        bound = PATCH_DIM * np.finfo(float).eps * 1e6 / cfg.sigma_obs_sq
        assert (1.0 - fits <= bound).all()

    def test_fully_masked_box_floors(self):
        frame = np.random.default_rng(0).random((64, 96))
        cfg = TrackerConfig()
        sp = init_species(frame, 0, (10, 10, 8, 8), cfg)
        state = np.array([50.0, 30.0, 1.0])  # box (46, 26, 8, 8)
        assert observe(frame, sp, state, cfg) > cfg.fit_floor
        sp.masked_rects = [(40.0, 20.0, 20.0, 20.0)]
        assert observe(frame, sp, state, cfg) == cfg.fit_floor

    def test_empty_basis_before_the_first_update(self):
        """Until the first subspace update U has no columns: the fit is
        exp(-sum o^2 / sigma^2) over the unmasked pixels, and the
        reconstruction is the mean patch itself, so the update stores the
        patch with each rejected overlap pixel taken from the mean."""
        frame = _smooth_texture((64, 96), seed=5)
        cfg = TrackerConfig()
        state = np.array([49.0, 31.0, 1.0])  # the start box moved by (1, 1)
        for rects, n_kept in (([], PATCH_DIM), ([(40.0, 20.0, 8.0, 30.0)], 544)):
            sp = init_species(frame, 0, (40, 24, 16, 12), cfg)
            assert sp.U.shape == (PATCH_DIM, 0)
            sp.masked_rects = rects
            box = state_box(sp, state)
            o = sample_patch(frame, box).ravel() - sp.mean_patch
            kept = ~trk._rect_mask(box, rects).ravel()
            assert kept.sum() == n_kept
            expected = np.exp(-(o[kept] ** 2).sum() / cfg.sigma_obs_sq)
            assert observe(frame, sp, state, cfg) == pytest.approx(expected, rel=1e-12)
        sp.gbest = state
        arena = trk.CompetitionArena(pair=(0, 1), rect=rects[0])
        selective_update(sp, frame, [arena], cfg)
        patch = sample_patch(frame, box).ravel()
        reject = ~kept & (np.abs(patch - sp.mean_patch) >= cfg.tau)
        assert reject.sum() == 100
        assert np.array_equal(sp.window[-1], np.where(reject, sp.mean_patch, patch))


def _oracle_observe(frame, sp, state, config):
    """One state at a time: the observation model before swarms were batched.

    Per-box meshgrid patch, residual U (U^T o), res . res, and an early
    return at the floor for boxes outside the frame or wholly masked.
    """
    cx, cy, s = state
    w, h = sp.template[0] * s, sp.template[1] * s
    x, y = cx - w / 2.0, cy - h / 2.0
    fh, fw = frame.shape
    if x + w <= 0 or y + h <= 0 or x >= fw or y >= fh or w <= 0 or h <= 0:
        return config.fit_floor
    us = np.linspace(0, 1, PATCH)
    xs, ys = x + us * max(w - 1, 1e-9), y + us * max(h - 1, 1e-9)
    coords = np.stack(np.meshgrid(ys, xs, indexing="ij"))
    patch = ndimage.map_coordinates(frame, coords, order=1, mode="nearest").ravel()
    res = patch - sp.mean_patch
    if sp.U is not None:
        res = res - sp.U @ (sp.U.T @ res)
    if sp.masked_rects:
        mask = np.zeros((PATCH, PATCH), dtype=bool)
        for rx, ry, rw, rh in sp.masked_rects:
            mask |= (((ys >= ry) & (ys <= ry + rh))[:, None]
                     & ((xs >= rx) & (xs <= rx + rw))[None, :])
        if mask.all():
            return config.fit_floor
        res[mask.ravel()] = 0.0
    return max(float(np.exp(-(res @ res) / config.sigma_obs_sq)), config.fit_floor)


def _oracle_states(rng):
    """(states, outside): 200+ states for a 16x12 template on a 64x96 frame."""
    n = 20
    inside = np.column_stack([rng.uniform(10, 86, 4 * n), rng.uniform(8, 56, 4 * n),
                              rng.uniform(0.5, 2.0, 4 * n)])
    scale = rng.uniform(0.5, 2.0, n)
    edge = rng.uniform(-6, 6, n)
    mid_x, mid_y = rng.uniform(10, 86, n), rng.uniform(8, 56, n)
    straddle = np.concatenate([
        np.column_stack([edge, mid_y, scale]),          # left edge
        np.column_stack([96 + edge, mid_y, scale]),     # right edge
        np.column_stack([mid_x, edge, scale]),          # top edge
        np.column_stack([mid_x, 64 + edge, scale])])    # bottom edge
    far = rng.uniform(0, 40, n // 2)
    half = n // 2
    outside = np.concatenate([
        np.column_stack([-8 * scale[:half] - far, mid_y[:half], scale[:half]]),
        np.column_stack([96 + 8 * scale[:half] + far, mid_y[:half], scale[:half]]),
        np.column_stack([mid_x[:half], -6 * scale[:half] - far, scale[:half]]),
        np.column_stack([mid_x[:half], 64 + 6 * scale[:half] + far, scale[:half]]),
        # boxes that touch the frame from outside: x + w = 0, x = W, y + h = 0, y = H
        [[-8.0, 30.0, 1.0], [104.0, 30.0, 1.0], [40.0, -6.0, 1.0], [40.0, 70.0, 1.0]]])
    tiny = np.column_stack([rng.uniform(-1, 97, n), rng.uniform(-1, 65, n),
                            np.full(n, 1e-3)])
    states = np.concatenate([[[58.0, 40.0, 1.0]], inside, straddle, outside, tiny])
    flags = np.zeros(len(states), dtype=bool)
    first = 1 + len(inside) + len(straddle)
    flags[first:first + len(outside)] = True
    return states, flags


class TestBatchedObserve:
    @pytest.mark.parametrize("rank", [None, 1, 3, 8])
    # the first rect's left and top edges fall on sample points of the
    # state (58, 40, 1), whose box is (50, 34, 16, 12)
    @pytest.mark.parametrize("rects", [[], [(50.0, 34.0, 10.0, 6.0),
                                            (60.5, 30.0, 10.0, 40.0)]])
    def test_matches_per_state_oracle(self, rank, rects):
        rng = np.random.default_rng(11)
        frame = _smooth_texture((64, 96), seed=3)
        cfg = TrackerConfig()
        sp = init_species(frame, 0, (40, 24, 16, 12), cfg)
        if rank is not None:
            sp.U = np.linalg.qr(rng.standard_normal((PATCH_DIM, rank)))[0]
        sp.masked_rects = list(rects)
        states, outside = _oracle_states(rng)
        assert len(states) >= 200
        fits = observe(frame, sp, states, cfg)
        expected = np.array([_oracle_observe(frame, sp, st, cfg) for st in states])
        assert fits.shape == (len(states),)
        floored = expected == cfg.fit_floor
        assert floored[outside].all() and not floored[~outside].all()
        assert np.array_equal(fits[floored], expected[floored])
        rel = np.abs(fits[~floored] - expected[~floored]) / expected[~floored]
        assert rel.max() <= 1e-12
        # any leading shape; a single state gives a scalar
        grid = observe(frame, sp, states[:120].reshape(4, 30, 3), cfg)
        assert np.allclose(grid, fits[:120].reshape(4, 30), rtol=1e-12, atol=0)
        one = observe(frame, sp, states[0], cfg)
        assert np.ndim(one) == 0
        assert abs(one - expected[0]) <= 1e-12 * expected[0]

    def test_sample_patch_batches_boxes(self):
        frame = _smooth_texture((64, 96), seed=4)
        sp = Species(id=0, template=(16.0, 12.0), gbest=np.zeros(3), gbest_fit=0.0,
                     mean_patch=np.zeros(PATCH_DIM))
        states = np.array([[30.0, 20.0, 1.0], [-3.0, 60.0, 1.7], [50.5, 33.2, 1e-3]])
        patches = sample_patch(frame, state_box(sp, states))
        assert patches.shape == (3, PATCH, PATCH)
        for patch, st in zip(patches, states):
            assert np.array_equal(patch, sample_patch(frame, state_box(sp, st)))


def _sequential_update(sp, fits):
    """The per-particle pbest/gbest loop that _update_bests replaced."""
    for i in range(len(fits)):
        fit = fits[i]
        if fit > sp.pbest_fit[i]:
            sp.pbest_fit[i] = fit
            sp.pbest[i] = sp.particles[i].copy()
        if fit > sp.gbest_fit:
            sp.gbest_fit = fit
            sp.gbest = sp.particles[i].copy()


class TestEvaluate:
    def _swarm(self, gbest_fit):
        """Particles 3, 7 and 10 sit at different places in a flat region that
        matches the flat template exactly (fit 1); the rest overlap texture."""
        frame = np.full((64, 96), 0.5)
        frame[:, 60:] = _smooth_texture((64, 36), seed=5)
        cfg = TrackerConfig(n_particles=12)
        sp = init_species(frame, 0, (10, 20, 16, 12), cfg)
        rng = np.random.default_rng(2)
        sp.particles = np.column_stack([rng.uniform(64, 88, 12),
                                        rng.uniform(10, 54, 12), np.ones(12)])
        sp.particles[[3, 7, 10]] = [[20.0, 30.0, 1.0], [40.0, 12.0, 1.0],
                                    [30.0, 50.0, 1.0]]
        fits = observe(frame, sp, sp.particles, cfg)
        sp.pbest = rng.uniform(0, 50, (12, 3))
        sp.pbest_fit = fits.copy()
        sp.pbest_fit[[0, 2, 5]] -= 0.01  # strictly beaten: these rise
        sp.pbest_fit[[1, 4]] += 0.01     # not beaten
        # the other particles tie their pbest exactly: pbest stays
        sp.gbest = np.array([1.0, 2.0, 1.0])
        sp.gbest_fit = gbest_fit
        return frame, cfg, sp, fits

    @pytest.mark.parametrize("gbest_fit", [0.5, 1.0, 2.0])
    def test_matches_sequential_loop_on_ties(self, gbest_fit):
        frame, cfg, sp, fits = self._swarm(gbest_fit)
        assert fits[3] == fits[7] == fits[10] == fits.max() == 1.0
        assert (np.delete(fits, [3, 7, 10]) < 1.0).all()
        ref = Species(id=0, template=sp.template, gbest=sp.gbest.copy(),
                      gbest_fit=sp.gbest_fit, mean_patch=sp.mean_patch,
                      particles=sp.particles.copy(), pbest=sp.pbest.copy(),
                      pbest_fit=sp.pbest_fit.copy())
        old_pbest = sp.pbest.copy()
        _sequential_update(ref, fits)
        trk._update_bests(sp, fits)
        assert np.array_equal(sp.pbest, ref.pbest)
        assert np.array_equal(sp.pbest_fit, ref.pbest_fit)
        assert np.array_equal(sp.gbest, ref.gbest) and sp.gbest_fit == ref.gbest_fit
        risen = np.flatnonzero((sp.pbest != old_pbest).any(axis=1))
        assert list(risen) == [0, 2, 5]
        if gbest_fit < 1.0:
            assert np.array_equal(sp.gbest, [20.0, 30.0, 1.0])  # lowest index
        else:
            assert np.array_equal(sp.gbest, [1.0, 2.0, 1.0])


class TestInitSpecies:
    def test_initial_state(self):
        frame = _textured_frame((10, 12, 8, 6))
        cfg = TrackerConfig(n_particles=7)
        sp = init_species(frame, 3, (10, 12, 8, 6), cfg)
        assert sp.id == 3
        assert tuple(sp.gbest) == (14.0, 15.0, 1.0)
        assert sp.template == (8.0, 6.0)
        assert sp.particles is None  # drawn each frame by _seed_swarm
        assert len(sp.window) == 1 and sp.window.maxlen == cfg.window
        assert sp.U.shape == (PATCH_DIM, 0)

    def test_degenerate_box_errors(self):
        with pytest.raises(TrackerError):
            init_species(np.zeros((32, 32)), 0, (5, 5, 0, 4), TrackerConfig())


class TestStepParticles:
    @pytest.mark.parametrize("track_scale", [False, True])
    def test_seed_swarm_scatters_and_scores(self, track_scale):
        frame = _textured_frame((30, 20, 16, 16))
        cfg = TrackerConfig(n_particles=20, track_scale=track_scale)
        sp = init_species(frame, 0, (27, 19, 16, 16), cfg)
        start = sp.gbest.copy()
        trk._seed_swarm(sp, frame, np.random.default_rng(4), cfg)
        fits = observe(frame, sp, sp.particles, cfg)
        assert sp.particles.shape == (20, 3)
        assert np.array_equal(sp.pbest, sp.particles)
        assert np.array_equal(sp.pbest_fit, fits)
        assert sp.gbest_fit == max(observe(frame, sp, start, cfg), fits.max())
        frozen = (sp.particles[:, 2] == 1.0).all()
        assert frozen == (not track_scale)

    def test_gbest_monotone_nondecreasing(self):
        frame = _textured_frame((30, 20, 16, 16))
        cfg = TrackerConfig(n_particles=20)
        sp, rng = _seeded_swarm(frame, (26, 18, 16, 16), cfg, 0)  # slightly off
        prev = sp.gbest_fit
        for it in range(10):
            step_particles(sp, frame, it, rng, cfg)
            assert sp.gbest_fit >= prev - 1e-15
            prev = sp.gbest_fit

    def test_step_reports_whether_the_gbest_moved(self):
        first, frame = _shifted_frames(2, step=(4, 0))
        cfg = TrackerConfig(n_particles=20)
        sp = init_species(first, 0, (20, 20, 16, 16), cfg)
        rng = np.random.default_rng(0)
        trk._seed_swarm(sp, frame, rng, cfg)
        reported = []
        for it in range(10):
            gbest, fit = sp.gbest.copy(), sp.gbest_fit
            moved = step_particles(sp, frame, it, rng, cfg)
            assert moved is (not np.array_equal(sp.gbest, gbest))
            assert moved is (sp.gbest_fit > fit)
            reported.append(moved)
        assert True in reported and False in reported

    def test_annealing_shrinks_disturbance(self):
        cfg = TrackerConfig()
        s0 = np.asarray(cfg.sigma0) * np.exp(-cfg.c_anneal * 0 / 2.0)
        s10 = np.asarray(cfg.sigma0) * np.exp(-cfg.c_anneal * 10 / 2.0)
        assert (s10 < s0).all()
        assert s10[0] == pytest.approx(8.0 * np.exp(-1.5))

    def test_scale_frozen_without_track_scale(self):
        frame = _textured_frame((30, 20, 16, 16))
        cfg = TrackerConfig(n_particles=10, track_scale=False)
        sp, rng = _seeded_swarm(frame, (30, 20, 16, 16), cfg, 1)
        for it in range(5):
            step_particles(sp, frame, it, rng, cfg)
        assert (sp.particles[:, 2] == 1.0).all() and (sp.pbest[:, 2] == 1.0).all()

    def test_deterministic_for_seed(self):
        frame = _textured_frame((30, 20, 16, 16))
        cfg = TrackerConfig(n_particles=10, track_scale=True)

        def run():
            sp, rng = _seeded_swarm(frame, (28, 19, 16, 16), cfg, 2)
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

    def test_each_species_scores_the_uncentred_patch(self):
        """_power centres its patch in place, so each species scores its own
        copy: the shares come from the powers on fresh samples of the rect."""
        frame = _smooth_texture((64, 96), seed=2)
        cfg = TrackerConfig()
        sps = self._pair(frame, [(20, 16, 24, 20), (32, 24, 24, 20)], cfg)
        sps[1].U = np.linalg.qr(np.random.default_rng(1)
                                .standard_normal((PATCH_DIM, 3)))[0]
        arena = compete(detect_occlusion(sps)[0], frame, dict(enumerate(sps)), cfg)
        powers = [trk._power(sample_patch(frame, arena.rect).ravel(), sp, cfg)
                  for sp in sps]
        for k, power in enumerate(powers):
            assert 0.05 < arena.interactive[k] < 0.95
            assert arena.interactive[k] == pytest.approx(power / sum(powers),
                                                         rel=0, abs=1e-15)

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

    def test_powers_that_both_underflow_share_evenly_and_the_lower_id_wins(self):
        frame = np.full((64, 96), 0.5)
        cfg = TrackerConfig()
        sps = {k: init_species(frame, k, (20, 20, 10, 10), cfg) for k in (2, 5)}
        for sp in sps.values():
            sp.mean_patch = np.full(PATCH_DIM, 50.0)  # exp(-energy) is 0.0
        arena = compete(trk.CompetitionArena(pair=(5, 2), rect=(20.0, 20.0, 8.0, 8.0)),
                        frame, sps, cfg)
        assert arena.interactive == {5: 0.5, 2: 0.5}
        assert arena.winner == 2
        assert sps[5].masked_rects == [arena.rect] and sps[2].masked_rects == []

    def test_an_empty_arena_is_refused(self):
        frame = np.full((64, 96), 0.5)
        cfg = TrackerConfig()
        sps = dict(enumerate(self._pair(frame, [(20, 20, 10, 10)] * 2, cfg)))
        for rect in ((20.0, 20.0, 0.0, 8.0), (20.0, 20.0, 8.0, -1.0)):
            with pytest.raises(TrackerError, match="empty overlap"):
                compete(trk.CompetitionArena(pair=(0, 1), rect=rect), frame, sps, cfg)

    def test_coincident_centres_repel_in_a_seeded_direction(self):
        frame = np.full((64, 96), 0.5)
        cfg = TrackerConfig(eta=4.0)
        sps = self._pair(frame, [(20, 20, 10, 10), (20, 20, 10, 10)], cfg)
        arena = detect_occlusion(sps)[0]
        forces = [repulsion_force(sps[0], sps[1], arena, cfg, np.random.default_rng(seed))
                  for seed in (3, 3, 4)]
        assert np.linalg.norm(forces[0][:2]) == pytest.approx(cfg.eta * 1.0)  # full overlap
        assert forces[0][2] == 0.0
        assert forces[0].tobytes() == forces[1].tobytes()
        assert not np.allclose(forces[0], forces[2])


class TestSelectiveUpdate:
    def test_window_grows_and_caps(self):
        frames = _shifted_frames(25, step=(0, 0))
        cfg = TrackerConfig(window=4, update_every=2)
        sp = init_species(frames[0], 0, (20, 20, 16, 16), cfg)
        for t in range(1, 10):
            selective_update(sp, frames[t], [], cfg)
        assert len(sp.window) == 4

    def test_without_an_arena_the_sampled_patch_is_stored(self):
        frame = _smooth_texture((64, 96), seed=6)
        cfg = TrackerConfig()
        sp = init_species(frame, 0, (20, 20, 16, 16), cfg)
        sp.gbest = np.array([29.5, 27.25, 1.0])
        others = trk.CompetitionArena(pair=(1, 2), rect=(20.0, 20.0, 8.0, 8.0))
        selective_update(sp, frame, [others], cfg)
        assert np.array_equal(sp.window[-1],
                              sample_patch(frame, state_box(sp, sp.gbest)).ravel())

    def test_subspace_recomputed_on_schedule(self):
        rng = np.random.default_rng(3)
        frames = [rng.random((64, 96)) for _ in range(6)]
        cfg = TrackerConfig(update_every=3, q=4)
        sp = init_species(frames[0], 0, (20, 20, 16, 16), cfg)
        selective_update(sp, frames[1], [], cfg)
        selective_update(sp, frames[2], [], cfg)
        assert sp.U.shape == (PATCH_DIM, 0)  # frames_tracked = 2 < 3
        selective_update(sp, frames[3], [], cfg)
        assert sp.U.shape[0] == PATCH_DIM and 1 <= sp.U.shape[1] <= 4
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
        # with an empty basis the reconstruction is the template itself, so
        # overlap pixels differing from it by >= tau keep the template
        # and everything else takes the new observation
        overlap = np.zeros((PATCH, PATCH), bool)
        overlap[:, :17]  = True  # pixel centers 20..35; <= 28 -> idx 0..16
        reject = overlap & (np.abs(corrupt_patch - clean) >= cfg.tau)
        assert reject.sum() > 100  # the gate actually fired
        assert np.allclose(stored[reject], clean[reject], atol=1e-12)
        assert np.allclose(stored[~reject], corrupt_patch[~reject], atol=1e-12)


BAD_CONFIG_VALUES = [
    ("n_particles", 0, "particle/iteration counts"),
    ("n_iters", 0, "particle/iteration counts"),
    ("update_every", 0, "tracker.update_every"),
    ("lost_patience", 0, "tracker.lost_patience"),
    ("window", 1, "tracker.window"),
    ("sigma_obs_sq", 0.0, "tracker.sigma_obs_sq"),
    ("fit_floor", 0.0, "tracker.fit_floor"),
    ("sigma0", (8.0, -1.0, 0.05), "tracker.sigma0"),
    ("q", 0, "tracker.q"),
    ("q", PATCH_DIM + 1, "tracker.q"),
    ("c_anneal", -0.1, "tracker.c_anneal"),
    ("tau", -0.1, "tracker.tau"),
    ("eta", -1.0, "tracker.eta"),
]


@pytest.mark.parametrize("key,value,name", BAD_CONFIG_VALUES,
                         ids=[f"{key}={value}" for key, value, _ in BAD_CONFIG_VALUES])
def test_tracker_config_built_directly_is_checked(key, value, name):
    # Library callers build TrackerConfig without the config file; the same
    # check fires, with the message the config reports.
    with pytest.raises(TrackerError, match=name) as built:
        TrackerConfig(**{key: value})
    user = list(value) if isinstance(value, tuple) else value
    with pytest.raises(ConfigError) as merged:
        merge_config({"tracker": {key: user}})
    assert str(merged.value) == str(built.value)


class TestTrackSequence:
    def test_swarm_stops_after_stall_iters_without_a_new_gbest(self, monkeypatch):
        """Where every fit floors no step beats the seeded gbest, so each
        species-frame observes once to seed and STALL_ITERS times to step."""
        first = np.zeros((64, 96))
        first[20:36, 30:46] = 1.0
        dark = np.zeros_like(first)
        cfg = TrackerConfig(n_particles=10, n_iters=10, sigma_obs_sq=1.0)
        observed = []
        real = trk.observe

        def counting(frame, *args):
            observed.append(frame is dark)
            return real(frame, *args)

        monkeypatch.setattr(trk, "observe", counting)
        records = track_sequence([first, dark, dark, dark], [(30, 20, 16, 16)], cfg)
        assert [r.fit for r in records if r.frame > 0] == [cfg.fit_floor] * 3
        assert observed.count(True) == 3 * (1 + trk.STALL_ITERS)

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

    def test_stops_reading_frames_once_every_species_is_lost(self):
        # Random frames match no template, so the one species is lost after
        # lost_patience frames and the rest of the sequence is never read.
        frames = np.random.default_rng(0).random((50, 48, 64))
        pulled = []

        def reading():
            for frame in frames:
                pulled.append(frame)
                yield frame

        cfg = TrackerConfig(n_particles=10, n_iters=3, sigma_obs_sq=1e-3, lost_patience=2)
        records = track_sequence(reading(), [(20, 16, 16, 16)], cfg, seed=0)
        assert len(pulled) == 3
        assert sorted({r.frame for r in records}) == [0, 1, 2]

    def test_generator_input_matches_list(self):
        frames = _shifted_frames(8)
        cfg = TrackerConfig(track_scale=False)
        from_list = track_sequence(frames, [(20, 20, 16, 16)], cfg, seed=3)
        from_generator = track_sequence((f for f in frames), [(20, 20, 16, 16)],
                                        cfg, seed=3)
        assert len(from_list) == 8
        assert [vars(r) for r in from_generator] == [vars(r) for r in from_list]

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

    def test_zero_scale_disturbance_matches_frozen_scale(self, monkeypatch):
        # Both freeze s through a zero disturbance entry, so every record,
        # fit included, is equal; arenas and repulsion fire on this sequence.
        calls = []
        force = trk.repulsion_force
        monkeypatch.setattr(trk, "repulsion_force",
                            lambda *a: calls.append(1) or force(*a))
        grays, boxes, _ = _cross2(0)
        frozen = track_sequence(grays, boxes, TrackerConfig(
            n_particles=30, n_iters=10, track_scale=False), seed=0)
        assert calls
        zero = track_sequence(grays, boxes, TrackerConfig(
            n_particles=30, n_iters=10, track_scale=True, sigma0=(8.0, 8.0, 0.0)),
            seed=0)
        assert [vars(r) for r in zero] == [vars(r) for r in frozen]

    @pytest.mark.parametrize("seed", range(6))
    def test_default_config_tracks_cross2(self, seed):
        grays, boxes, truth = _cross2(seed)
        records = track_sequence(grays, boxes, TrackerConfig(), seed=seed)
        assert evaluate_tracks(records, truth).success_rate >= 0.7
        assert all(0.5 <= r.s <= 2.0 for r in records)

    def test_empty_detections_error(self):
        with pytest.raises(TrackerError):
            track_sequence([np.zeros((32, 32))], [], TrackerConfig())

    def test_rejects_nan_frame(self):
        frames = _shifted_frames(4)
        frames[2][30, 30] = np.nan
        with pytest.raises(FrameError, match="intensities in"):
            track_sequence(frames, [(20, 20, 16, 16)], TrackerConfig(n_iters=2))

    def test_rejects_color_frame(self):
        frames = _shifted_frames(3)
        frames[1] = np.repeat(frames[1][..., None], 3, axis=2)
        with pytest.raises(FrameError, match="2-D"):
            track_sequence(frames, [(20, 20, 16, 16)], TrackerConfig(n_iters=2))

    def test_rejects_mixed_frame_shapes(self):
        frames = _shifted_frames(4)
        frames[3] = frames[3][:, :80]
        with pytest.raises(TrackerError, match=r"frame 3 has shape \(64, 80\)"):
            track_sequence(frames, [(20, 20, 16, 16)], TrackerConfig(n_iters=2))

    def test_no_frames_error(self):
        with pytest.raises(TrackerError, match="at least one frame"):
            track_sequence([], [(20, 20, 16, 16)], TrackerConfig())
