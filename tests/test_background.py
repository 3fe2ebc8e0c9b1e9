import numpy as np
import pytest

from vvtrack.background import (EPS_MEAN, EPS_VAR, BackgroundError, clean_mask,
                                diff_histogram, fit_adaptive_threshold,
                                init_background, motion_masks, similarity_map,
                                update_background)
from vvtrack.config import default_config
from vvtrack.frames import FrameError, validate_gray
from vvtrack.pipeline import detect_sequence


def _frame(vals):
    return np.asarray(vals, dtype=np.float64)


# Scalar oracle of similarity_map: one window pair evaluated directly.
def radiometric_similarity(f1: np.ndarray, f2: np.ndarray, x: int, y: int,
                           w: int = 1) -> float:
    """Normalized cross-correlation of the (2w+1)^2 windows centred at (x, y).

    Both windows constant: returns 1 when the window means agree to
    within 1e-6, else 0.
    """
    f1 = validate_gray(f1)
    f2 = validate_gray(f2)
    h, width = f1.shape
    if f1.shape != f2.shape:
        raise BackgroundError("frame dimensions differ")
    if x - w < 0 or y - w < 0 or x + w >= width or y + w >= h:
        raise BackgroundError(f"window at ({x}, {y}) radius {w} outside frame")
    w1 = f1[y - w : y + w + 1, x - w : x + w + 1]
    w2 = f2[y - w : y + w + 1, x - w : x + w + 1]
    m1, m2 = w1.mean(), w2.mean()
    v1 = ((w1 - m1) ** 2).mean()
    v2 = ((w2 - m2) ** 2).mean()
    if v1 < EPS_VAR and v2 < EPS_VAR:
        return 1.0 if abs(m1 - m2) < EPS_MEAN else 0.0
    if v1 < EPS_VAR or v2 < EPS_VAR:
        return 0.0
    cov = (w1 * w2).mean() - m1 * m2
    return float(cov / np.sqrt(v1 * v2))


class TestRadiometricSimilarity:
    def test_identical_nonconstant_windows(self):
        rng = np.random.default_rng(0)
        f = rng.random((5, 5))
        assert radiometric_similarity(f, f.copy(), 2, 2, 1) == pytest.approx(1.0)

    def test_anticorrelated_windows(self):
        # window2 = -window1 + const; direct evaluation gives exactly -1
        f1 = np.zeros((3, 3))
        f1[:] = _frame([[0.1, 0.2, 0.3], [0.4, 0.5, 0.6], [0.7, 0.8, 0.9]])
        f2 = 1.0 - f1
        assert radiometric_similarity(f1, f2, 1, 1, 1) == pytest.approx(-1.0)

    def test_constant_equal_windows(self):
        f = np.full((3, 3), 0.4)
        assert radiometric_similarity(f, f.copy(), 1, 1, 1) == 1.0

    def test_constant_unequal_windows(self):
        f1 = np.full((3, 3), 0.4)
        f2 = np.full((3, 3), 0.6)
        assert radiometric_similarity(f1, f2, 1, 1, 1) == 0.0

    def test_window_outside_frame_errors(self):
        f = np.zeros((4, 4))
        with pytest.raises(BackgroundError):
            radiometric_similarity(f, f, 0, 0, 1)


class TestSimilarityMap:
    @pytest.mark.parametrize("w", [1, 2])
    def test_matches_scalar_oracle(self, w):
        rng = np.random.default_rng(3)
        f1 = rng.random((24, 24))
        f2 = 0.6 * f1 + 0.4 * rng.random((24, 24))
        f1[1:9, 1:9] = f2[1:9, 1:9] = 0.4  # flat and equal
        f1[1:9, 13:21], f2[1:9, 13:21] = 0.3, 0.7  # flat, unequal means
        f1[13:21, 1:9] = 0.5  # flat in f1 only
        sim = similarity_map(f1, f2, w)
        oracle = np.array([[radiometric_similarity(f1, f2, x, y, w)
                            for x in range(w, 24 - w)] for y in range(w, 24 - w)])
        assert np.abs(sim[w:24 - w, w:24 - w] - oracle).max() <= 1e-12
        # each flat case is hit: window centres (5, 5), (17, 5), (5, 17)
        assert oracle[5 - w, 5 - w] == 1.0
        assert oracle[5 - w, 17 - w] == 0.0 and oracle[17 - w, 5 - w] == 0.0


class TestMotionMasks:
    def test_no_change_all_zero(self):
        f = np.full((16, 16), 0.5)
        state = init_background(f)
        state.T_b = 0.1
        masks = motion_masks(f, f.copy(), state)
        assert not masks.I_m.any() and not masks.F_m.any() and not masks.M.any()

    def test_moved_square_matches_bruteforce(self):
        rng = np.random.default_rng(7)
        background_img = rng.random((32, 32)) * 0.2
        prev = background_img.copy()
        curr = background_img.copy()
        prev[5:15, 5:15] += 0.5
        curr[5:15, 7:17] += 0.5
        prev = np.clip(prev, 0, 1)
        curr = np.clip(curr, 0, 1)
        state = init_background(background_img)
        state.T_b = 0.1
        masks = motion_masks(curr, prev, state)

        # brute-force per-pixel evaluation of the three mask rules
        sim = np.zeros((32, 32))
        for y in range(1, 31):
            for x in range(1, 31):
                sim[y, x] = radiometric_similarity(curr, prev, x, y, 1)
        i_m = (1.0 - sim) > state.T_sim
        f_m = np.abs(curr - background_img) > state.T_b
        m = i_m & f_m
        interior = np.zeros((32, 32), bool)
        interior[1:31, 1:31] = True
        assert np.array_equal(masks.M & interior, m & interior)

    def test_fused_subset_of_components(self):
        rng = np.random.default_rng(1)
        prev = rng.random((16, 16))
        curr = rng.random((16, 16))
        state = init_background(rng.random((16, 16)))
        state.T_b = 0.2
        masks = motion_masks(curr, prev, state)
        assert not (masks.M & ~masks.I_m).any()
        assert not (masks.M & ~masks.F_m).any()

    def test_uninitialized_state_errors(self):
        f = np.zeros((8, 8))
        state = init_background(f)
        state.V = []
        with pytest.raises(BackgroundError):
            motion_masks(f, f, state)


class TestUpdateBackground:
    def test_alpha_base_when_means_equal(self):
        f = np.full((8, 8), 0.5)
        state = init_background(f)
        for _ in range(6):
            update_background(state, f)
        # E(t) == E(t-5) so alpha == a == 0.05 and B stays put
        assert np.allclose(state.B, 0.5)
        assert len(state.V) == 6

    def test_full_replacement_at_alpha_one(self):
        f0 = np.zeros((4, 4))
        f1 = np.ones((4, 4))
        state = init_background(f0, a=0.05, b=0.1)
        state.a = 0.05
        # force alpha = 1 by direct arithmetic check of the filter form
        state.B = state.B + 1.0 * (f1 - state.B)
        assert np.array_equal(state.B, f1)

    def test_recursive_filter_arithmetic(self):
        state = init_background(np.full((2, 2), 0.5))
        curr = np.full((2, 2), 0.7)
        update_background(state, curr)  # warm-up: alpha = a = 0.05
        assert np.allclose(state.B, 0.51)

    def test_convex_combination_bounds(self):
        rng = np.random.default_rng(5)
        state = init_background(rng.random((8, 8)))
        for _ in range(10):
            curr = rng.random((8, 8))
            lo = np.minimum(state.B, curr)
            hi = np.maximum(state.B, curr)
            update_background(state, curr)
            assert (state.B >= lo - 1e-12).all() and (state.B <= hi + 1e-12).all()

    def test_alpha_at_least_base(self):
        rng = np.random.default_rng(6)
        state = init_background(rng.random((8, 8)) * 0.5)
        for _ in range(8):
            curr = rng.random((8, 8))
            before = state.B.copy()
            update_background(state, curr)
            # recover effective alpha and check alpha >= a
            diff = curr - before
            mask = np.abs(diff) > 1e-9
            alpha = ((state.B - before)[mask] / diff[mask]).mean()
            assert alpha >= state.a - 1e-12


def _eq13_scan_oracle(hist):
    """Independent exhaustive scan of the threshold fit criterion."""
    from scipy.special import erf
    h = hist / hist.sum()
    d = np.arange(256, dtype=float)
    best_t, best_e = None, np.inf
    for t in range(256):
        p_b = h[: t + 1].sum()
        var = (d[: t + 1] ** 2 * h[: t + 1]).sum()
        sigma = max(np.sqrt(var / max(p_b, 1e-12)), 1e-6)
        hi = erf((d + 0.5) / (sigma * np.sqrt(2)))
        lo = erf(np.maximum(d - 0.5, 0.0) / (sigma * np.sqrt(2)))
        e = ((p_b * (hi - lo) - h) ** 2).sum()
        if e < best_e:
            best_e, best_t = e, t
    return best_t


def _dense_fit_oracle(hist):
    """The threshold fit evaluated densely: one model row for every T."""
    from scipy.special import erf
    h = hist / hist.sum()
    d = np.arange(256, dtype=np.float64)
    p_b = np.cumsum(h)
    var = np.cumsum(d * d * h)
    sigma = np.maximum(np.sqrt(var / np.maximum(p_b, EPS_VAR)), EPS_MEAN)
    hi = (d + 0.5)[None, :] / (sigma[:, None] * np.sqrt(2.0))
    lo = np.maximum(d - 0.5, 0.0)[None, :] / (sigma[:, None] * np.sqrt(2.0))
    model = p_b[:, None] * (erf(hi) - erf(lo))
    errors = ((model - h[None, :]) ** 2).sum(axis=1)
    t_best = int(np.argmin(errors))
    return errors, t_best, float(sigma[t_best]), float(p_b[t_best])


def _oracle_histograms():
    rng = np.random.default_rng(11)
    leading_empty = np.zeros(256)
    leading_empty[[3, 4, 9]] = [5, 2, 1]
    long_runs = np.zeros(256)
    long_runs[[0, 1, 80, 81, 200]] = [300, 40, 3, 1, 2]
    spike_255 = np.zeros(256)
    spike_255[255] = 7
    single_bins = [np.eye(256)[k] * 50 for k in (0, 1, 17, 128)]
    samples = np.abs(rng.normal(0.0, 6.0, 5000))
    half_gauss = np.bincount(np.rint(samples).astype(int), minlength=256)[:256]
    half_gauss = half_gauss + rng.integers(0, 3, 256) * (rng.random(256) < 0.2)
    sparse = []
    for _ in range(30):
        hist = np.zeros(256)
        idx = rng.integers(0, 256, rng.integers(1, 25))
        hist[idx] = rng.integers(1, 200, idx.size)
        sparse.append(hist)
    return [leading_empty, long_runs, spike_255, *single_bins,
            half_gauss.astype(float), *sparse]


class TestAdaptiveThreshold:
    def test_delta_spike_at_zero(self):
        hist = np.zeros(256)
        hist[0] = 1000
        model = fit_adaptive_threshold(hist)
        assert model.threshold == 0
        assert model.sigma <= 1e-5

    def test_gaussian_recovery(self):
        rng = np.random.default_rng(2)
        sigma_true = 8.0  # gray levels
        samples = np.clip(np.abs(rng.normal(0, sigma_true, 20000)), 0, 255)
        hist = np.bincount(np.rint(samples).astype(int), minlength=256)[:256]
        model = fit_adaptive_threshold(hist.astype(float))
        assert abs(model.sigma - sigma_true) / sigma_true < 0.10
        assert abs(model.threshold - _eq13_scan_oracle(hist.astype(float))) <= 2

    def test_matches_independent_scan(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            hist = rng.integers(0, 50, 256).astype(float)
            model = fit_adaptive_threshold(hist)
            assert model.threshold == _eq13_scan_oracle(hist)

    def test_all_zero_histogram_errors(self):
        with pytest.raises(BackgroundError):
            fit_adaptive_threshold(np.zeros(256))

    def test_tie_break_smallest(self):
        # a histogram flat at zero except one spike: many T tie, smallest wins
        hist = np.zeros(256)
        hist[0] = 10
        model = fit_adaptive_threshold(hist)
        ties = np.flatnonzero(model.errors == model.errors.min())
        assert model.threshold == ties[0]

    def test_matches_dense_fit_bitwise(self):
        for hist in _oracle_histograms():
            model = fit_adaptive_threshold(hist)
            errors, t_best, sigma, p_b = _dense_fit_oracle(hist)
            assert model.errors.shape == (256,)
            assert np.array_equal(model.errors, errors)
            assert (model.threshold, model.sigma, model.p_B) == (t_best, sigma, p_b)


def _ndimage_chain(mask):
    """clean_mask as median filter, then binary erosion/dilation calls."""
    from scipy import ndimage
    se = np.ones((3, 3), bool)
    out = ndimage.median_filter(mask.astype(np.uint8), size=3) > 0
    out = ndimage.binary_erosion(out, structure=se, border_value=1)
    out = ndimage.binary_dilation(out, structure=se, border_value=0)
    out = ndimage.binary_dilation(out, structure=se, border_value=0)
    return ndimage.binary_erosion(out, structure=se, border_value=1)


class TestCleanMask:
    def test_isolated_pixel_removed(self):
        m = np.zeros((16, 16), bool)
        m[8, 8] = True
        assert not clean_mask(m).any()

    def test_hole_filled(self):
        m = np.zeros((16, 16), bool)
        m[3:13, 3:13] = True
        m[8, 8] = False
        out = clean_mask(m)
        assert out[8, 8]

    def test_opening_closing_stage_idempotent(self):
        # the morphological stage alone is a fixed point of itself; the
        # leading median filter can keep nudging convex corners, so the
        # full chain is only guaranteed to converge (next test)
        from scipy import ndimage
        se = np.ones((3, 3), bool)

        def oc(m):
            m = ndimage.binary_dilation(
                ndimage.binary_erosion(m, se, border_value=1), se,
                border_value=0)
            return ndimage.binary_erosion(
                ndimage.binary_dilation(m, se, border_value=0), se,
                border_value=1)

        rng = np.random.default_rng(9)
        for _ in range(50):
            m = rng.random((24, 24)) > 0.5
            once = oc(m)
            assert np.array_equal(once, oc(once))

    def test_repeated_application_converges(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            cur = clean_mask(rng.random((24, 24)) > 0.5)
            for _ in range(30):
                nxt = clean_mask(cur)
                if np.array_equal(nxt, cur):
                    break
                cur = nxt
            else:
                raise AssertionError("clean_mask did not reach a fixed point")

    def test_border_touching_blob_survives(self):
        m = np.zeros((16, 16), bool)
        m[0:5, 0:5] = True
        out = clean_mask(m)
        assert out[0:4, 0:4].all()

    @pytest.mark.parametrize("shape", [(1, 1), (1, 7), (5, 1), (2, 2), (24, 24),
                                       (64, 337)], ids=lambda s: f"{s[0]}x{s[1]}")
    def test_matches_ndimage_chain(self, shape):
        rng = np.random.default_rng(shape[0] * 1000 + shape[1])
        for density in (0.05, 0.2, 0.35, 0.5, 0.65, 0.8):
            for _ in range(4):
                m = rng.random(shape) < density
                out = clean_mask(m)
                assert out.dtype == bool
                assert np.array_equal(out, _ndimage_chain(m))


def test_diff_histogram_counts_pixels():
    a = np.zeros((4, 4))
    b = np.full((4, 4), 10 / 255)
    hist = diff_histogram(a, b)
    assert hist[10] == 16 and hist.sum() == 16


@pytest.mark.parametrize("shape", [(0, 0), (0, 5), (3, 0)],
                         ids=lambda s: f"{s[0]}x{s[1]}")
def test_detect_sequence_rejects_zero_pixel_frames(shape):
    with pytest.raises(FrameError, match="needs pixels"):
        detect_sequence([np.zeros(shape)] * 3, default_config())
