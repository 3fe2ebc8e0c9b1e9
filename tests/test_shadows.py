import numpy as np
import pytest
from scipy import fft, ndimage

from vvtrack import frames as fio
from vvtrack import shadows as sh
from vvtrack.config import merge_config
from vvtrack.frames import (FrameError, SceneObject, SyntheticScene,
                            generate_synthetic, rle_decode)
from vvtrack.metrics import mask_f1
from vvtrack.pipeline import detect_sequence
from vvtrack.scenes import build_scene
from vvtrack.shadows import (GradientField, PoissonConvergenceError,
                             ShadowError, divergence, extract_blobs,
                             forward_gradient, hard_shadow_mask, masked_gradient, poisson_reconstruct,
                             shadow_masks, split_shadow)


def _invariant_images(frame):
    """(H, W, 2) invariant r and g of an RGB frame, by shadows._invariants."""
    frame = fio.validate_rgb(frame)
    return np.moveaxis(sh._invariants(frame, np.empty((2,) + frame.shape[:2])), 0, -1)


class TestInvariantImages:
    def test_unit_l2_norm_where_nonblack(self):
        rng = np.random.default_rng(0)
        frame = rng.random((6, 6, 3)) * 0.9 + 0.05
        inv = _invariant_images(frame)
        norm = np.sqrt((frame ** 2).sum(axis=2))
        assert np.allclose(inv[..., 0], frame[..., 0] / norm)
        assert np.allclose(inv[..., 1], frame[..., 1] / norm)

    def test_intensity_scale_invariance(self):
        rng = np.random.default_rng(1)
        frame = rng.random((8, 8, 3)) * 0.5 + 0.25
        dim = np.clip(frame * 0.4, 0, 1)
        a = _invariant_images(frame)
        b = _invariant_images(dim)
        assert np.allclose(a[..., 0], b[..., 0], atol=1e-12)
        assert np.allclose(a[..., 1], b[..., 1], atol=1e-12)

    def test_black_pixels_map_to_zero(self):
        frame = np.zeros((4, 4, 3))
        frame[0, 0] = (0.2, 0.3, 0.1)
        inv = _invariant_images(frame)
        assert inv[1, 1, 0] == 0.0 and inv[1, 1, 1] == 0.0
        assert inv[0, 0, 0] > 0

    @pytest.mark.parametrize("kind", ["random", "black_pixels", "uint8"])
    def test_matches_the_axis_sum_norm_bit_for_bit(self, kind):
        rng = np.random.default_rng(3)
        frame = rng.random((13, 17, 3))
        if kind == "black_pixels":
            frame[rng.random((13, 17)) < 0.3] = 0.0
        if kind == "uint8":
            frame = (frame * 255).astype(np.uint8)
            frame[:4, :4] = 0
        f = fio.validate_rgb(frame)
        norm = np.sqrt((f ** 2).sum(axis=2, keepdims=True))
        expected = f[..., :2] / np.where(norm > 0, norm, 1.0)
        assert _invariant_images(frame).tobytes() == expected.tobytes()


def _edge_strength_per_plane(plane, sigma,
                             magnitude=lambda gx, gy: np.sqrt(gx * gx + gy * gy)):
    """The one-plane reference: its own Gaussian and border weight, two
    ndimage.sobel calls and the root of their summed squares (or
    ``magnitude`` of them)."""
    plane = fio.validate_gray(plane)
    if sigma > 0:
        blurred = ndimage.gaussian_filter(plane, sigma, truncate=3.0, mode="constant")
        weight = ndimage.gaussian_filter(np.ones_like(plane), sigma, truncate=3.0,
                                         mode="constant")
        plane = blurred / weight
    gx = ndimage.sobel(plane, axis=1, mode="nearest")
    gy = ndimage.sobel(plane, axis=0, mode="nearest")
    mag = magnitude(gx, gy)
    peak = mag.max()
    return mag / peak if peak > 0 else mag


def _hypot_edge_strength(stack, sigma):
    """_edge_strength with np.hypot as its magnitude: the form it replaced."""
    planes = stack.reshape(-1, *stack.shape[-2:])
    return np.array([_edge_strength_per_plane(p, sigma, np.hypot)
                     for p in planes]).reshape(stack.shape)


def _edge_strength_by_chain(frame, sigma):
    """_edge_strength as fresh-array expression chains: gaussian_filter over
    the last two axes over the border weight, the 2c + (l + r) Sobel sums
    and the root of gx * gx + gy * gy; the reference of its in-place steps."""
    if sigma > 0:
        blurred = ndimage.gaussian_filter(frame, sigma, truncate=3.0, mode="constant",
                                          axes=(-2, -1))
        frame = blurred / ndimage.gaussian_filter(np.ones(frame.shape[-2:]), sigma,
                                                  truncate=3.0, mode="constant")
    pad = np.pad(frame, [(0, 0)] * (frame.ndim - 2) + [(1, 1), (1, 1)], mode="edge")
    dx = pad[..., 2:] - pad[..., :-2]
    dy = pad[..., 2:, :] - pad[..., :-2, :]
    gx = 2.0 * dx[..., 1:-1, :] + (dx[..., :-2, :] + dx[..., 2:, :])
    gy = 2.0 * dy[..., 1:-1] + (dy[..., :-2] + dy[..., 2:])
    mag = np.sqrt(gx * gx + gy * gy)
    peak = mag.max(axis=(-2, -1), keepdims=True)
    return mag / np.where(peak > 0, peak, 1.0)


class TestEdgeStrength:
    @pytest.mark.parametrize("sigma", [0.0, 0.5, 1.0, 2.0, 3.3])
    @pytest.mark.parametrize("shape", [(1, 1), (3, 5), (64, 64), (3, 1, 1), (3, 3, 5),
                                       (3, 64, 64), (3, 480, 640)],
                             ids=lambda s: "x".join(map(str, s)))
    def test_matches_the_expression_chain_bit_for_bit(self, shape, sigma):
        stack = np.random.default_rng(12).random(shape)
        before = stack.copy()
        want = _edge_strength_by_chain(stack, sigma)
        assert sh._edge_strength(stack, sigma).tobytes() == want.tobytes()
        assert np.array_equal(stack, before)  # the in-place steps write only their own

    def test_a_blur_below_gaussian_filters_cut_off_is_none(self):
        stack = np.random.default_rng(13).random((3, 9, 11))
        for sigma in (1e-300, 1e-15):
            assert (sh._edge_strength(stack, sigma).tobytes()
                    == _edge_strength_by_chain(stack, sigma).tobytes()
                    == sh._edge_strength(stack, 0.0).tobytes())

    def test_flat_image_zero(self):
        assert sh._edge_strength(np.full((8, 8), 0.5), 1.0).max() == 0.0

    def test_peak_normalized(self):
        rng = np.random.default_rng(2)
        e = sh._edge_strength(rng.random((16, 16)), sigma=1.0)
        assert e.max() == pytest.approx(1.0)
        assert e.min() >= 0.0

    def test_step_edge_located(self):
        frame = np.zeros((16, 16))
        frame[:, 8:] = 1.0
        e = sh._edge_strength(frame, 1.0)
        # strongest response should sit on the step columns
        cols = np.argmax(e, axis=1)
        assert np.all((cols >= 6) & (cols <= 9))

    def test_negative_sigma_errors(self):
        with pytest.raises(ShadowError):
            sh._edge_strength(np.zeros((4, 4)), sigma=-1.0)

    @pytest.mark.parametrize("sigma", [0.0, 1.0, 0.7, 2.0])
    @pytest.mark.parametrize("shape", [(3, 8, 8), (3, 17, 23), (2, 2, 31, 64), (3, 1, 1),
                                       (3, 1, 9), (3, 9, 1), (3, 2, 2)])
    def test_stack_matches_the_per_plane_reference_bit_for_bit(self, shape, sigma):
        stack = np.random.default_rng(4).random(shape)
        planes = stack.reshape(-1, *shape[-2:])
        expected = np.array([_edge_strength_per_plane(p, sigma) for p in planes])
        assert sh._edge_strength(stack, sigma).tobytes() == expected.tobytes()
        assert sh._edge_strength(planes[0], sigma).tobytes() == expected[0].tobytes()

    @pytest.mark.parametrize("sigma", [0.0, 1.0, 0.7, 2.0])
    @pytest.mark.parametrize("shape", [(3, 8, 8), (3, 17, 23), (2, 2, 31, 64), (3, 2, 2)])
    def test_within_4_ulp_of_the_hypot_magnitude(self, shape, sigma):
        stack = np.random.default_rng(4).random(shape)
        got, want = sh._edge_strength(stack, sigma), _hypot_edge_strength(stack, sigma)
        assert np.all(np.abs(got - want) <= 4 * np.spacing(want))

    @pytest.mark.parametrize("sigma", [0.0, 1.0])
    def test_flat_plane_in_a_stack_stays_zero(self, sigma):
        stack = np.random.default_rng(5).random((3, 12, 9))
        stack[1] = 0.0
        e = sh._edge_strength(stack, sigma)
        assert not e[1].any()
        for plane, got in zip(stack, e):
            assert got.tobytes() == _edge_strength_per_plane(plane, sigma).tobytes()

    def test_planes_are_independent(self):
        # ndimage.sobel(stack, axis=...) would also smooth across planes.
        rng = np.random.default_rng(6)
        a = rng.random((3, 16, 16))
        b = a.copy()
        b[2] = rng.random((16, 16))
        ea, eb = sh._edge_strength(a, 1.0), sh._edge_strength(b, 1.0)
        assert ea[:2].tobytes() == eb[:2].tobytes()
        assert not np.array_equal(ea[2], eb[2])

    @pytest.mark.parametrize("bad", ["nan", "out_of_range"])
    def test_a_bad_plane_in_a_stack_raises(self, bad):
        # The edge pass checks nothing: shadow_masks checks the frame whose
        # planes it stacks.
        frame = np.random.default_rng(7).random((8, 8, 3))
        frame[4, 4, 2] = np.nan if bad == "nan" else 1.5
        with pytest.raises(FrameError):
            shadow_masks(frame)

    def test_one_dimensional_input_raises(self):
        with pytest.raises(FrameError):
            shadow_masks(np.zeros(8))

    @pytest.mark.parametrize("sigma", [np.nan, np.inf, -np.inf, -1e-300])
    def test_sigma_that_is_not_finite_and_nonnegative_raises(self, sigma):
        frame = np.random.default_rng(8).random((8, 8, 3))
        with pytest.raises(ShadowError, match="sigma"):
            sh._edge_strength(frame[..., 0], sigma)
        with pytest.raises(ShadowError, match="sigma"):
            shadow_masks(frame, sigma=sigma)
        with pytest.raises(ShadowError, match="sigma"):
            sh.remove_shadow(frame, sigma=sigma)


def _penumbra_by_ndimage(hs, penumbra):
    """The penumbra band as ndimage builds it, the reference of the slice
    dilation; at penumbra 0 it is HS itself, since iterations=0 would
    dilate until nothing changes."""
    if penumbra > 0 and hs.any():
        return ndimage.binary_dilation(hs, iterations=penumbra)
    return hs.copy()


class TestHardShadowMask:
    def test_truth_table(self):
        e_ori = np.array([[0.9, 0.9], [0.1, 0.9]])
        e_i1 = np.array([[0.0, 0.5], [0.0, 0.05]])
        e_i2 = np.array([[0.05, 0.5], [0.0, 0.5]])
        hs = hard_shadow_mask(e_ori, e_i1, e_i2, t1=0.3, t2=0.1)
        # only pixels strong in original AND weak in min(invariants)
        assert hs.tolist() == [[True, False], [False, True]]

    def test_bad_thresholds_error(self):
        e = np.zeros((2, 2))
        with pytest.raises(ShadowError):
            hard_shadow_mask(e, e, e, t1=0.1, t2=0.3)

    def test_intensity_only_edge_flagged(self):
        # gray frame with a darker gray region: original edge, no
        # chromaticity edge anywhere
        frame = np.full((24, 24, 3), 0.7)
        frame[8:16, 8:16] *= 0.5
        masks = shadow_masks(frame, sigma=1.0)
        assert masks.HS.any()

    def test_material_edge_not_flagged(self):
        # red square on green background: strong chromaticity edge too
        frame = np.zeros((24, 24, 3))
        frame[..., 1] = 0.7
        frame[8:16, 8:16] = (0.7, 0.0, 0.0)
        masks = shadow_masks(frame, sigma=1.0)
        assert not masks.HS.any()

    def test_penumbra_is_dilation(self):
        frame = np.full((24, 24, 3), 0.7)
        frame[8:16, 8:16] *= 0.5
        m = shadow_masks(frame, sigma=1.0, penumbra=2)
        assert m.VS.sum() > m.HS.sum()
        assert not (m.HS & ~m.VS).any()

    @pytest.mark.parametrize("penumbra", [0, 1, 2, 3])
    def test_penumbra_band_contains_hard_edges(self, penumbra):
        # split_shadow masks VS alone, so VS must keep every HS pixel.
        rng = np.random.default_rng(penumbra)
        noise = [rng.random((24, 24, 3)) for _ in range(4)]
        scene = build_scene("shadowed", 6, seed=penumbra, noise=0.01)
        frames = noise + generate_synthetic(scene, 6)[0]
        fired = 0
        for frame in frames:
            m = shadow_masks(frame, sigma=1.0, penumbra=penumbra)
            assert not (m.HS & ~m.VS).any()
            if penumbra == 0:
                assert np.array_equal(m.VS, m.HS)
            fired += int(m.HS.any())
        assert fired == len(frames)  # hard edges fire on every frame, so the check bites

    @pytest.mark.parametrize("penumbra", [0, 1, 2, 3])
    @pytest.mark.parametrize("shape", [(1, 1), (1, 9), (9, 1), (2, 2), (7, 5), (24, 31)])
    def test_penumbra_band_matches_ndimage_dilation(self, monkeypatch, shape, penumbra):
        rng = np.random.default_rng(penumbra)
        masks = [rng.random(shape) < density for density in (0.05, 0.2, 0.5)]
        border = np.zeros(shape, bool)
        border[[0, -1], :] = border[:, [0, -1]] = True
        masks += [border, ~border, np.zeros(shape, bool), np.ones(shape, bool)]
        frame = rng.random(shape + (3,))
        for hs in masks:
            monkeypatch.setattr(sh, "hard_shadow_mask", lambda *args: hs.copy())
            m = shadow_masks(frame, penumbra=penumbra)
            assert m.HS.tobytes() == hs.tobytes()
            assert m.VS.tobytes() == _penumbra_by_ndimage(hs, penumbra).tobytes()

    @pytest.mark.parametrize("penumbra", [0, 2, 3])
    @pytest.mark.parametrize("sigma", [0.0, 1.0, 2.0])
    def test_masks_match_the_hypot_magnitude_on_the_shadowed_scene(self, sigma, penumbra):
        # The edge magnitude is the root of the summed squares, not hypot's;
        # on the shadowed scene the thresholded masks do not tell them apart.
        fired = 0
        for seed in range(6):
            scene = build_scene("shadowed", 6, seed=seed, noise=0.01)
            for frame in generate_synthetic(scene, 6)[0]:
                inv = np.clip(_invariant_images(frame), 0.0, 1.0)
                planes = np.stack([fio.to_grayscale(frame), inv[..., 0], inv[..., 1]])
                hs = hard_shadow_mask(*_hypot_edge_strength(planes, sigma))
                m = shadow_masks(frame, sigma=sigma, penumbra=penumbra)
                assert m.HS.tobytes() == hs.tobytes()
                assert m.VS.tobytes() == _penumbra_by_ndimage(hs, penumbra).tobytes()
                fired += int(hs.any())
        assert fired  # hard edges fire, so the comparison bites

    @pytest.mark.parametrize("penumbra", [-3, 1.5, 2.0, "2", None])
    def test_penumbra_that_is_not_a_nonnegative_int_raises(self, penumbra):
        frame = np.random.default_rng(9).random((8, 8, 3))
        with pytest.raises(ShadowError, match="penumbra"):
            shadow_masks(frame, penumbra=penumbra)
        with pytest.raises(ShadowError, match="penumbra"):
            sh.remove_shadow(frame, penumbra=penumbra)


class TestGradients:
    def test_forward_difference_values(self):
        f = np.array([[0.0, 1.0, 3.0], [2.0, 2.0, 2.0]])
        g = forward_gradient(f)
        assert g.gx.tolist() == [[1.0, 2.0, 0.0], [0.0, 0.0, 0.0]]
        assert g.gy.tolist() == [[2.0, 1.0, -1.0], [0.0, 0.0, 0.0]]

    def test_masked_gradient_kills_step(self):
        # a one-pixel-wide mask on a step edge keeps both samples that touch
        # it, so the step survives, and zeroes every other sample
        f = np.random.default_rng(2).random((4, 6))
        f[:, 3:] += 1.0
        mask = np.zeros((4, 6), bool)
        mask[:, 3] = True
        full = forward_gradient(f)
        g = masked_gradient(full, mask)
        touching = np.zeros((4, 6), bool)
        touching[:, 2:4] = True  # column 2: right endpoint masked; column 3: left
        assert np.array_equal(g.gx[touching], full.gx[touching])
        assert (g.gx[:, 2] > 0.0).all()
        assert not g.gx[~touching].any()
        assert np.array_equal(g.gy[mask], full.gy[mask])
        assert not g.gy[~mask].any()

    def test_mask_shape_mismatch_errors(self):
        with pytest.raises(ShadowError):
            masked_gradient(forward_gradient(np.zeros((4, 4))), np.zeros((3, 4), bool))

    def test_divergence_adjointness(self):
        # <div g, u> == -<g, grad u> over interior supports (discrete
        # integration by parts); checked numerically on random fields
        rng = np.random.default_rng(3)
        for _ in range(5):
            u = rng.random((7, 9))
            g = GradientField(gx=rng.random((7, 9)), gy=rng.random((7, 9)))
            g.gx[:, -1] = 0.0
            g.gy[-1, :] = 0.0
            gu = forward_gradient(u)
            lhs = float((divergence(g) * u).sum())
            rhs = -float((g.gx * gu.gx + g.gy * gu.gy).sum())
            assert lhs == pytest.approx(rhs, abs=1e-10)

    @pytest.mark.parametrize("shape", [(1, 1), (1, 5), (5, 1), (2, 2), (64, 64),
                                       (37, 91)])
    def test_divergence_matches_copy_and_zero_form(self, shape):
        """divergence reads the support through slices; the form that copies
        gx and gy and zeroes the column and row outside it is the oracle, bit
        for bit, at magnitudes 1e-8 to 1e7 and with NaN where nothing reads."""
        def by_copy(g):
            gx, gy = g.gx.copy(), g.gy.copy()
            gx[:, -1] = 0.0
            gy[-1, :] = 0.0
            div = np.zeros_like(gx)
            div += gx
            div[:, 1:] -= gx[:, :-1]
            div += gy
            div[1:, :] -= gy[:-1, :]
            return div

        rng = np.random.default_rng(11)
        for scale in (1e-8, 1e-3, 1.0, 1e4, 1e7):
            for _ in range(10):
                g = GradientField(gx=rng.standard_normal(shape) * scale,
                                  gy=rng.standard_normal(shape) * scale)
                g.gx[:, -1] = np.nan
                g.gy[-1, :] = np.nan
                assert divergence(g).tobytes() == by_copy(g).tobytes()


class TestPoisson:
    def test_roundtrip_recovers_field(self):
        # integrate the gradient of a known zero-mean field
        rng = np.random.default_rng(4)
        f = rng.random((24, 24))
        f -= f.mean()
        s = poisson_reconstruct(forward_gradient(f))
        assert np.abs(s - f).max() < 1e-3

    def test_zero_field_returns_zero(self):
        g = GradientField(gx=np.zeros((8, 8)), gy=np.zeros((8, 8)))
        assert not poisson_reconstruct(g).any()

    def test_solution_zero_mean(self):
        rng = np.random.default_rng(5)
        f = rng.random((12, 12))
        s = poisson_reconstruct(forward_gradient(f))
        assert abs(s.mean()) < 1e-9

    def test_linearity(self, monkeypatch):
        monkeypatch.setattr(sh, "POISSON_TOL", 1e-9)
        rng = np.random.default_rng(6)
        f1 = rng.random((12, 12))
        f2 = rng.random((12, 12))
        g1, g2 = forward_gradient(f1), forward_gradient(f2)
        g12 = GradientField(gx=g1.gx + g2.gx, gy=g1.gy + g2.gy)
        s = poisson_reconstruct(g12)
        s1 = poisson_reconstruct(g1)
        s2 = poisson_reconstruct(g2)
        assert np.abs(s - (s1 + s2)).max() < 1e-4

    @pytest.mark.parametrize("shape", [(32, 32), (64, 337)], ids=["32x32", "64x337"])
    def test_roundtrip_is_exact(self, shape):
        rng = np.random.default_rng(7)
        f = rng.random(shape)
        f -= f.mean()
        s = poisson_reconstruct(forward_gradient(f))
        assert np.abs(s - f).max() < 1e-10

    @pytest.mark.parametrize("shape", [(1, 1), (1, 5), (5, 1), (2, 2), (64, 64), (37, 91)])
    def test_eigenvalues_match_the_inline_formula_and_are_read_only(self, shape):
        h, w = shape
        eig = (2.0 * np.cos(np.pi * np.arange(h) / h)[:, None]
               + 2.0 * np.cos(np.pi * np.arange(w) / w) - 4.0)
        eig[0, 0] = 1.0
        cached = sh._eigenvalues(shape)
        assert cached.tobytes() == eig.tobytes()
        assert sh._eigenvalues(shape) is cached
        with pytest.raises(ValueError):
            cached[0, 0] = 0.0

    def test_matches_the_fresh_array_solve_bit_for_bit(self):
        fired = 0
        for seed in (0, 1):
            frames = generate_synthetic(build_scene("shadowed", 8, seed=seed, noise=0.01), 8)[0]
            for frame in frames:
                masks = shadow_masks(frame)
                fired += int(masks.VS.any())
                i_log = np.log(fio.to_grayscale(frame) + sh.LOG_OFFSET)
                g = masked_gradient(forward_gradient(i_log), masks.VS)
                b = divergence(g)
                b = b - b.mean()
                coef = fft.dctn(b, type=2, norm="ortho") / sh._eigenvalues(b.shape)
                coef[0, 0] = 0.0
                want = fft.idctn(coef, type=2, norm="ortho")
                assert poisson_reconstruct(g).tobytes() == want.tobytes()
        assert fired

    def test_nan_input_raises_with_residual(self):
        g = forward_gradient(np.random.default_rng(7).random((16, 16)))
        g.gx[5, 5] = np.nan
        with pytest.raises(PoissonConvergenceError) as exc:
            poisson_reconstruct(g)
        assert np.isnan(exc.value.residual)


class TestSplitShadow:
    def _shadow_frame(self):
        obj = SceneObject(shape="rect", trajectory=[(14, 20, 12, 12)],
                          albedo=(0.85, 0.3, 0.25),
                          shadow_offset=(4, 10))
        scene = SyntheticScene(width=48, height=48, background=0.6,
                               objects=[obj], noise_sigma=0.0)
        frames, truth = generate_synthetic(scene, 1)
        return frames[0], truth[0]

    def test_components_multiply_back(self):
        # S * R must reproduce exp(log frame) up to a global scale
        frame, _ = self._shadow_frame()
        masks = shadow_masks(frame, sigma=1.0)
        S, R = split_shadow(masks)
        gray = fio.to_grayscale(frame) + sh.LOG_OFFSET
        prod = S * R
        ratio = gray / prod
        assert ratio.std() / ratio.mean() < 1e-6

    def test_remove_shadow_decodes_8bit_pixels_once(self, monkeypatch):
        frame, _ = self._shadow_frame()
        pixels = np.rint(frame * 255.0).astype(np.uint8)
        decoded = pixels / 255.0
        _, R = split_shadow(shadow_masks(decoded, sigma=1.0))
        checked = []
        validate = fio._validate

        def spy(frame, *args):
            checked.append(np.asarray(frame).dtype)
            return validate(frame, *args)

        monkeypatch.setattr(fio, "_validate", spy)
        assert sh.remove_shadow(pixels, sigma=1.0).tobytes() == R.tobytes()
        assert checked.count(np.uint8) == 1

    def test_remove_shadow_converts_and_checks_the_frame_once(self, monkeypatch):
        frame, _ = self._shadow_frame()
        expected = split_shadow(shadow_masks(frame, sigma=1.0))[1]
        checked, converted = [], []
        validate, luma = fio._validate, sh._luma

        def check_spy(frame, kind, *args):
            checked.append(kind)
            return validate(frame, kind, *args)

        def luma_spy(frame):
            converted.append(frame.shape)
            return luma(frame)

        monkeypatch.setattr(fio, "_validate", check_spy)
        monkeypatch.setattr(sh, "_luma", luma_spy)
        assert sh.remove_shadow(frame, sigma=1.0).tobytes() == expected.tobytes()
        # the RGB frame once, in shadow_masks; split_shadow takes its gray as made
        assert checked == ["RGB"]
        assert converted == [frame.shape]

    @staticmethod
    def _split_by_subtraction(frame, masks):
        """The split_shadow that built the shadow-free field (the log-image
        gradient zeroed under VS) and integrated full - free, kept as the
        oracle of the solve that integrates the samples under VS alone."""
        i_log = np.log(fio.to_grayscale(frame) + sh.LOG_OFFSET)
        full = forward_gradient(i_log)
        kill_x = masks.VS.copy()
        kill_x[:, :-1] |= masks.VS[:, 1:]
        kill_y = masks.VS.copy()
        kill_y[:-1, :] |= masks.VS[1:, :]
        free = GradientField(gx=np.where(kill_x, 0.0, full.gx),
                             gy=np.where(kill_y, 0.0, full.gy))
        s = poisson_reconstruct(GradientField(gx=full.gx - free.gx, gy=full.gy - free.gy))
        return np.exp(s - s.max()), np.minimum(np.exp(i_log - s), 1.0)

    def test_split_matches_the_full_minus_free_solve(self):
        frames = []
        for seed in (0, 1, 2):
            scene = build_scene("shadowed", 8, seed=seed, noise=0.01)
            frames += generate_synthetic(scene, 8)[0]
        white = frames[-1].copy()
        white[3, 5] = 1.0
        white[12:16, 12:16] = 1.0
        flat = np.full((24, 24, 3), 0.5)
        flat[3, 5] = flat[12:16, 12:16] = 1.0
        fired = 0
        for frame in frames + [white, flat]:
            masks = shadow_masks(frame)
            fired += int(masks.VS.any())
            S, R = split_shadow(masks)
            S_old, R_old = self._split_by_subtraction(frame, masks)
            assert S.tobytes() == S_old.tobytes()
            assert R.tobytes() == R_old.tobytes()
        assert fired >= len(frames)  # the mask bites on every shadowed frame

    @pytest.mark.parametrize("scene", ["shadowed", "two_rect"])
    def test_matches_the_fresh_array_split_bit_for_bit(self, scene):
        frames = generate_synthetic(build_scene(scene, 8, seed=2, noise=0.01), 8)[0]
        for frame in frames:
            masks = shadow_masks(frame)
            i_log = np.log(fio.to_grayscale(frame) + sh.LOG_OFFSET)
            s = poisson_reconstruct(masked_gradient(forward_gradient(i_log), masks.VS))
            S, R = split_shadow(masks)
            assert S.tobytes() == np.exp(s - s.max()).tobytes()
            assert R.tobytes() == np.minimum(np.exp(i_log - s), 1.0).tobytes()

    def test_empty_mask_gives_flat_shadow_image(self):
        rng = np.random.default_rng(8)
        frame = np.clip(rng.random((16, 16, 3)) * 0.3 + 0.4, 0, 1)
        masks = shadow_masks(frame, sigma=1.0, t1=0.999999, t2=0.0)
        assert not masks.VS.any()  # thresholds chosen so nothing fires
        S, _ = split_shadow(masks)
        assert np.allclose(S, 1.0)

    def test_shadow_region_attenuated_in_s(self):
        frame, truth = self._shadow_frame()
        shadow_px = rle_decode(truth["shadow_rle"], frame.shape[:2])
        masks = shadow_masks(frame, sigma=1.0)
        S, R = split_shadow(masks)
        lit = ~shadow_px
        # interior of the shadow should be darker in S than lit background
        inner = ndimage.binary_erosion(shadow_px, iterations=2)
        if inner.any():
            assert S[inner].mean() < S[lit].mean() - 0.1


def _remove_shadow_by_old_pieces(frame, sigma=1.0, penumbra=2):
    """remove_shadow built from the forms the per-frame steps replaced: a
    stacked copy of the planes, the per-plane ndimage Sobel reference,
    ndimage's dilation and eigenvalues computed inline on every call."""
    frame = fio.validate_rgb(frame)
    inv = np.clip(_invariant_images(frame), 0.0, 1.0)
    planes = np.stack([fio.to_grayscale(frame), inv[..., 0], inv[..., 1]])
    e_ori, e1, e2 = [_edge_strength_per_plane(p, sigma) for p in planes]
    vs = _penumbra_by_ndimage(hard_shadow_mask(e_ori, e1, e2), penumbra)
    i_log = np.log(fio.to_grayscale(frame) + sh.LOG_OFFSET)
    b = divergence(masked_gradient(forward_gradient(i_log), vs))
    b = b - b.mean()
    s = np.zeros_like(b)
    if np.sqrt((b ** 2).sum()) > 0.0:
        h, w = b.shape
        eig = (2.0 * np.cos(np.pi * np.arange(h) / h)[:, None]
               + 2.0 * np.cos(np.pi * np.arange(w) / w) - 4.0)
        eig[0, 0] = 1.0
        coef = fft.dctn(b, type=2, norm="ortho") / eig
        coef[0, 0] = 0.0
        s = fft.idctn(coef, type=2, norm="ortho")
    return np.minimum(np.exp(i_log - s), 1.0)


@pytest.mark.parametrize("scene", ["shadowed", "two_rect"])
def test_remove_shadow_matches_the_old_pieces_bit_for_bit(scene):
    fired = 0
    for seed in (0, 1):
        frames = generate_synthetic(build_scene(scene, 6, seed=seed, noise=0.01), 6)[0]
        for frame in frames[::2]:
            for settings in ({}, {"sigma": 0.0, "penumbra": 0}, {"sigma": 1.5, "penumbra": 3}):
                fired += int(shadow_masks(frame, **settings).VS.any())
                for pixels in (frame, np.rint(frame * 255.0).astype(np.uint8)):
                    expected = _remove_shadow_by_old_pieces(pixels, **settings)
                    got = sh.remove_shadow(pixels, **settings)
                    assert got.tobytes() == expected.tobytes()
    assert fired  # some frame has a shadow edge, so the solve is not trivially flat


class TestShadowEnabledDetection:
    @staticmethod
    def _detect(frames, truth, enabled):
        """Mean mask F1 and the share of mask pixels on shadow, after burn-in."""
        cfg = merge_config({"shadow": {"enabled": enabled}})
        f1s, on_shadow, predicted = [], 0, 0
        for res, tr in zip(detect_sequence(frames, cfg), truth):
            if res.frame < cfg["background"]["burn_in"]:
                continue
            shape = tuple(tr["shape"])
            f1s.append(mask_f1(res.mask, rle_decode(tr["motion_rle"], shape)))
            on_shadow += int((res.mask & rle_decode(tr["shadow_rle"], shape)).sum())
            predicted += int(res.mask.sum())
        return float(np.mean(f1s)), on_shadow / predicted

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_removal_keeps_mask_off_shadow_without_losing_f1(self, seed):
        scene = build_scene("shadowed", 40, seed=seed, noise=0.01)
        frames, truth = generate_synthetic(scene, 40)
        f1_off, share_off = self._detect(frames, truth, enabled=False)
        f1_on, share_on = self._detect(frames, truth, enabled=True)
        assert share_on <= 0.25 * share_off
        assert f1_on >= f1_off - 0.05

    @staticmethod
    def _gray_object_frames():
        """8 RGB frames: a 0.8-gray 24x16 rectangle moving 8 px a frame over
        0.3 gray, noise sigma 0.02; it has no chromaticity edge at all."""
        rng = np.random.default_rng(0)
        frames = []
        for t in range(8):
            frame = np.full((64, 96, 3), 0.3)
            frame[24:40, 8 + 8 * t:32 + 8 * t] = 0.8
            frames.append(np.clip(frame + rng.normal(0.0, 0.02, frame.shape), 0.0, 1.0))
        return frames

    @staticmethod
    def _frames_with_blobs(frames, enabled):
        cfg = merge_config({"shadow": {"enabled": enabled}, "background": {"burn_in": 1}})
        return [res.frame for res in detect_sequence(frames, cfg) if res.blobs]

    def test_without_removal_the_gray_object_is_found(self):
        assert self._frames_with_blobs(self._gray_object_frames(), False) == list(range(1, 8))

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="an intensity step with no chromaticity step passes "
                              "hard_shadow_mask as an illumination edge, so the solve "
                              "integrates the object's own outline away")
    def test_removal_keeps_an_achromatic_moving_object(self):
        assert self._frames_with_blobs(self._gray_object_frames(), True) == list(range(1, 8))

    def test_white_pixels_stay_valid_intensities(self):
        # No shadow edge fires on these frames, so s = 0 and a white pixel
        # alone would push exp(log(gray + LOG_OFFSET)) above 1.
        frames = np.full((4, 24, 24, 3), 0.5)
        frames[:, 3, 5] = 1.0
        frames[2:, 12:16, 12:16] = 1.0
        cfg = merge_config({"shadow": {"enabled": True}})
        results = detect_sequence(frames, cfg)
        assert [res.frame for res in results] == [0, 1, 2, 3]
        _, R = split_shadow(shadow_masks(frames[0]))
        assert R.max() <= 1.0


class TestExtractBlobs:
    def test_two_components_sorted_by_area(self):
        m = np.zeros((20, 20), bool)
        m[2:6, 2:6] = True      # 16 px
        m[10:18, 10:18] = True  # 64 px
        blobs = extract_blobs(m, min_area=1)
        assert [b.area for b in blobs] == [64, 16]
        assert blobs[0].bbox == (10, 10, 8, 8)
        assert blobs[1].centroid == (3.5, 3.5)

    def test_min_area_filters(self):
        m = np.zeros((10, 10), bool)
        m[1, 1] = True
        m[4:8, 4:8] = True
        blobs = extract_blobs(m, min_area=4)
        assert len(blobs) == 1 and blobs[0].area == 16

    def test_diagonal_pixels_connect(self):
        m = np.zeros((6, 6), bool)
        m[1, 1] = m[2, 2] = m[3, 3] = True
        assert len(extract_blobs(m, min_area=1)) == 1

    def test_empty_mask(self):
        assert extract_blobs(np.zeros((5, 5), bool)) == []
