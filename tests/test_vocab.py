import tracemalloc

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from test_acceptance import _oriented_texture
from vvtrack import vocab
from vvtrack.vocab import (Codebook, VocabularyError, bow_histogram,
                           build_pyramid, extract_descriptors, kmeans, pmk,
                           quantize)


def _reference_cell_weights(patch):
    """(16, patch, patch) bilinear weight of each pixel into each of the 4x4 cells."""
    coords = (np.arange(patch) + 0.5) / (patch / 4.0) - 0.5
    lo = np.floor(coords).astype(int)
    frac = coords - lo
    w = np.zeros((16, patch, patch))
    for cy in range(4):
        wy = np.where(lo == cy, 1.0 - frac, 0.0) + np.where(lo == cy - 1, frac, 0.0)
        for cx in range(4):
            wx = np.where(lo == cx, 1.0 - frac, 0.0) + np.where(lo == cx - 1, frac, 0.0)
            w[cy * 4 + cx] = wy[:, None] * wx[None, :]
    return w


def _reference_descriptors(frame, grid_stride, patch):
    """Reference: one descriptor per grid point, accumulated pixel by pixel.

    Returns (vectors, xs, ys, scales) in row-major grid order.
    """
    h, w = frame.shape
    gy, gx = np.gradient(frame)
    mag = np.hypot(gx, gy)
    obin = np.mod(np.arctan2(gy, gx), 2.0 * np.pi) / (2.0 * np.pi) * 8.0
    b0 = np.floor(obin).astype(int) % 8
    b1 = (b0 + 1) % 8
    f1 = obin - np.floor(obin)
    f0 = 1.0 - f1
    cell_w = _reference_cell_weights(patch)
    half = patch // 2
    vectors, xs, ys, scales = [], [], [], []
    for cy in range(half, h - patch + half + 1, grid_stride):
        for cx in range(half, w - patch + half + 1, grid_stride):
            sl = (slice(cy - half, cy - half + patch),
                  slice(cx - half, cx - half + patch))
            vec = np.zeros((16, 8))
            pm0, pm1 = mag[sl] * f0[sl], mag[sl] * f1[sl]
            for c in range(16):
                np.add.at(vec[c], b0[sl].ravel(), (cell_w[c] * pm0).ravel())
                np.add.at(vec[c], b1[sl].ravel(), (cell_w[c] * pm1).ravel())
            vec = vec.ravel()
            norm = np.linalg.norm(vec)
            if norm > 0:
                vec = np.minimum(vec / norm, vocab.CLIP)
                norm2 = np.linalg.norm(vec)
                if norm2 > 0:
                    vec = vec / norm2
            vectors.append(vec)
            xs.append(float(cx))
            ys.append(float(cy))
            scales.append(float(patch))
    return np.array(vectors), xs, ys, scales


def _vectors_of_planes(planes, grid_stride, patch):
    """extract_descriptors' vectors from its (8, H, W) orientation planes."""
    weights = vocab._cell_weights(patch)
    rows = sliding_window_view(planes, patch, axis=1)[:, ::grid_stride] @ weights
    cells = sliding_window_view(rows, patch, axis=2)[:, :, ::grid_stride] @ weights
    ny, nx = cells.shape[1:3]
    vectors = cells.transpose(1, 2, 3, 4, 0).reshape(ny * nx, vocab.DESCRIPTOR_DIM)
    return vocab._unit_rows(np.minimum(vocab._unit_rows(vectors), vocab.CLIP))


def _orientation_bins(frame):
    """Gradient magnitude, lower orientation bin and the fraction past it."""
    gy, gx = np.gradient(frame)
    mag = np.hypot(gx, gy)
    obin = np.mod(np.arctan2(gy, gx), 2.0 * np.pi) / (2.0 * np.pi) * 8.0
    return mag, np.floor(obin).astype(int) % 8, obin - np.floor(obin)


def _where_descriptor_vectors(frame, grid_stride=8, patch=16):
    """Oracle: extract_descriptors' vectors, its orientation planes built by
    one np.where compare per bin instead of two scatters."""
    mag, b0, f1 = _orientation_bins(frame)
    bins = np.arange(8)[:, None, None]
    planes = (np.where(b0 == bins, mag * (1.0 - f1), 0.0)
              + np.where((b0 + 1) % 8 == bins, mag * f1, 0.0))
    return _vectors_of_planes(planes, grid_stride, patch)


def _along_axis_descriptor_vectors(frame, grid_stride=8, patch=16):
    """Oracle: extract_descriptors' vectors, its orientation planes scattered
    by np.put_along_axis rather than by flat index."""
    mag, b0, f1 = _orientation_bins(frame)
    planes = np.zeros((8,) + frame.shape)
    np.put_along_axis(planes, b0[None], (mag * (1.0 - f1))[None], axis=0)
    np.put_along_axis(planes, (b0[None] + 1) % 8, (mag * f1)[None], axis=0)
    return _vectors_of_planes(planes, grid_stride, patch)


def _ramp_blocks():
    """Eight 16x16 ramps whose gradients point at the 8 bin edges, k * 45 degrees,
    between flat blocks."""
    frame = np.full((48, 64), 0.5)
    yy, xx = np.mgrid[0:16, 0:16]
    for k, (a, b) in enumerate([(1, 0), (1, 1), (0, 1), (-1, 1),
                                (-1, 0), (-1, -1), (0, -1), (1, -1)]):
        y, x = 32 * (k // 4), 16 * (k % 4)
        frame[y:y + 16, x:x + 16] = 0.5 + 0.01 * (a * xx + b * yy)
    return frame


class TestExtractDescriptors:
    @pytest.mark.parametrize("shape,stride,patch", [
        ((64, 64), 8, 16), ((240, 320), 8, 16), ((33, 47), 3, 8),
        ((64, 64), 5, 12), ((16, 16), 16, 16), ((21, 26), 2, 5),
    ])
    def test_matches_per_point_reference(self, shape, stride, patch):
        frame = np.random.default_rng(17).random(shape)
        frame[:, :shape[1] // 3] = 0.5  # flat patches give all-zero rows
        descs = extract_descriptors(frame, grid_stride=stride, patch=patch)
        vectors, xs, ys, scales = _reference_descriptors(frame, stride, patch)
        assert isinstance(descs, np.recarray) and descs.dtype == vocab.DESCRIPTOR
        assert descs.vector.shape == vectors.shape
        assert np.abs(descs.vector - vectors).max() <= 1e-12
        assert descs.x.tolist() == xs
        assert descs.y.tolist() == ys
        assert descs.scale.tolist() == scales

    def test_grid_count_and_geometry(self):
        rng = np.random.default_rng(0)
        frame = rng.random((64, 64))
        descs = extract_descriptors(frame, grid_stride=8, patch=16)
        # centers every 8 px from 8 to 56 inclusive -> 7x7 grid
        assert len(descs) == 49
        xs = sorted({d.x for d in descs})
        assert xs == [8.0, 16.0, 24.0, 32.0, 40.0, 48.0, 56.0]
        assert all(d.scale == 16.0 for d in descs)

    def test_vector_properties(self):
        rng = np.random.default_rng(1)
        descs = extract_descriptors(rng.random((32, 32)), grid_stride=8)
        for d in descs:
            assert d.vector.shape == (128,)
            assert np.linalg.norm(d.vector) == pytest.approx(1.0)
            assert d.vector.min() >= 0.0
            assert d.vector.max() <= 1.0 + 1e-12

    def test_flat_patch_zero_vector(self):
        descs = extract_descriptors(np.full((16, 16), 0.5), grid_stride=16)
        assert len(descs) == 1
        assert not descs[0].vector.any()

    def test_rotation_changes_orientation_bins(self):
        # a vertical step and its transpose put mass in different bins
        frame = np.zeros((16, 16))
        frame[:, 8:] = 1.0
        v1 = extract_descriptors(frame, grid_stride=16)[0].vector
        v2 = extract_descriptors(frame.T.copy(), grid_stride=16)[0].vector
        assert not np.allclose(v1, v2)

    def test_brightness_offset_invariance(self):
        rng = np.random.default_rng(2)
        frame = rng.random((16, 16)) * 0.5
        v1 = extract_descriptors(frame, grid_stride=16)[0].vector
        v2 = extract_descriptors(frame + 0.3, grid_stride=16)[0].vector
        assert np.allclose(v1, v2, atol=1e-12)

    def test_contrast_scale_invariance(self):
        rng = np.random.default_rng(3)
        frame = rng.random((16, 16)) * 0.4
        v1 = extract_descriptors(frame, grid_stride=16)[0].vector
        v2 = extract_descriptors(frame * 2.0, grid_stride=16)[0].vector
        assert np.allclose(v1, v2, atol=1e-9)

    @pytest.mark.parametrize("frame", [
        _ramp_blocks(),
        np.where(np.random.default_rng(30).random((40, 40)) < 0.5, 0.25, 0.75),
        np.pad(np.random.default_rng(31).random((24, 24)), 12, constant_values=0.3),
        np.rint(_oriented_texture("diag", np.random.default_rng(32)) * 255.0) / 255.0,
    ], ids=["bin-edge-ramps", "two-level", "flat-border", "8-bit-texture"])
    def test_scattered_planes_match_where_form(self, frame):
        assert not np.hypot(*np.gradient(frame)).all()  # flat pixels, at angle 0
        vectors = extract_descriptors(frame).vector
        assert vectors.tobytes() == _where_descriptor_vectors(frame).tobytes()

    @pytest.mark.parametrize("frame,stride,patch", [
        (_ramp_blocks(), 8, 16),
        (np.random.default_rng(33).random((17, 33)), 3, 8),
        (np.random.default_rng(34).random((240, 320)), 8, 16),
        (np.full((40, 40), 0.3), 8, 16),
        (np.rint(_oriented_texture("horiz", np.random.default_rng(35)) * 255) / 255, 8, 16),
    ], ids=["bin-edge-ramps", "17x33", "240x320", "flat", "8-bit-texture"])
    def test_flat_index_scatter_matches_put_along_axis(self, frame, stride, patch):
        vectors = extract_descriptors(frame, grid_stride=stride, patch=patch).vector
        expected = _along_axis_descriptor_vectors(frame, stride, patch)
        assert vectors.tobytes() == expected.tobytes()

    def test_ramp_blocks_hit_every_bin_edge(self):
        gy, gx = np.gradient(_ramp_blocks())
        obin = np.mod(np.arctan2(gy, gx), 2.0 * np.pi) / (2.0 * np.pi) * 8.0
        on_edge = (obin == np.floor(obin)) & (np.hypot(gx, gy) > 0)
        assert sorted(set(obin[on_edge].tolist())) == [float(b) for b in range(8)]

    def test_small_frame_errors(self):
        with pytest.raises(VocabularyError):
            extract_descriptors(np.zeros((8, 8)), patch=16)


def _reference_lloyd(pts, k, rng, max_iter, reseeds):
    """Reference: k-means++ seeding by full differences, then Lloyd steps with a
    masked mean per cluster; empty clusters re-seeded in index order, between
    the means.  Appends each re-seeded cluster to reseeds."""
    n = pts.shape[0]
    centroids = np.empty((k, pts.shape[1]))
    centroids[0] = pts[rng.integers(n)]
    d2 = ((pts - centroids[0]) ** 2).sum(axis=1)
    for i in range(1, k):
        total = d2.sum()
        if total <= 0:
            centroids[i] = pts[rng.integers(n)]
        else:
            centroids[i] = pts[rng.choice(n, p=d2 / total)]
        d2 = np.minimum(d2, ((pts - centroids[i]) ** 2).sum(axis=1))
    assign = None
    for _ in range(max_iter):
        new_assign = vocab._nearest(pts, centroids)
        if assign is not None and np.array_equal(new_assign, assign):
            break
        assign = new_assign
        for c in range(k):
            members = pts[assign == c]
            if len(members):
                centroids[c] = members.mean(axis=0)
            else:
                worst = int(((pts - centroids[assign]) ** 2).sum(axis=1).argmax())
                centroids[c] = pts[worst]
                assign[worst] = c
                reseeds.append(c)
    return centroids


def _reference_kmeans(pts, k, seed, reseeds):
    """Reference: the restarts of kmeans over _reference_lloyd."""
    rng = np.random.default_rng(seed)
    best_words, best_sse = None, np.inf
    for _ in range(5):
        words = _reference_lloyd(pts, k, rng, 100, reseeds)
        sse = vocab._sse(pts, words, vocab._nearest(pts, words))
        if sse < best_sse:
            best_words, best_sse = words, sse
    return best_words


def _choice_seeds(pts, k, rng, fallbacks):
    """Oracle: one k-means++ seeding from rng, each D² pick drawn by rng.choice.
    Appends to fallbacks the index of each pick drawn by rng.integers because
    the weights ran out."""
    sq_norms = (pts ** 2).sum(axis=1)
    picks = [rng.integers(len(pts))]
    d2 = vocab._sq_dist(pts, pts[picks[0]][None], sq_norms)[:, 0]
    for _ in range(1, k):
        total = d2.sum()
        if total <= 0:
            fallbacks.append(len(picks))
            picks.append(rng.integers(len(pts)))
        else:
            picks.append(rng.choice(len(pts), p=d2 / total))
        np.minimum(d2, vocab._sq_dist(pts, pts[picks[-1]][None], sq_norms)[:, 0], out=d2)
    return pts[picks]


def _old_sq_dist(vectors, words):
    """Oracle: _sq_dist as it scaled the product by -2 after taking it."""
    d2 = vectors @ words.T
    d2 *= -2.0
    d2 += (vectors ** 2).sum(axis=1)[:, None]
    d2 += (words ** 2).sum(axis=1)
    return np.maximum(d2, 0.0, out=d2)


def _texture_vectors():
    """Non-zero descriptors of the train-vocab input of the CLI texture test:
    8 textures per class, stored as 8-bit PGM, read in file-name order."""
    rng = np.random.default_rng(0)
    images = {}
    for cls in ("horiz", "vert", "diag"):
        for k in range(8):
            image = np.rint(_oriented_texture(cls, rng) * 255.0) / 255.0
            images[f"{cls}_{k:02d}"] = image
    vectors = np.concatenate([extract_descriptors(images[name]).vector
                              for name in sorted(images)])
    return vectors[vectors.any(axis=1)]


def _near_twins():
    """30 rows of 3 random rows and their copies one ulp up: a restart runs out
    of weight at a pick that depends on which twin it took, so a later restart
    can run out while an earlier one still picks by weight."""
    rng = np.random.default_rng(103)
    base = rng.random((3, 4))
    return np.vstack([base, np.nextafter(base, 2.0)])[rng.integers(0, 6, 30)]


class TestKmeans:
    def test_separated_clusters_recovered(self):
        rng = np.random.default_rng(4)
        centers = np.array([[0.0, 0.0], [10.0, 0.0], [0.0, 10.0]])
        pts = np.vstack([c + rng.normal(0, 0.3, (40, 2)) for c in centers])
        cb = kmeans(pts, 3, seed=1)
        found = cb.words[np.argsort(cb.words.sum(axis=1))]
        # each true center within 0.5 of some found centroid
        for c in centers:
            assert np.sqrt(((found - c) ** 2).sum(axis=1)).min() < 0.5

    def test_deterministic_for_seed(self):
        rng = np.random.default_rng(5)
        pts = rng.random((100, 8))
        a = kmeans(pts, 5, seed=7)
        b = kmeans(pts, 5, seed=7)
        assert np.array_equal(a.words, b.words)

    def test_sse_beats_random_centroids(self):
        rng = np.random.default_rng(6)
        pts = rng.random((200, 4))
        cb = kmeans(pts, 8, seed=0)
        d_fit = ((pts[:, None] - cb.words[None]) ** 2).sum(axis=2).min(axis=1).sum()
        rand = rng.random((8, 4))
        d_rand = ((pts[:, None] - rand[None]) ** 2).sum(axis=2).min(axis=1).sum()
        assert d_fit < d_rand

    def test_k_equals_n_points(self):
        rng = np.random.default_rng(7)
        pts = rng.random((6, 3))
        cb = kmeans(pts, 6, seed=0)
        # every point should be its own centroid (SSE 0)
        d = ((pts[:, None] - cb.words[None]) ** 2).sum(axis=2).min(axis=1)
        assert d.max() < 1e-12

    @pytest.mark.parametrize("seed", [0, 1, 3])
    def test_words_match_reference_on_random_points(self, seed):
        pts = np.random.default_rng(seed).random((300, 16))
        expect = _reference_kmeans(pts, 12, seed, [])
        assert np.array_equal(kmeans(pts, 12, seed=seed).words, expect)

    def test_words_match_reference_on_texture_descriptors(self):
        # 1,176 descriptors, K = 200: a Lloyd step here empties a cluster,
        # which the reference re-seeds before the later means and kmeans after
        pts = _texture_vectors()
        reseeds = []
        expect = _reference_kmeans(pts, 200, 0, reseeds)
        assert pts.shape == (1176, 128) and reseeds
        assert np.array_equal(kmeans(pts, 200, seed=0).words, expect)

    @pytest.mark.parametrize("pts,k", [
        (np.random.default_rng(21).random((3, 16))[
            np.random.default_rng(22).integers(0, 3, 40)], 5),
        (np.repeat(np.random.default_rng(23).random((4, 8)), [1, 2, 3, 9], axis=0), 7),
        (np.zeros((10, 8)), 4),
    ], ids=["repeated-rows", "repeat-counts", "all-zero"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_fewer_distinct_points_than_k(self, pts, k, seed):
        cb = kmeans(pts, k, seed=seed)
        assert cb.words.shape == (k, pts.shape[1])
        assert (cb.words[:, None] == pts[None]).all(axis=2).any(axis=1).all()
        assert ((pts[:, None] - cb.words[None]) ** 2).sum(axis=2).min(axis=1).sum() == 0.0
        assert np.array_equal(kmeans(pts, k, seed=seed).words, cb.words)

    def test_lloyd_stops_when_a_step_returns_its_start(self, monkeypatch):
        # 40 rows with 3 distinct values and K = 5: a re-seeded empty cluster's
        # point goes back to its equal twin's cluster at the next assignment.
        pts = np.random.default_rng(21).random((3, 16))[
            np.random.default_rng(22).integers(0, 3, 40)]
        with monkeypatch.context() as one:
            one.setattr(vocab, "KMEANS_MAX_ITER", 1)
            one_step = kmeans(pts, 5, seed=0).words
        calls = []
        nearest = vocab._nearest

        def counting(*args):
            calls.append(args)
            return nearest(*args)

        monkeypatch.setattr(vocab, "_nearest", counting)
        words = kmeans(pts, 5, seed=0).words
        assert len(calls) <= 2 * 5  # seeding plus one Lloyd step per restart
        assert np.array_equal(words, one_step)

    @pytest.mark.parametrize("pts,n_init", [
        pytest.param(pts, n_init, id=name + ("" if n_init == 1 else "-5-restarts"))
        for n_init in (1, 5)
        for name, pts in [
            ("distinct", np.random.default_rng(24).random((50, 4))),
            ("zero-weights", np.random.default_rng(25).integers(0, 3, (30, 3)).astype(float)),
            ("one-non-zero", np.repeat([[1.0, 2.0], [4.0, 6.0]], [29, 1], axis=0))]])
    def test_seeding_draws_as_rng_choice(self, pts, n_init, monkeypatch):
        # 100 seeds x 10 picks: with no Lloyd step the words are the seeds of
        # the lowest-SSE restart, each restart seeded where the last left off
        monkeypatch.setattr(vocab, "KMEANS_MAX_ITER", 0)
        for seed in range(100):
            rng = np.random.default_rng(seed)
            seeds = [_choice_seeds(pts, 11, rng, []) for _ in range(n_init)]
            sse = [vocab._sse(pts, s, vocab._nearest(pts, s)) for s in seeds]
            words = kmeans(pts, 11, seed=seed, n_init=n_init).words
            assert np.array_equal(words, seeds[int(np.argmin(sse))])

    @pytest.mark.parametrize("pts,k,n_init,seeds,ran_out_in", [
        (np.random.default_rng(40).random((200, 16)), 12, 5, range(31), set()),
        (np.random.default_rng(41).random((30, 3)), 30, 2, range(31), set()),
        (np.random.default_rng(21).random((3, 16))[
            np.random.default_rng(22).integers(0, 3, 40)], 5, 5, range(31), {0, 1, 2, 3, 4}),
        (np.repeat([[1.0, 2.0], [4.0, 6.0]], [29, 1], axis=0), 2, 5, range(31), set()),
        (np.repeat([[1.0, 2.0], [4.0, 6.0]], [29, 1], axis=0), 3, 5, range(31),
         {0, 1, 2, 3, 4}),
        (np.zeros((10, 8)), 4, 3, range(31), {0, 1, 2}),
        (np.tile(np.random.default_rng(42).random((6, 5)), (5, 1)), 8, 4, range(31), set()),
        (_near_twins(), 7, 5, range(31), {0, 1, 2, 3, 4}),
        (_texture_vectors, 200, 5, range(2), set()),
    ], ids=["random", "k-equals-n", "three-rows", "one-non-zero", "two-rows", "all-zero",
            "six-rows", "near-twins", "texture-descriptors"])
    def test_seed_draws_as_rng_choice_across_restarts(self, pts, k, n_init, seeds,
                                                      ran_out_in):
        # equal seeds and an equal generator state after every restart, also
        # where a restart's weights run out and it draws rng.integers per pick
        pts = pts() if callable(pts) else pts
        sq_norms = (pts ** 2).sum(axis=1)
        ran_out = set()
        for seed in seeds:
            rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            for r in range(n_init):
                fallbacks = []
                expect = _choice_seeds(pts, k, oracle_rng, fallbacks)
                assert vocab._seed(pts, sq_norms, k, rng).tobytes() == expect.tobytes()
                assert rng.bit_generator.state == oracle_rng.bit_generator.state
                if fallbacks:
                    ran_out.add(r)
        assert ran_out == ran_out_in  # the restarts that ran out of weight

    def test_one_non_zero_weight_is_always_drawn(self, monkeypatch):
        # when the first pick is one of the 29 equal rows, the only point at a
        # non-zero distance carries all the weight of the second pick
        monkeypatch.setattr(vocab, "KMEANS_MAX_ITER", 0)
        pts = np.repeat([[1.0, 2.0], [4.0, 6.0]], [29, 1], axis=0)
        seeds = [kmeans(pts, 2, seed=s, n_init=1).words.tolist()
                 for s in range(40)]
        seconds = [w[1] for w in seeds if w[0] == [1.0, 2.0]]
        assert seconds and all(w == [4.0, 6.0] for w in seconds)

    def test_too_few_points_errors(self):
        with pytest.raises(VocabularyError):
            kmeans(np.zeros((3, 2)), 5)

    @pytest.mark.parametrize("k, n_init, message", [(0, 5, "k must be >= 1"),
                                                    (-1, 5, "k must be >= 1"),
                                                    (2, 0, "n_init must be >= 1")])
    def test_bad_counts_refused(self, k, n_init, message):
        pts = np.random.default_rng(25).random((10, 3))
        with pytest.raises(VocabularyError, match=message):
            kmeans(pts, k, n_init=n_init)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_points_refused(self, bad):
        pts = np.random.default_rng(26).random((20, 4))
        pts[7, 2] = bad
        with pytest.raises(VocabularyError, match="must be finite"):
            kmeans(pts, 3)

    def test_nearest_matches_direct_differences(self):
        rng = np.random.default_rng(9)
        pts = rng.random((500, 16))
        centroids = rng.random((40, 16))
        direct = ((pts[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
        assert np.array_equal(vocab._nearest(pts, centroids), direct.argmin(axis=1))

    def test_nearest_is_the_argmin_of_the_clamped_distances(self):
        # each centroid is a point and a copy one ulp off it: both distances
        # round to about zero, some below it, so clamping changes the argmin
        pts = np.random.default_rng(0).random((50, 16))
        centroids = np.vstack([np.nextafter(pts[:20], 2.0), pts[:20]])
        sums = vocab._sq_sums(pts, centroids)
        clamped = np.maximum(sums, 0.0).argmin(axis=1)
        assert (sums.min(axis=1) < 0).any() and (sums.argmin(axis=1) != clamped).any()
        assert vocab._nearest(pts, centroids).tolist() == clamped.tolist()
        assert vocab._nearest(pts, centroids).tolist() == _old_sq_dist(
            pts, centroids).argmin(axis=1).tolist()

    def test_sq_dist_matches_scaling_after_the_product(self):
        rng = np.random.default_rng(43)
        descriptors = _texture_vectors()
        for vectors, words in [(rng.random((300, 16)), rng.random((40, 16))),
                               (rng.normal(size=(100, 7)) * 1e3, rng.normal(size=(9, 7))),
                               (descriptors, descriptors[rng.choice(1176, 200)])]:
            assert vocab._sq_dist(vectors, words).tobytes() == \
                _old_sq_dist(vectors, words).tobytes()

    def test_assignment_memory_is_n_by_k(self, monkeypatch):
        # an (n, K, 128) temporary would be 2000 * 100 * 128 * 8 B = 205 MB
        monkeypatch.setattr(vocab, "KMEANS_MAX_ITER", 3)
        pts = np.random.default_rng(10).random((2000, 128))
        tracemalloc.start()
        try:
            kmeans(pts, 100, seed=0, n_init=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32e6

    def test_accepts_descriptor_vectors(self):
        rng = np.random.default_rng(8)
        frame = rng.random((32, 32))
        descs = extract_descriptors(frame, grid_stride=8)
        cb = kmeans(descs.vector, 2, seed=0)
        assert cb.words.shape == (2, 128)


def _argsort_quantize(vectors, codebook, m, sigma):
    """Oracle: quantize with its m nearest words taken from a stable argsort of all K."""
    d2 = vocab._sq_dist(vectors, codebook.words)
    order = np.argsort(d2, axis=1, kind="stable")
    nearest = order[:, :min(m, codebook.K)]
    weights = np.exp(-np.take_along_axis(d2, nearest, axis=1) / (2.0 * sigma * sigma))
    total = weights.sum(axis=1, keepdims=True)
    soft = np.zeros_like(d2)
    np.put_along_axis(soft, nearest, weights / np.where(total > 0, total, 1.0), axis=1)
    underflow = total[:, 0] == 0
    soft[underflow, order[underflow, 0]] = 1.0
    soft[~vectors.any(axis=1)] = 0.0
    return soft


def _along_axis_quantize(vectors, codebook):
    """Oracle: quantize with its picks and weights set and read by
    np.put_along_axis and np.take_along_axis rather than by direct indexing."""
    d2 = vocab._sq_dist(vectors, codebook.words)
    left = d2.copy()
    nearest = np.empty((len(d2), min(vocab.SOFT_NEIGHBORS, codebook.K)), dtype=np.intp)
    for j in range(nearest.shape[1]):
        nearest[:, j] = left.argmin(axis=1)
        np.put_along_axis(left, nearest[:, j:j + 1], np.inf, axis=1)
    weights = np.exp(-np.take_along_axis(d2, nearest, axis=1)
                     / (2.0 * vocab.SOFT_SIGMA * vocab.SOFT_SIGMA))
    total = weights.sum(axis=1, keepdims=True)
    soft = np.zeros_like(d2)
    np.put_along_axis(soft, nearest, weights / np.where(total > 0, total, 1.0), axis=1)
    underflow = total[:, 0] == 0
    soft[underflow, nearest[underflow, 0]] = 1.0
    soft[~vectors.any(axis=1)] = 0.0
    return soft


@pytest.fixture
def soft_assignment(monkeypatch):
    """Set quantize's neighbor count m and Gaussian width sigma for one test."""
    def set_(m=vocab.SOFT_NEIGHBORS, sigma=vocab.SOFT_SIGMA):
        monkeypatch.setattr(vocab, "SOFT_NEIGHBORS", m)
        monkeypatch.setattr(vocab, "SOFT_SIGMA", sigma)
    return set_


class TestQuantize:
    def _codebook(self):
        words = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        return Codebook(words=words, seed=0)

    def test_vector_length_must_match_words(self):
        with pytest.raises(VocabularyError, match="3-d vectors against a codebook of 2-d"):
            quantize(np.zeros((1, 3)), self._codebook())

    def test_hard_assignment_nearest(self, soft_assignment):
        # with one neighbor the weights are one-hot at the nearest word
        soft_assignment(m=1)
        soft = quantize(np.array([[0.9, 0.1]]), self._codebook())
        assert soft.tolist() == [[0.0, 1.0, 0.0, 0.0]]

    def test_hard_tie_lowest_index(self, soft_assignment):
        soft_assignment(m=1)
        soft = quantize(np.array([[0.5, 0.5]]), self._codebook())
        assert soft.tolist() == [[1.0, 0.0, 0.0, 0.0]]

    def test_soft_weights_sum_to_one(self, soft_assignment):
        soft_assignment(m=3)
        soft = quantize(np.array([[0.7, 0.2]]), self._codebook())
        assert soft.shape == (1, 4)
        assert soft.sum() == pytest.approx(1.0)
        assert np.count_nonzero(soft) <= 3

    def test_soft_matches_direct_gaussian(self, soft_assignment):
        soft_assignment(m=4, sigma=0.2)
        cb = self._codebook()
        v = np.array([0.3, 0.6])
        soft = quantize(v[None], cb)
        d2 = ((cb.words - v) ** 2).sum(axis=1)
        expect = np.exp(-d2 / (2 * 0.2 ** 2))
        expect /= expect.sum()
        assert np.allclose(soft[0], expect)

    def test_exact_word_dominates(self, soft_assignment):
        soft_assignment(m=1)
        cb = self._codebook()
        soft = quantize(cb.words[2:3], cb)
        assert np.flatnonzero(soft[0]).tolist() == [2]
        assert soft[0, 2] == pytest.approx(1.0)

    @pytest.mark.parametrize("m", [1, 2, 4])
    def test_batch_rows_match_direct_differences(self, m, soft_assignment):
        soft_assignment(m=m, sigma=0.3)
        cb = self._codebook()
        rng = np.random.default_rng(18)
        # an exact four-way tie, a row equal to a word, then random rows
        vectors = np.vstack([[0.5, 0.5], cb.words[3], rng.random((30, 2))])
        soft = quantize(vectors, cb)
        for v, row in zip(vectors, soft):
            d2 = ((cb.words - v) ** 2).sum(axis=1)
            nearest = np.argsort(d2, kind="stable")[:m]
            expect = np.zeros(cb.K)
            expect[nearest] = np.exp(-d2[nearest] / (2 * 0.3 ** 2))
            expect /= expect.sum()
            assert row.argmax() == d2.argmin()  # the nearest word weighs most
            assert np.allclose(row, expect, rtol=0, atol=1e-12)
        assert soft[:2].argmax(axis=1).tolist() == [0, 3]
        assert np.count_nonzero(soft[0]) == m and soft[0, :m].all()

    @pytest.mark.parametrize("sigma", [0.05, 1.0])
    @pytest.mark.parametrize("K", [4, 200])
    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5, "K"])
    def test_selection_matches_stable_argsort(self, m, K, sigma, soft_assignment):
        # integer coordinates in {0, 1, 2}: exact integer distances, heavy ties,
        # all-zero rows, and at sigma 0.05 rows whose every weight underflows
        rng = np.random.default_rng(27)
        cb = Codebook(words=rng.integers(0, 3, (K, 3)).astype(float), seed=0)
        vectors = rng.integers(0, 3, (120, 3)).astype(float)
        m = K if m == "K" else m
        d2 = np.sort(vocab._sq_dist(vectors, cb.words), axis=1)
        assert (d2[:, :min(m, K - 1)] == d2[:, 1:min(m, K - 1) + 1]).any()
        soft_assignment(m=m, sigma=sigma)
        soft = quantize(vectors, cb)
        assert soft.tobytes() == _argsort_quantize(vectors, cb, m, sigma).tobytes()

    @pytest.mark.parametrize("m,sigma", [(1, 0.2), (3, 0.05), (5, 0.2), (200, 1.0)])
    def test_direct_indexing_matches_along_axis_form(self, m, sigma, soft_assignment):
        rng = np.random.default_rng(44)
        descriptors = _texture_vectors()
        # descriptors against 200 of them, then integer points with heavy ties
        cases = [(descriptors[:300], descriptors[rng.choice(1176, 200)]),
                 (rng.integers(0, 3, (120, 3)).astype(float),
                  rng.integers(0, 3, (200, 3)).astype(float))]
        soft_assignment(m=m, sigma=sigma)
        for vectors, words in cases:
            cb = Codebook(words=words, seed=0)
            expected = _along_axis_quantize(vectors, cb)
            assert quantize(vectors, cb).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_vector_refused(self, bad):
        vectors = np.array([[0.7, 0.2], [0.1, bad]])
        with pytest.raises(VocabularyError, match="must be finite"):
            with np.errstate(invalid="ignore"):
                quantize(vectors, self._codebook())

    def test_non_finite_word_refused(self):
        cb = Codebook(words=np.array([[0.0, 0.0], [np.nan, 1.0]]), seed=0)
        with pytest.raises(VocabularyError, match="must be finite"):
            quantize(np.array([[0.7, 0.2]]), cb)

    def test_underflowing_row_is_one_hot(self):
        # every Gaussian weight underflows this far from the words
        soft = quantize(np.array([[40.0, 30.0]]), self._codebook())
        assert soft[0].tolist() == [0.0, 0.0, 0.0, 1.0]

    def test_zero_row_carries_no_word(self):
        soft = quantize(np.array([[0.0, 0.0], [0.7, 0.2]]), self._codebook())
        assert not soft[0].any()
        assert soft[1].sum() == pytest.approx(1.0)


def _records(vectors):
    """DESCRIPTOR records holding these vectors, one record per row."""
    descs = np.recarray(len(vectors), dtype=vocab.DESCRIPTOR)
    descs.fill(0)
    descs.vector = vectors
    return descs


class TestBowHistogram:
    def _codebook(self):
        rng = np.random.default_rng(9)
        return Codebook(words=rng.random((10, 128)), seed=0)

    def test_l1_normalized(self):
        rng = np.random.default_rng(10)
        cb = self._codebook()
        h = bow_histogram(_records(rng.random((20, 128))), cb)
        assert h.sum() == pytest.approx(1.0)
        assert (h >= 0).all()

    def test_empty_input_zero_histogram(self):
        cb = self._codebook()
        h = bow_histogram(_records(np.empty((0, 128))), cb)
        assert h.shape == (10,) and not h.any()

    def test_zero_descriptors_dropped(self):
        cb = self._codebook()
        vecs = np.stack([np.zeros(128), np.ones(128) * 0.3])
        h1 = bow_histogram(_records(vecs), cb)
        h2 = bow_histogram(_records(vecs[1:]), cb)
        assert h1.any()
        assert np.allclose(h1, h2)

    def test_memory_is_n_by_k(self):
        # an (n, K, 128) temporary would be 2000 * 200 * 128 * 8 B = 410 MB
        rng = np.random.default_rng(19)
        descs = _records(rng.random((2000, 128)))
        cb = Codebook(words=rng.random((200, 128)), seed=0)
        tracemalloc.start()
        try:
            bow_histogram(descs, cb)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32e6


class TestPyramidMatch:
    def test_identical_sets_score_equals_count(self):
        pts = np.array([[0.3, 0.3], [5.2, 1.1], [9.9, 9.9]])
        p = build_pyramid(pts, n_levels=4)
        assert pmk(p, p) == pytest.approx(3.0)

    def test_matches_bruteforce_on_random_sets(self):
        rng = np.random.default_rng(12)
        for _ in range(10):
            a = rng.random((15, 2)) * 16
            b = rng.random((12, 2)) * 16
            pa = build_pyramid(a, n_levels=5)
            pb = build_pyramid(b, n_levels=5)
            # brute-force: histogram intersection per level, new matches
            score = 0.0
            prev = 0
            for i in range(5):
                side = 2.0 ** i
                ha, hb = {}, {}
                for p in a:
                    k = tuple(np.floor(p / side).astype(int))
                    ha[k] = ha.get(k, 0) + 1
                for p in b:
                    k = tuple(np.floor(p / side).astype(int))
                    hb[k] = hb.get(k, 0) + 1
                inter = sum(min(v, hb.get(k, 0)) for k, v in ha.items())
                score += 2.0 ** -i * (inter - prev)
                prev = inter
            assert pmk(pa, pb) == pytest.approx(score)

    def test_symmetry(self):
        rng = np.random.default_rng(13)
        a = build_pyramid(rng.random((10, 2)) * 8, n_levels=4)
        b = build_pyramid(rng.random((14, 2)) * 8, n_levels=4)
        assert pmk(a, b) == pytest.approx(pmk(b, a))

    def test_bounded_by_smaller_set(self):
        rng = np.random.default_rng(14)
        a = build_pyramid(rng.random((10, 2)) * 8, n_levels=6)
        b = build_pyramid(rng.random((20, 2)) * 8, n_levels=6)
        assert pmk(a, b) <= 10.0 + 1e-12

    def test_a_flat_point_list_is_one_dimensional(self):
        flat = build_pyramid(np.array([0.5, 3.0, 3.2, 9.0]), n_levels=3)
        column = build_pyramid(np.array([[0.5], [3.0], [3.2], [9.0]]), n_levels=3)
        assert flat.dim == column.dim == 1
        assert flat.levels == column.levels

    @pytest.mark.parametrize("n_levels", [0, -2])
    def test_needs_a_level(self, n_levels):
        with pytest.raises(VocabularyError, match="at least one pyramid level"):
            build_pyramid(np.zeros((3, 2)), n_levels=n_levels)

    def test_geometry_mismatch_errors(self):
        a = build_pyramid(np.zeros((3, 2)), n_levels=3)
        b = build_pyramid(np.zeros((3, 2)), n_levels=4)
        with pytest.raises(VocabularyError):
            pmk(a, b)

    def test_mercer_psd_on_random_sets(self):
        # the kernel Gram matrix over a handful of point sets must be PSD
        rng = np.random.default_rng(15)
        sets = [rng.random((rng.integers(5, 15), 2)) * 8 for _ in range(6)]
        pyramids = [build_pyramid(s, n_levels=5) for s in sets]
        gram = np.array([[pmk(p, q) for q in pyramids] for p in pyramids])
        eig = np.linalg.eigvalsh(gram)
        assert eig.min() > -1e-9


def test_codebook_roundtrip(tmp_path):
    rng = np.random.default_rng(16)
    cb = Codebook(words=rng.random((7, 5)), seed=3)
    vocab.save_codebook(tmp_path / "cb.txt", cb)
    loaded = vocab.load_codebook(tmp_path / "cb.txt")
    assert np.array_equal(loaded.words, cb.words)
    assert loaded.seed == 3


@pytest.mark.parametrize("text", [
    "not-a-codebook\n",
    "vvtrack-codebook v1\n2 128 x\n",
    "vvtrack-codebook v1\n2 3 0\n0.1 0.2 0.3\n0.4 0.5\n",
    "vvtrack-codebook v1\n",
    "vvtrack-codebook v1\n2 2 0\n0.1 nan\n0.3 0.4\n",
    "vvtrack-codebook v1\n2 2 0\n0.1 0.2\n-inf 0.4\n",
    "vvtrack-codebook v1\n2 2 0\n0.1 0.2\n\n0.3 0.4\n",
    "vvtrack-codebook v1\n2 2 0\n0.1 0.2\n0.3 0.4 0.5\n",
    "vvtrack-codebook v1\n2 2 0\n0.1 0.2\n0.3 x\n",
    "vvtrack-codebook v1\n3 2 0\n0.1 0.2\n0.3 0.4\n",
    "vvtrack-codebook v1\n2 3 0\n1 2 3\n4 5 6\ngarbage here\n",
    "vvtrack-codebook v1\n1 2 0\n0.1 0.2\n\n0.3 0.4\n",
    "vvtrack-codebook v1\n0 1 0\n",
    "vvtrack-codebook v1\n2 2 0\n0.1 0.2\n# 0.3 0.4\n",
], ids=["header", "counts", "short-row", "no-counts", "nan-word", "inf-word",
        "blank-row", "ragged-row", "non-number", "missing-row", "trailing-content",
        "content-after-blank", "no-words", "comment-row"])
def test_codebook_bad_header_errors(tmp_path, text):
    (tmp_path / "cb.txt").write_text(text)
    with pytest.raises(VocabularyError):
        vocab.load_codebook(tmp_path / "cb.txt")


@pytest.mark.parametrize("dim", [3, 1])
def test_codebook_rows_of_another_width_are_refused(tmp_path, dim):
    (tmp_path / "cb.txt").write_text(f"vvtrack-codebook v1\n2 {dim} 0\n0.1 0.2\n0.3 0.4\n")
    with pytest.raises(VocabularyError, match="centroid block has wrong shape"):
        vocab.load_codebook(tmp_path / "cb.txt")


def test_codebook_blank_lines_after_the_words_are_accepted(tmp_path):
    (tmp_path / "cb.txt").write_text("vvtrack-codebook v1\n2 2 5\n0.1 0.2\n0.3 0.4\n\n \n")
    loaded = vocab.load_codebook(tmp_path / "cb.txt")
    assert loaded.words.tolist() == [[0.1, 0.2], [0.3, 0.4]] and loaded.seed == 5


def test_codebook_text_is_one_repr_per_value(tmp_path):
    words = np.array([[0.1, 1e-300, -2.5], [1 / 3, 5e-324, 1e300]])
    vocab.save_codebook(tmp_path / "cb.txt", Codebook(words=words, seed=0))
    lines = (tmp_path / "cb.txt").read_text().splitlines()
    assert lines[2:] == [" ".join(repr(float(v)) for v in row) for row in words]
    assert vocab.load_codebook(tmp_path / "cb.txt").words.tobytes() == words.tobytes()


def test_codebook_claiming_more_rows_than_it_holds_is_refused_cheaply(tmp_path):
    # a header that claims 10^9 words is refused at the end of the file, not
    # after a billion reads
    (tmp_path / "cb.txt").write_text("vvtrack-codebook v1\n1000000000 2 0\n"
                                     "0.1 0.2\n0.3 0.4\n")
    tracemalloc.start()
    try:
        with pytest.raises(VocabularyError, match="malformed codebook"):
            vocab.load_codebook(tmp_path / "cb.txt")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6
