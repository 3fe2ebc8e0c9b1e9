import numpy as np
import pytest

from vvtrack import recognition as rec
from vvtrack import svm, vocab
from vvtrack.recognition import (OCCURRENCE, PartEdge, PartModel,
                                 RecognitionError, balloon_density, cast_votes,
                                 distance_transform_1d, distance_transform_2d,
                                 learn_occurrences, match_parts, meanshift_modes)
from vvtrack.svm import train_svm
from vvtrack.vocab import Codebook


def _textured_square(size=64, box=(20, 20, 24, 24), seed=0):
    """Gray frame with a textured square at the given (x, y, w, h)."""
    rng = np.random.default_rng(seed)
    frame = np.full((size, size), 0.5)
    x, y, w, h = box
    frame[y:y + h, x:x + w] = rng.random((h, w)) * 0.8 + 0.1
    return frame


def _square_codebook(k, seed=0, n=3):
    """Training squares and a k-word codebook of their descriptors."""
    frames = [(_textured_square(seed=s), "sq", (32.0, 32.0), 24.0) for s in range(n)]
    descs = np.concatenate([vocab.extract_descriptors(f).vector for f, *_ in frames])
    return frames, vocab.kmeans(descs[descs.any(axis=1)], k, seed=seed)


def _occurrence_loop(examples, codebook, grid_stride=8):
    """Reference: (class, word) -> [(dx, dy, scale_ratio, desc_scale, weight)]
    built one feature and word at a time, weights normalized per key."""
    entries = {}
    for frame, cls, (cx, cy), scale in examples:
        descs = vocab.extract_descriptors(frame, grid_stride=grid_stride)
        soft = vocab.quantize(descs.vector, codebook)
        for x, y, s, row in zip(descs.x.tolist(), descs.y.tolist(),
                                descs.scale.tolist(), soft):
            for word in np.nonzero(row)[0].tolist():
                entries.setdefault((cls, word), []).append(
                    [cx - x, cy - y, scale / s, s, float(row[word])])
    for occs in entries.values():
        total = sum(o[4] for o in occs)
        for o in occs:
            o[4] /= total
    return entries


def _vote_loop(descriptors, codebook, entries, cls):
    """Reference: the votes of cast_votes, one feature, word and occurrence
    at a time."""
    votes = []
    soft = vocab.quantize(descriptors.vector, codebook)
    for x, y, s, row in zip(descriptors.x.tolist(), descriptors.y.tolist(),
                            descriptors.scale.tolist(), soft):
        for word in np.nonzero(row)[0].tolist():
            for dx, dy, ratio, desc_scale, weight in entries.get((cls, word), []):
                rel = s / desc_scale
                votes.append((x + dx * rel, y + dy * rel, ratio * s,
                              weight * float(row[word])))
    return np.asarray(votes, dtype=np.float64).reshape(-1, 4)


def _records(*rows):
    return np.rec.fromrecords(list(rows), dtype=OCCURRENCE)


class TestLearnOccurrences:
    def test_weights_normalized_per_class_word(self):
        frames, cb = _square_codebook(8)
        table = learn_occurrences(frames, cb)
        assert list(table) == ["sq"]
        occ = table["sq"]
        assert np.all(np.diff(occ["word"]) >= 0)
        sums = np.bincount(occ["word"], weights=occ["weight"])
        assert sums[np.unique(occ["word"])] == pytest.approx(1.0)

    def test_offsets_point_to_center(self):
        frames, cb = _square_codebook(8)
        occ = learn_occurrences(frames, cb)["sq"]
        # every stored offset must be center - some descriptor grid location
        grid = np.arange(8.0, 57.0, 8.0)
        assert np.isin(32.0 - occ["dx"], grid).all()
        assert np.isin(32.0 - occ["dy"], grid).all()
        assert np.all(occ["desc_scale"] == 16.0)
        assert np.all(occ["scale_ratio"] == 24.0 / 16.0)

    def test_records_match_per_item_loop(self):
        frames, cb = _square_codebook(8)
        # a second class, seen between two "sq" examples
        frames.insert(1, (_textured_square(seed=7, box=(10, 30, 20, 20)),
                          "other", (20.0, 40.0), 20.0))
        table = learn_occurrences(frames, cb)
        assert list(table) == ["sq", "other"]
        entries = _occurrence_loop(frames, cb)
        for cls, occ in table.items():
            words = sorted(w for c, w in entries if c == cls)
            expect = [(w, *o) for w in words for o in entries[(cls, w)]]
            assert occ.tolist() == expect

    def test_featureless_training_errors(self):
        cb = Codebook(words=np.zeros((2, 128)), seed=0)
        flat = np.full((32, 32), 0.5)
        with pytest.raises(RecognitionError):
            learn_occurrences([(flat, "x", (16, 16), 10.0)], cb)


class TestCastVotes:
    def test_single_feature_vote_location(self):
        cb = Codebook(words=np.vstack([np.eye(1, 128, 0)]), seed=0)
        occ = _records((0, 5.0, -3.0, 2.0, 16.0, 1.0))
        d = np.rec.fromrecords([(np.eye(1, 128, 0)[0], 10.0, 20.0, 16.0)],
                               dtype=vocab.DESCRIPTOR)
        votes = cast_votes(d, cb, occ)
        assert votes.shape == (1, 4)
        x, y, s, w = votes[0]
        assert (x, y) == (15.0, 17.0)
        assert s == pytest.approx(32.0)  # scale_ratio * feature scale
        assert w == pytest.approx(1.0)

    def test_scale_ratio_rescales_offset(self):
        cb = Codebook(words=np.vstack([np.eye(1, 128, 0)]), seed=0)
        occ = _records((0, 4.0, 0.0, 1.0, 16.0, 1.0))
        d = np.rec.fromrecords([(np.eye(1, 128, 0)[0], 0.0, 0.0, 32.0)],
                               dtype=vocab.DESCRIPTOR)
        votes = cast_votes(d, cb, occ)
        assert votes[0][0] == pytest.approx(8.0)  # offset doubled at 2x scale

    def test_empty_without_matching_words(self):
        # word 1 is so far away that its soft weight underflows to 0
        cb = Codebook(words=np.vstack([np.eye(1, 128, 0), 10 * np.eye(1, 128, 1)]),
                      seed=0)
        d = np.rec.fromrecords([(np.eye(1, 128, 0)[0], 0.0, 0.0, 16.0)],
                               dtype=vocab.DESCRIPTOR)
        assert cast_votes(d, cb, _records((1, 1.0, 1.0, 1.0, 16.0, 1.0))).shape == (0, 4)
        assert cast_votes(d, cb, np.zeros(0, dtype=OCCURRENCE)).shape == (0, 4)

    def test_word_runs_expand_in_order(self):
        # words 0 and 2 share one feature's soft weight; word 1 has no
        # feature weight; each word's records vote in stored order
        words = np.eye(3, 128)
        cb = Codebook(words=words, seed=0)
        vec = words[0] + words[2]
        d = np.rec.fromrecords([(vec / np.linalg.norm(vec), 8.0, 8.0, 16.0)],
                               dtype=vocab.DESCRIPTOR)
        occ = _records((0, 1.0, 0.0, 1.0, 16.0, 0.25), (0, 2.0, 0.0, 1.0, 16.0, 0.75),
                       (1, 3.0, 0.0, 1.0, 16.0, 1.0), (2, 4.0, 0.0, 1.0, 16.0, 1.0))
        votes = cast_votes(d, cb, occ)
        soft = vocab.quantize(d.vector, cb)
        assert soft[0, 1] > 0  # word 1 is weighted too: its record votes
        assert votes[:, 0].tolist() == [9.0, 10.0, 11.0, 12.0]
        assert votes[:, 3].tolist() == [0.25 * soft[0, 0], 0.75 * soft[0, 0],
                                        soft[0, 1], soft[0, 2]]

    @pytest.mark.parametrize("k", [8, 10])
    @pytest.mark.parametrize("stride", [8, 12])
    def test_votes_equal_per_item_loop(self, k, stride):
        frames, cb = _square_codebook(k)
        table = learn_occurrences(frames, cb, grid_stride=stride)
        entries = _occurrence_loop(frames, cb, grid_stride=stride)
        test = vocab.extract_descriptors(
            _textured_square(seed=9, box=(28, 12, 24, 24)), grid_stride=stride)
        votes = cast_votes(test, cb, table["sq"])
        expect = _vote_loop(test, cb, entries, "sq")
        assert len(votes) > 100
        assert np.array_equal(votes, expect)


def _meanshift_from_every_vote(votes, b0):
    """Reference: the mean-shift of meanshift_modes, started from every vote."""
    modes = []
    for seed in votes[:, :3]:
        x = seed.copy()
        for _ in range(100):
            d2 = ((votes[:, :3] - x) ** 2).sum(axis=1)
            inside = d2 < (b0 * x[2]) ** 2
            w = votes[inside, 3]
            if w.sum() <= 0:
                break
            new_x = (votes[inside, :3] * w[:, None]).sum(axis=0) / w.sum()
            if np.linalg.norm(new_x - x) < 1e-3:
                x = new_x
                break
            x = new_x
        score = balloon_density(x, votes, b0)
        if score > 0:
            modes.append((x, score))
    merged = []
    for x, score in sorted(modes, key=lambda m: -m[1]):
        if all(np.linalg.norm(x - mx) > 0.5 * b0 * x[2] for mx, _ in merged):
            merged.append((x, score))
    return [(float(x[0]), float(x[1]), float(x[2]), score) for x, score in merged]


class TestMeanShift:
    def test_distinct_seeds_match_seeding_from_every_vote(self, monkeypatch):
        rng = np.random.default_rng(3)
        # a lattice within one bandwidth (b = 2): windows overlap and the
        # trajectories move
        lattice = np.array([[49.0, 50.0, 20.0], [50.0, 50.0, 20.0],
                            [51.0, 50.0, 20.0], [50.0, 49.0, 20.0],
                            [50.0, 51.0, 20.0]])
        cluster = np.repeat(lattice, 30, axis=0)[rng.permutation(150)]
        cluster = np.hstack([cluster, rng.uniform(0.1, 1.0, (150, 1))])
        # two lone votes far apart give two modes of exactly equal score;
        # the one at larger x comes first, so first-occurrence order is not
        # the lexicographic order of the distinct rows
        lone = np.array([[90.0, 90.0, 10.0, 1.0], [10.0, 10.0, 10.0, 1.0]])
        votes = np.vstack([cluster[:70], lone[:1], cluster[70:], lone[1:]])
        b0 = 0.1
        expect = _meanshift_from_every_vote(votes, b0)
        assert expect[-2][3] == expect[-1][3] and expect[-2][0] == 90.0

        calls = []

        def counting(point, v, b):
            calls.append(point)
            return balloon_density(point, v, b)

        monkeypatch.setattr(rec, "balloon_density", counting)
        modes = meanshift_modes(votes, b0=b0)
        # the window sums add the weights of equal rows first: equal to rounding
        assert len(modes) == len(expect)
        for m, e in zip(modes, expect):
            assert (m.x, m.y, m.s, m.score) == pytest.approx(e, rel=1e-12)
        assert len(calls) == len(lattice) + len(lone)

    def test_half_weight_copies_give_identical_modes(self):
        rng = np.random.default_rng(4)
        # distinct positions, one vote each, windows overlapping (b = 2)
        votes = np.vstack([
            np.hstack([[50.0, 50.0, 20.0] + rng.normal(0, 0.8, (60, 3)),
                       rng.uniform(0.1, 1.0, (60, 1))]),
            np.hstack([[20.0, 70.0, 20.0] + rng.normal(0, 0.8, (30, 3)),
                       rng.uniform(0.1, 1.0, (30, 1))])])
        n = len(votes)
        halves = votes.copy()
        halves[:, 3] /= 2.0
        # each copy lands somewhere after its original, so the seeds keep their order
        key = np.concatenate([np.arange(n), np.arange(n) + rng.uniform(0.5, n, n)])
        split = np.vstack([halves, halves])[np.argsort(key, kind="stable")]
        modes = meanshift_modes(votes, b0=0.1)
        assert len(modes) >= 2
        assert ([(m.x, m.y, m.s, m.score) for m in meanshift_modes(split, b0=0.1)]
                == [(m.x, m.y, m.s, m.score) for m in modes])

    def test_single_cluster_mode_at_mean(self):
        rng = np.random.default_rng(0)
        center = np.array([40.0, 30.0, 20.0])
        votes = np.hstack([center + rng.normal(0, 0.3, (50, 3)),
                           np.ones((50, 1))])
        modes = meanshift_modes(votes, b0=0.1)
        assert len(modes) >= 1
        m = modes[0]
        assert abs(m.x - 40.0) < 1.0 and abs(m.y - 30.0) < 1.0

    def test_two_far_clusters_two_modes(self):
        rng = np.random.default_rng(1)
        c1 = np.array([20.0, 20.0, 15.0])
        c2 = np.array([70.0, 50.0, 15.0])
        votes = np.vstack([
            np.hstack([c1 + rng.normal(0, 0.2, (40, 3)), np.ones((40, 1))]),
            np.hstack([c2 + rng.normal(0, 0.2, (40, 3)), np.ones((40, 1))]),
        ])
        modes = meanshift_modes(votes, b0=0.1)
        xs = sorted(m.x for m in modes[:2])
        assert len(modes) >= 2
        assert abs(xs[0] - 20.0) < 1.5 and abs(xs[1] - 70.0) < 1.5

    def test_modes_sorted_by_score(self):
        rng = np.random.default_rng(2)
        strong = np.hstack([np.array([30.0, 30.0, 10.0])
                            + rng.normal(0, 0.2, (60, 3)), np.ones((60, 1))])
        weak = np.hstack([np.array([80.0, 80.0, 10.0])
                          + rng.normal(0, 0.2, (10, 3)), np.ones((10, 1))])
        modes = meanshift_modes(np.vstack([strong, weak]), b0=0.1)
        scores = [m.score for m in modes]
        assert scores == sorted(scores, reverse=True)
        assert abs(modes[0].x - 30.0) < 1.5

    def test_empty_votes(self):
        assert meanshift_modes(np.zeros((0, 4))) == []

    def test_bad_bandwidth_errors(self):
        with pytest.raises(RecognitionError):
            meanshift_modes(np.zeros((1, 4)), b0=0.0)

    @pytest.mark.parametrize("s", [0.0, -1.0])
    def test_balloon_density_at_no_scale_is_zero(self, s):
        votes = np.array([[10.0, 10.0, s, 1.0], [10.5, 10.0, s, 1.0]])
        assert balloon_density((10.0, 10.0, s), votes, 0.1) == 0.0

    def test_a_seed_at_no_scale_stays_put_and_gives_no_mode(self):
        # The seed at s = -20 would have a window of radius 200, which reaches
        # both votes at s = 1 and lands between them, beyond either one's
        # merge radius of 5: a third mode.
        votes = np.array([[0.0, 0.0, 1.0, 1.0], [15.0, 0.0, 1.0, 1.0],
                          [7.5, 0.0, -20.0, 1e-6]])
        modes = meanshift_modes(votes, b0=10.0)
        assert [(h.x, h.y, h.s) for h in modes] == [(0.0, 0.0, 1.0), (15.0, 0.0, 1.0)]

    def test_a_seed_whose_window_weighs_nothing_stays_put(self):
        # The zero-weight vote's window holds no other vote: its shift would
        # divide 0 by 0.
        votes = np.array([[50.0, 50.0, 10.0, 1.0], [10.0, 10.0, 10.0, 0.0]])
        with np.errstate(divide="raise", invalid="raise"):
            modes = meanshift_modes(votes, b0=0.1)
        assert [(h.x, h.y, h.s) for h in modes] == [(50.0, 50.0, 10.0)]

    def test_balloon_density_hand_value(self):
        # one vote at distance d from the probe, bandwidth b = 0.1 * s
        votes = np.array([[1.0, 0.0, 10.0, 2.0]])
        point = (0.0, 0.0, 10.0)
        b = 1.0
        d2 = 1.0 / (b * b)  # distance^2 includes the s axis (equal here)
        expect = 2.0 * (1.0 - d2) / ((4.0 / 3.0) * np.pi * b ** 3)
        # d2 == 1 -> on the kernel boundary -> zero mass
        assert balloon_density(point, votes, 0.1) == pytest.approx(max(expect, 0.0))
        # move the vote inside the support
        votes[0, 0] = 0.5
        d2 = 0.25
        expect = 2.0 * (1.0 - d2) / ((4.0 / 3.0) * np.pi)
        assert balloon_density(point, votes, 0.1) == pytest.approx(expect)


def _brute_gdt_1d(cost, a):
    n = len(cost)
    val = np.empty(n)
    arg = np.empty(n, dtype=int)
    for p in range(n):
        cand = [cost[q] + a * (p - q) ** 2 for q in range(n)]
        arg[p] = int(np.argmin(cand))
        val[p] = cand[arg[p]]
    return val, arg


class TestDistanceTransforms:
    def test_1d_matches_bruteforce(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            cost = rng.random(17) * 5
            a = float(rng.random() + 0.1)
            val, arg = distance_transform_1d(cost, a)
            bval, barg = _brute_gdt_1d(cost, a)
            assert np.allclose(val, bval)
            assert np.array_equal(arg, barg)

    def test_1d_tie_lowest_index(self):
        cost = np.array([1.0, 0.0, 0.0, 1.0])
        _, arg = distance_transform_1d(cost, 0.0)  # all q tie at cost 0... a=0
        # with a = 0 every p picks the global min cost; ties -> q=1
        assert np.array_equal(arg, [1, 1, 1, 1])

    def test_2d_matches_bruteforce(self):
        rng = np.random.default_rng(4)
        cost = rng.random((9, 11)) * 3
        ax, ay = 0.4, 0.7
        val, qy, qx = distance_transform_2d(cost, ax, ay)
        h, w = cost.shape
        for py in range(h):
            for px in range(w):
                best = np.inf
                for ky in range(h):
                    for kx in range(w):
                        v = cost[ky, kx] + ay * (py - ky) ** 2 + ax * (px - kx) ** 2
                        if v < best - 1e-12:
                            best = v
                assert val[py, px] == pytest.approx(best)
                # the reported argmin must achieve the optimum
                got = (cost[qy[py, px], qx[py, px]]
                       + ay * (py - qy[py, px]) ** 2
                       + ax * (px - qx[py, px]) ** 2)
                assert got == pytest.approx(best)


class TestPartModel:
    def test_two_part_hand_example(self):
        # root cheap at (2, 2); child cheap at (2, 4); anchor says the
        # child sits 2 px right of the root, so deformation cost is 0
        root = np.full((6, 6), 5.0)
        root[2, 2] = 0.0
        child = np.full((6, 6), 5.0)
        child[2, 4] = 0.0
        model = PartModel(n_parts=2, edges=[PartEdge(anchor=(2, 0),
                                                     cov=(1.0, 1.0))])
        locs, energy = match_parts(model, [root, child])
        assert locs == [(2, 2), (2, 4)]
        assert energy == pytest.approx(0.0)

    def test_deformation_penalty_traded_off(self):
        # child's best location is 3 px off-anchor; with stiff springs the
        # model prefers a worse appearance spot at the anchor
        root = np.full((7, 7), 10.0)
        root[3, 3] = 0.0
        child = np.full((7, 7), 2.0)
        child[3, 6] = 0.0  # great appearance, 2 px beyond anchor (3, 4)
        stiff = PartModel(n_parts=2, edges=[PartEdge((1, 0), (0.1, 0.1))])
        loose = PartModel(n_parts=2, edges=[PartEdge((1, 0), (100.0, 100.0))])
        locs_s, _ = match_parts(stiff, [root, child])
        locs_l, _ = match_parts(loose, [root, child])
        assert locs_s[1] == (3, 4)  # stays at the anchor
        assert locs_l[1] == (3, 6)  # follows appearance

    def test_energy_matches_bruteforce_three_parts(self):
        rng = np.random.default_rng(5)
        h, w = 6, 7
        maps = [rng.random((h, w)) * 4 for _ in range(3)]
        edges = [PartEdge((1, -1), (0.8, 1.3)), PartEdge((-2, 1), (2.0, 0.5))]
        model = PartModel(n_parts=3, edges=edges)
        locs, energy = match_parts(model, maps)

        best = np.inf
        for ry in range(h):
            for rx in range(w):
                total = maps[0][ry, rx]
                for edge, cmap in zip(edges, maps[1:]):
                    dx, dy = edge.anchor
                    ay, ax = 1.0 / edge.cov[1], 1.0 / edge.cov[0]
                    ideal_y, ideal_x = ry + dy, rx + dx
                    if not (0 <= ideal_y < h and 0 <= ideal_x < w):
                        total = np.inf
                        break
                    sub = np.inf
                    for cy in range(h):
                        for cx in range(w):
                            v = (cmap[cy, cx] + ay * (ideal_y - cy) ** 2
                                 + ax * (ideal_x - cx) ** 2)
                            sub = min(sub, v)
                    total += sub
                best = min(best, total)
        assert energy == pytest.approx(best)

    def test_wrong_map_count_errors(self):
        model = PartModel(n_parts=2, edges=[PartEdge((0, 0), (1, 1))])
        with pytest.raises(RecognitionError):
            match_parts(model, [np.zeros((4, 4))])

    def test_star_model_needs_one_edge_per_child(self):
        for n_parts, n_edges in ((3, 1), (2, 2), (1, 1)):
            with pytest.raises(RecognitionError, match="one edge per child part"):
                PartModel(n_parts=n_parts, edges=[PartEdge((0, 0), (1, 1))] * n_edges)

    @pytest.mark.parametrize("shapes", [[(4, 4), (4, 5)], [(0, 4), (0, 4)]],
                             ids=["mixed", "empty"])
    def test_cost_maps_must_share_a_non_empty_grid(self, shapes):
        model = PartModel(n_parts=2, edges=[PartEdge((0, 0), (1, 1))])
        with pytest.raises(RecognitionError, match="share a non-empty grid"):
            match_parts(model, [np.zeros(shape) for shape in shapes])

    def test_bad_covariance_errors(self):
        with pytest.raises(RecognitionError):
            PartEdge((0, 0), (0.0, 1.0))


class TestRecognizeFrame:
    def test_localizes_trained_square(self):
        train = [(_textured_square(seed=s, box=(20, 20, 24, 24)),
                  "sq", (32.0, 32.0), 24.0) for s in range(3)]
        descs = []
        for f, *_ in train:
            descs.extend(d.vector for d in vocab.extract_descriptors(f)
                         if np.any(d.vector))
        cb = vocab.kmeans(np.asarray(descs), 10, seed=0)
        table = learn_occurrences(train, cb)
        test_frame = _textured_square(seed=9, box=(28, 12, 24, 24))
        found = rec.recognize_frame(test_frame, cb, table, b0=0.4)
        assert found
        hyp, label = found[0]
        assert label == "sq"
        # true center is (40, 24)
        assert abs(hyp.x - 40.0) < 8.0 and abs(hyp.y - 24.0) < 8.0

    def test_matches_per_class_vote_oracle(self):
        frames, cb = _square_codebook(10)
        # class "b" is trained on squares centred off their boxes, so its
        # votes land elsewhere and both classes propose hypotheses
        shifted = [(f, "b", (26.0, 38.0), 24.0) for f, *_ in frames]
        table = learn_occurrences(frames + shifted, cb, grid_stride=6)
        test_frame = _textured_square(seed=9, box=(28, 12, 24, 24))
        found = rec.recognize_frame(test_frame, cb, table, b0=0.2, grid_stride=6)

        descs = vocab.extract_descriptors(test_frame, grid_stride=6)
        modes = [(m.x, m.y, m.s, m.score, cls) for cls, occ in table.items()
                 for m in meanshift_modes(cast_votes(descs, cb, occ), b0=0.2)]
        top = max(m[3] for m in modes)
        expected = sorted((m for m in modes if m[3] >= rec.SCORE_FRACTION * top),
                          key=lambda m: (-m[3], m[4]))
        assert len(expected) < len(modes)  # the score filter drops some
        assert {m[4] for m in expected} == {"sq", "b"}
        assert [(h.x, h.y, h.s, h.score, label) for h, label in found] == expected
        assert all(label == h.label for h, label in found)

    def test_featureless_frame_no_hypotheses(self):
        cb = Codebook(words=np.zeros((2, 128)), seed=0)
        table = {"sq": np.zeros(0, dtype=OCCURRENCE)}
        assert rec.recognize_frame(np.full((32, 32), 0.5), cb, table) == []


class TestClassifyBox:
    def _model(self, frames, cb):
        rng = np.random.default_rng(3)
        flat = [np.clip(0.5 + rng.normal(0, 0.01, (64, 64)), 0, 1) for _ in range(3)]
        hists = [vocab.bow_histogram(vocab.extract_descriptors(f), cb)
                 for f in [f for f, *_ in frames] + flat]
        return train_svm(hists, ["textured"] * 3 + ["flat"] * 3, C=5.0)

    def test_classifies_the_descriptors_centred_in_the_half_open_box(self, monkeypatch):
        frames, cb = _square_codebook(10)
        model = self._model(frames, cb)
        test_frame = _textured_square(seed=9, box=(28, 12, 24, 24))
        # a 6-px grid: centres 8, 14, ..., 56 fall on both edges of the box
        descs = vocab.extract_descriptors(test_frame, grid_stride=6)
        box = (20, 14, 24, 24)
        seen = []
        histogram = vocab.bow_histogram

        def spy(d, *args, **kwargs):
            seen.append(d)
            return histogram(d, *args, **kwargs)

        monkeypatch.setattr(vocab, "bow_histogram", spy)
        label = rec.classify_box(descs, box, cb, model)
        monkeypatch.undo()
        (chosen,) = seen
        assert sorted(set(chosen.x.tolist())) == [20, 26, 32, 38]
        assert sorted(set(chosen.y.tolist())) == [14, 20, 26, 32]
        assert len(chosen) == 16
        assert label == svm.predict(model, histogram(chosen, cb))[0] == "textured"

    def test_featureless_box_has_no_label(self):
        frames, cb = _square_codebook(10)
        test_frame = _textured_square(seed=9, box=(28, 12, 24, 24))
        descs = vocab.extract_descriptors(test_frame, grid_stride=6)
        box = (0, 50, 64, 14)  # centre rows 50 and 56, their patches all flat
        inside = (box[1] <= descs.y) & (descs.y < box[1] + box[3])
        assert inside.sum() == 18 and not descs.vector[inside].any()
        assert rec.classify_box(descs, box, cb, self._model(frames, cb)) is None
