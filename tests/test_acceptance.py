"""Acceptance suite: one quantitative check per release criterion.

Each test prints a single PASS/FAIL line (visible with -s or on failure)
and asserts the stated tolerance.
"""

import json
import sys
import time
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest
from scipy import ndimage
from scipy.special import erf

from vvtrack import background as bg
from vvtrack import frames as fio
from vvtrack import pipeline as pl
from vvtrack import recognition as rec
from vvtrack import shadows as sh
from vvtrack import tracker as trk
from vvtrack import vocab
from vvtrack.config import merge_config
from vvtrack.metrics import box_iou
from vvtrack.svm import KKT_TOL, gram_matrix, predict, train_svm


def _report(num: int, name: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {num:02d}] {status} {name}: {detail}", file=sys.stderr)
    assert ok, f"criterion {num} ({name}): {detail}"


# ---------------------------------------------------------------------------
# 1. Poisson roundtrip
# ---------------------------------------------------------------------------

def test_criterion_01_poisson_roundtrip():
    rng = np.random.default_rng(0)
    worst = 0.0
    slowest = 0.0
    for _ in range(20):
        f = rng.random((32, 32))
        f -= f.mean()
        t0 = time.time()
        s = sh.poisson_reconstruct(sh.forward_gradient(f))
        slowest = max(slowest, time.time() - t0)
        worst = max(worst, float(np.abs(s - f).max()))
    _report(1, "poisson roundtrip", worst <= 1e-3 and slowest < 1.0,
            f"max abs err {worst:.2e} (tol 1e-3), slowest {slowest:.3f}s")


# ---------------------------------------------------------------------------
# 2. Shadow removal intensity ratio
# ---------------------------------------------------------------------------

def test_criterion_02_shadow_removal_ratio():
    ratios = []
    raw_ratios = []
    for seed in range(10):
        rng = np.random.default_rng(seed)
        x = int(rng.integers(8, 24))
        y = int(rng.integers(8, 24))
        obj = fio.SceneObject(
            shape="rect", trajectory=[(x, y, 12, 12)],
            albedo=(0.85, 0.3, 0.25),
            shadow_offset=(int(rng.integers(3, 7)), int(rng.integers(6, 12))))
        scene = fio.SyntheticScene(width=64, height=64, background=0.6,
                                   objects=[obj], noise_sigma=0.0)
        frames, truth = fio.generate_synthetic(scene, 1)
        frame = frames[0]
        shadow = fio.rle_decode(truth[0]["shadow_rle"], (64, 64))
        motion = fio.rle_decode(truth[0]["motion_rle"], (64, 64))
        R = sh.remove_shadow(frame)
        inner = ndimage.binary_erosion(shadow, iterations=3)
        lit = ~ndimage.binary_dilation(shadow | motion, iterations=3)
        gray = fio.to_grayscale(frame)
        raw_ratios.append(gray[inner].mean() / gray[lit].mean())
        ratios.append(float(R[inner].mean() / R[lit].mean()))
    ok = all(0.85 <= r <= 1.15 for r in ratios)
    _report(2, "shadow removal ratio", ok,
            f"recovered ratios {min(ratios):.3f}..{max(ratios):.3f} "
            f"(target [0.85, 1.15]; raw ~{np.mean(raw_ratios):.2f})")


# ---------------------------------------------------------------------------
# 3. Motion masks on a moving-rectangle sequence
# ---------------------------------------------------------------------------

def _motion_run(scene, n):
    frames, truth = fio.generate_synthetic(scene, n)
    grays = [fio.to_grayscale(f) for f in frames]
    state = bg.BackgroundState(B=grays[0])
    T_b = 0.1  # kept when a frame's histogram cannot be fitted
    masks = [np.zeros_like(grays[0], bool)]
    for t in range(1, n):
        hist = bg.diff_histogram(grays[t], grays[t - 1])
        try:
            T_b = bg.fit_adaptive_threshold(hist).T_b
        except bg.BackgroundError:
            pass
        m = bg.motion_masks(grays[t], grays[t - 1], state, T_b)
        masks.append(bg.clean_mask(m.M))
        bg.update_background(state, grays[t])
    return masks, truth


def test_criterion_03_motion_mask_f1():
    n = 60
    obj = fio.SceneObject(
        shape="rect",
        trajectory=fio.linear_trajectory((14, 32), (5, 0), (16, 16), n),
        albedo=(0.75, 0.68, 0.72))
    scene = fio.SyntheticScene(width=14 + 5 * (n - 1) + 16 + 10, height=64,
                               background=0.5, objects=[obj],
                               noise_sigma=0.02, seed=0)
    masks, truth = _motion_run(scene, n)
    tp = fp = fn = 0
    for t in range(20, n):
        tr = fio.rle_decode(truth[t]["motion_rle"], masks[t].shape)
        tp += int((masks[t] & tr).sum())
        fp += int((masks[t] & ~tr).sum())
        fn += int((~masks[t] & tr).sum())
    f1 = 2 * tp / (2 * tp + fp + fn)

    static = fio.SyntheticScene(width=64, height=64, background=0.5,
                                noise_sigma=0.02, seed=1)
    smask, _ = _motion_run(static, n)
    false_rate = sum(int(m.sum()) for m in smask[1:]) / (
        (n - 1) * smask[0].size)
    _report(3, "motion mask F1", f1 >= 0.9 and false_rate < 0.01,
            f"F1 {f1:.3f} after burn-in (>= 0.9); "
            f"static false-fire {false_rate:.4f} (< 0.01)")


# ---------------------------------------------------------------------------
# 4. Adaptive threshold equals an independent exhaustive scan
# ---------------------------------------------------------------------------

def _independent_scan(hist):
    # running sums accumulate sequentially so ties in the (often very
    # flat) error curve resolve the same way regardless of summation tree
    h = hist / hist.sum()
    d = np.arange(256, dtype=float)
    best_t, best_e = None, np.inf
    p_b = 0.0
    var = 0.0
    for t in range(256):
        p_b = p_b + h[t]
        var = var + d[t] * d[t] * h[t]
        sigma = max(np.sqrt(var / max(p_b, 1e-12)), 1e-6)
        hi = erf((d + 0.5) / (sigma * np.sqrt(2)))
        lo = erf(np.maximum(d - 0.5, 0.0) / (sigma * np.sqrt(2)))
        e = ((p_b * (hi - lo) - h) ** 2).sum()
        if e < best_e:
            best_e, best_t = e, t
    return best_t


def test_criterion_04_adaptive_threshold_exact():
    rng = np.random.default_rng(4)
    mismatches = 0
    for i in range(50):
        if i % 2:
            hist = rng.integers(0, 60, 256).astype(float)
        else:
            sigma = rng.uniform(2.0, 25.0)
            samples = np.clip(np.abs(rng.normal(0, sigma, 5000)), 0, 255)
            hist = np.bincount(np.rint(samples).astype(int),
                               minlength=256)[:256].astype(float)
        if hist.sum() == 0:
            hist[0] = 1.0
        got = bg.fit_adaptive_threshold(hist).threshold
        want = _independent_scan(hist)
        mismatches += got != want
    _report(4, "adaptive threshold scan", mismatches == 0,
            f"{50 - mismatches}/50 histograms matched the independent scan")


# ---------------------------------------------------------------------------
# 5. k-means equals brute-force optimum on tiny instances
# ---------------------------------------------------------------------------

def _brute_two_cluster_sse(pts):
    n = len(pts)
    best = np.inf
    for r in range(1, n // 2 + 1):
        for comb in combinations(range(n), r):
            m = np.zeros(n, bool)
            m[list(comb)] = True
            sse = (((pts[m] - pts[m].mean(axis=0)) ** 2).sum()
                   + ((pts[~m] - pts[~m].mean(axis=0)) ** 2).sum())
            best = min(best, sse)
    return best


def test_criterion_05_kmeans_optimal_partitions():
    fails = 0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        pts = rng.random((6, 2))
        cb = vocab.kmeans(pts, 2, seed=seed)
        sse = ((pts[:, None] - cb.words[None]) ** 2).sum(axis=2)\
            .min(axis=1).sum()
        if sse > _brute_two_cluster_sse(pts) + 1e-9:
            fails += 1
    # SSE monotonicity is asserted inside kmeans on every Lloyd pass;
    # run a larger instance so those internal asserts execute too
    rng = np.random.default_rng(99)
    vocab.kmeans(rng.random((200, 5)), 8, seed=0)
    _report(5, "k-means brute-force optimum", fails == 0,
            f"{20 - fails}/20 six-point K=2 instances globally optimal")


# ---------------------------------------------------------------------------
# 6. Cubic SVM: PSD Gram, XOR separation, KKT invariants
# ---------------------------------------------------------------------------

def test_criterion_06_cubic_svm():
    rng = np.random.default_rng(6)
    min_eig = np.inf
    for _ in range(30):
        xs = rng.random((rng.integers(5, 20), rng.integers(2, 8)))
        min_eig = min(min_eig, float(np.linalg.eigvalsh(
            gram_matrix(xs)).min()))

    xor_x = np.array([[0.0, 0.0], [1.0, 1.0], [0.0, 1.0], [1.0, 0.0]])
    xor_y = ["a", "a", "b", "b"]
    model = train_svm(xor_x, xor_y, C=10.0)
    pred = [predict(model, x)[0] for x in xor_x]
    acc = np.mean([p == t for p, t in zip(pred, xor_y)])
    m = model.machines[(0, 1)]
    # KKT: the box and equality constraints on the duals, and every point
    # within KKT_TOL of its margin condition (all four are support vectors).
    y = np.array([1.0, 1.0, -1.0, -1.0])
    alpha = m.dual_coef * y
    yf = y * (gram_matrix(xor_x, m.support_vectors) @ m.dual_coef + m.bias)
    gap = np.where(alpha < 10.0, np.abs(yf - 1), yf - 1).max()
    kkt_ok = (len(alpha) == 4 and (alpha > 0).all() and alpha.max() <= 10.0
              and abs(m.dual_coef.sum()) <= 1e-7 and gap <= KKT_TOL + 1e-9)
    _report(6, "cubic SVM", min_eig >= -1e-8 and acc == 1.0 and kkt_ok,
            f"Gram min eig {min_eig:.2e} (>= -1e-8); XOR training acc "
            f"{acc:.2f}; KKT invariants {'held' if kkt_ok else 'VIOLATED'}")


# ---------------------------------------------------------------------------
# 7. Pyramid match kernel vs direct evaluation
# ---------------------------------------------------------------------------

def _direct_pmk(a, b, n_levels):
    score, prev = 0.0, 0
    for i in range(n_levels):
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
    return score


def test_criterion_07_pmk_direct_match():
    rng = np.random.default_rng(7)
    mismatches = 0
    asym = 0
    negative = 0
    for _ in range(100):
        a = rng.random((rng.integers(3, 20), 2)) * 16
        b = rng.random((rng.integers(3, 20), 2)) * 16
        pa = vocab.build_pyramid(a, n_levels=5)
        pb = vocab.build_pyramid(b, n_levels=5)
        got = vocab.pmk(pa, pb)
        if abs(got - _direct_pmk(a, b, 5)) > 1e-12:
            mismatches += 1
        if abs(got - vocab.pmk(pb, pa)) > 1e-12:
            asym += 1
        if got < 0:
            negative += 1
    ok = mismatches == 0 and asym == 0 and negative == 0
    _report(7, "pyramid match kernel", ok,
            f"{100 - mismatches}/100 direct matches; "
            f"{asym} asymmetries; {negative} negative values")


# ---------------------------------------------------------------------------
# 8. Pictorial structures vs exhaustive search
# ---------------------------------------------------------------------------

def _exhaustive_parts(maps, edges):
    h, w = maps[0].shape
    grid_y = np.arange(h)[:, None]
    grid_x = np.arange(w)[None, :]
    total = maps[0].copy()
    for edge, cmap in zip(edges, maps[1:]):
        dx, dy = edge.anchor
        ay, ax = 1.0 / edge.cov[1], 1.0 / edge.cov[0]
        # full table: for each root, min over all child placements
        best = np.full((h, w), np.inf)
        for ry in range(h):
            ty = ry + dy
            for rx in range(w):
                tx = rx + dx
                if not (0 <= ty < h and 0 <= tx < w):
                    continue
                costs = (cmap + ay * (ty - grid_y) ** 2
                         + ax * (tx - grid_x) ** 2)
                best[ry, rx] = costs.min()
        total = total + best
    return float(total.min())


def test_criterion_08_pictorial_structures_exact():
    rng = np.random.default_rng(8)
    part_fail = 0
    for _ in range(50):
        h = int(rng.integers(4, 17))
        w = int(rng.integers(4, 17))
        n_children = int(rng.integers(1, 3))
        maps = [rng.random((h, w)) * 5 for _ in range(1 + n_children)]
        edges = [rec.PartEdge(anchor=(int(rng.integers(-3, 4)),
                                      int(rng.integers(-3, 4))),
                              cov=(float(rng.uniform(0.2, 3.0)),
                                   float(rng.uniform(0.2, 3.0))))
                 for _ in range(n_children)]
        model = rec.PartModel(n_parts=1 + n_children, edges=edges)
        _, energy = rec.match_parts(model, maps)
        if not np.isclose(energy, _exhaustive_parts(maps, edges),
                          rtol=0, atol=1e-9):
            part_fail += 1

    dt_fail = 0
    for _ in range(50):
        n = int(rng.integers(3, 20))
        cost = rng.random(n) * 4
        a = float(rng.uniform(0.1, 2.0))
        val, arg = rec.distance_transform_1d(cost, a)
        grid = np.arange(n, dtype=float)
        table = cost[None, :] + a * (grid[:, None] - grid[None, :]) ** 2
        if not (np.allclose(val, table.min(axis=1))
                and np.array_equal(arg, table.argmin(axis=1))):
            dt_fail += 1
    ok = part_fail == 0 and dt_fail == 0
    _report(8, "pictorial structures", ok,
            f"{50 - part_fail}/50 exhaustive matches; "
            f"{50 - dt_fail}/50 distance transforms exact")


# ---------------------------------------------------------------------------
# 9. Voting + mean-shift recovers planted clusters
# ---------------------------------------------------------------------------

def test_criterion_09_meanshift_planted_clusters():
    single_ok = 0
    double_ok = 0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        c = np.array([rng.uniform(20, 80), rng.uniform(20, 60), 15.0])
        votes = np.hstack([c + rng.normal(0, 0.3, (60, 3)),
                           np.ones((60, 1))])
        modes = rec.meanshift_modes(votes, b0=0.1)
        if modes and np.hypot(modes[0].x - c[0], modes[0].y - c[1]) <= 1.0:
            single_ok += 1

        c2 = c + np.array([30.0, 10.0, 0.0])
        votes2 = np.vstack([
            votes,
            np.hstack([c2 + rng.normal(0, 0.3, (60, 3)), np.ones((60, 1))]),
        ])
        modes2 = rec.meanshift_modes(votes2, b0=0.1)
        hits = 0
        for target in (c, c2):
            if any(np.hypot(m.x - target[0], m.y - target[1]) <= 1.0
                   for m in modes2[:4]):
                hits += 1
        if hits == 2:
            double_ok += 1
    ok = single_ok == 20 and double_ok == 20
    _report(9, "mean-shift planted clusters", ok,
            f"single {single_ok}/20 within 1 px; both modes {double_ok}/20")


# ---------------------------------------------------------------------------
# 10. Swarm optimizer on a smooth likelihood bump
# ---------------------------------------------------------------------------

def test_criterion_10_swarm_bump_convergence():
    yy, xx = np.mgrid[0:64, 0:96]
    cx, cy = 48.0, 32.0
    frame = 0.2 + 0.7 * np.exp(-(((xx - cx) / 10.0) ** 2
                                 + ((yy - cy) / 10.0) ** 2))
    cfg = trk.TrackerConfig(n_particles=50, n_iters=20, track_scale=False)
    box = (cx - 8, cy - 8, 16, 16)
    converged = 0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        sp = trk.init_species(frame, 0, box, cfg)
        start = np.array([cx + rng.uniform(-6, 6),
                          cy + rng.uniform(-6, 6), 1.0])
        sp.gbest = start.copy()
        sp.gbest_fit = trk.observe(frame, sp, sp.gbest, cfg)
        sp.particles = start + rng.standard_normal(
            (cfg.n_particles, 3)) * np.asarray(cfg.sigma0)
        sp.particles[:, 2] = 1.0
        sp.pbest = sp.particles.copy()
        sp.pbest_fit = np.array([trk.observe(frame, sp, p, cfg)
                                 for p in sp.particles])
        best = int(sp.pbest_fit.argmax())
        if sp.pbest_fit[best] > sp.gbest_fit:
            sp.gbest = sp.pbest[best].copy()
            sp.gbest_fit = float(sp.pbest_fit[best])
        for it in range(cfg.n_iters):
            trk.step_particles(sp, frame, it, rng, cfg)
        if np.hypot(sp.gbest[0] - cx, sp.gbest[1] - cy) <= 0.5:
            converged += 1

    # the disturbance variance must decay by exactly e^{-c} per iteration
    c = cfg.c_anneal
    stds = [np.asarray(cfg.sigma0) * np.exp(-c * n / 2.0) for n in range(6)]
    ratios = [(stds[n + 1] ** 2 / stds[n] ** 2) for n in range(5)]
    decay_ok = all(np.allclose(r, np.exp(-c), rtol=0, atol=1e-15)
                   for r in ratios)
    _report(10, "swarm bump convergence",
            converged >= 95 and decay_ok,
            f"{converged}/100 seeds within 0.5 px in <= 20 iters; "
            f"variance decay per iter exp(-c) {'exact' if decay_ok else 'WRONG'}")


# ---------------------------------------------------------------------------
# 11. Competition keeps identities through a crossing
# ---------------------------------------------------------------------------

def test_criterion_11_crossing_identities():
    from vvtrack import scenes

    n = 40
    cfg = trk.TrackerConfig(n_particles=30, n_iters=10, track_scale=False)
    wins = 0
    for seed in range(20):
        scene = scenes.build_scene("cross2", n, seed=seed)
        frames, truth = fio.generate_synthetic(scene, n)
        grays = [fio.to_grayscale(f) for f in frames]
        boxes = [tuple(o["box"]) for o in truth[0]["objects"]]
        records = trk.track_sequence(grays, boxes, cfg, seed=seed)
        final = {r.id: r for r in records if r.frame == n - 1}
        ok = True
        for i, obj in enumerate(truth[n - 1]["objects"]):
            if i not in final:
                ok = False
                continue
            r = final[i]
            iou = box_iou((r.cx - r.w / 2, r.cy - r.h / 2, r.w, r.h),
                          tuple(obj["box"]))
            ok &= iou > 0.5
        wins += ok

    # normalized competition shares must sum to one exactly
    frame = np.full((64, 96), 0.5)
    sp0 = trk.init_species(frame, 0, (10, 10, 20, 20), cfg)
    sp1 = trk.init_species(frame, 1, (20, 20, 20, 20), cfg)
    arena = trk.detect_occlusion([sp0, sp1])[0]
    trk.compete(arena, frame, {0: sp0, 1: sp1}, cfg)
    norm_ok = abs(sum(arena.interactive.values()) - 1.0) < 1e-12
    _report(11, "crossing identities", wins >= 16 and norm_ok,
            f"{wins}/20 seeds kept both identities (IoU > 0.5 after cross); "
            f"competition shares sum {'exact' if norm_ok else 'WRONG'}")


# ---------------------------------------------------------------------------
# 12. End-to-end pipeline on a two-object sequence
# ---------------------------------------------------------------------------

def _two_object_scene(n=100, seed=0):
    width = 14 + 3 * (n - 1) + 12 + 14
    a = fio.SceneObject(
        shape="rect",
        trajectory=fio.linear_trajectory((14, 14), (3, 0), (12, 12), n),
        albedo=(0.9, 0.85, 0.2))
    b = fio.SceneObject(
        shape="ellipse",
        trajectory=fio.linear_trajectory((width - 26, 46), (-3, 0),
                                         (14, 12), n),
        albedo=(0.15, 0.2, 0.85))
    return fio.SyntheticScene(width=width, height=64, background=0.55,
                              objects=[a, b], noise_sigma=0.02, seed=seed)


def test_criterion_12_end_to_end_pipeline(tmp_path):
    n = 100
    frames, truth = fio.generate_synthetic(_two_object_scene(n), n)
    seq = tmp_path / "seq"
    seq.mkdir()
    for t, frame in enumerate(frames):
        fio.write_pnm(seq / f"frame_{t:04d}.ppm", frame)
    fio.write_truth(seq / "truth.jsonl", truth)

    cfg = merge_config({"background": {"burn_in": 40},
                        "shadow": {"min_blob_area": 20},
                        "tracker": {"track_scale": False}})
    t0 = time.time()
    rec1, report = pl.run_pipeline(seq, tmp_path / "out1", cfg, seed=0)
    elapsed = time.time() - t0
    rec2, _ = pl.run_pipeline(seq, tmp_path / "out2", cfg, seed=0)
    key = [(r.frame, r.id, r.cx, r.cy, r.s, r.fit) for r in rec1]
    deterministic = key == [(r.frame, r.id, r.cx, r.cy, r.s, r.fit)
                            for r in rec2]
    ok = (report.success_rate >= 0.7 and report.fp_per_frame <= 0.2
          and deterministic and elapsed < 300)
    _report(12, "end-to-end pipeline", ok,
            f"success {report.success_rate:.3f} (>= 0.7), "
            f"fp/frame {report.fp_per_frame:.3f} (<= 0.2), "
            f"deterministic {deterministic}, {elapsed:.1f}s (< 300)")


# ---------------------------------------------------------------------------
# 13. Vocabulary-size sweep
# ---------------------------------------------------------------------------

def _oriented_texture(cls, rng):
    yy, xx = np.mgrid[0:64, 0:64]
    freq = rng.uniform(0.25, 0.5)
    phase = rng.uniform(0, 2 * np.pi)
    if cls == "horiz":
        img = 0.5 + 0.35 * np.sin(freq * yy + phase)
    elif cls == "vert":
        img = 0.5 + 0.35 * np.sin(freq * xx + phase)
    else:
        img = 0.5 + 0.35 * np.sin(freq * (xx + yy) / np.sqrt(2) + phase)
    return np.clip(img + rng.normal(0, 0.03, img.shape), 0, 1)


def test_criterion_13_vocabulary_sweep():
    classes = ["horiz", "vert", "diag"]
    acc_small = []
    acc_large = []
    for seed in range(5):
        rng = np.random.default_rng(seed)
        train = [(c, vocab.extract_descriptors(_oriented_texture(c, rng)))
                 for c in classes for _ in range(8)]
        test = [(c, vocab.extract_descriptors(_oriented_texture(c, rng)))
                for c in classes for _ in range(6)]
        pool = np.asarray([d.vector for _, ds in train for d in ds
                           if np.any(d.vector)])
        for K, out in ((20, acc_small), (200, acc_large)):
            cb = vocab.kmeans(pool, K, seed=seed, n_init=1)
            hists_tr = [vocab.bow_histogram(ds, cb) for _, ds in train]
            hists_te = [vocab.bow_histogram(ds, cb) for _, ds in test]
            model = train_svm(hists_tr, [c for c, _ in train], C=5.0)
            pred = [predict(model, h)[0] for h in hists_te]
            out.append(float(np.mean([p == c for p, (c, _)
                                      in zip(pred, test)])))
    mean_small = float(np.mean(acc_small))
    mean_large = float(np.mean(acc_large))
    ok = mean_large >= mean_small - 0.03
    _report(13, "vocabulary sweep", ok,
            f"mean accuracy K=20: {mean_small:.3f}, K=200: {mean_large:.3f} "
            f"(non-decreasing within 0.03 over 5 seeds)")
