"""Per-object particle-swarm tracking with annealed Gaussian disturbance,
subspace appearance models, and competition over occluded regions."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .frames import validate_gray

PATCH = 32
PATCH_DIM = PATCH * PATCH
_GRID = np.linspace(0, 1, PATCH)  # sample positions across a box, as fractions


class TrackerError(Exception):
    pass


@dataclass
class TrackerConfig:
    n_particles: int = 50
    n_iters: int = 20
    c_anneal: float = 0.3
    sigma0: tuple[float, float, float] = (8.0, 8.0, 0.05)  # disturbance std devs
    q: int = 8  # appearance subspace rank
    window: int = 16  # appearance window capacity
    update_every: int = 5  # frames between subspace recomputes
    tau: float = 0.1  # selective-update pixel acceptance threshold
    eta: float = 4.0  # repulsion magnitude, px
    sigma_obs_sq: float = 51.2  # residual-norm scale (0.05 * 1024)
    fit_floor: float = 1e-12
    lost_patience: int = 10
    track_scale: bool = True
    stall_iters: int = 3  # early stop after this many unchanged gbest iters


@dataclass
class Species:
    """One tracked object: particle population plus appearance subspace."""

    id: int
    template: tuple[float, float]  # (w, h) at s = 1
    gbest: np.ndarray  # (cx, cy, s)
    gbest_fit: float
    mean_patch: np.ndarray
    particles: np.ndarray = None  # (N, 3)
    pbest: np.ndarray = None
    pbest_fit: np.ndarray = None
    U: np.ndarray | None = None  # (PATCH_DIM, q) orthonormal basis
    window: list = field(default_factory=list)
    masked_rects: list = field(default_factory=list)
    lost_count: int = 0
    frames_tracked: int = 0


@dataclass
class CompetitionArena:
    pair: tuple[int, int]
    rect: tuple[float, float, float, float]  # overlap x, y, w, h
    powers: dict = field(default_factory=dict)
    interactive: dict = field(default_factory=dict)
    winner: int | None = None


def state_box(sp: Species, state):
    """(x, y, w, h) of the box of each (cx, cy, s) state; each of shape (...)."""
    cx, cy, s = np.moveaxis(np.asarray(state, dtype=np.float64), -1, 0)
    w = sp.template[0] * s
    h = sp.template[1] * s
    return (cx - w / 2.0, cy - h / 2.0, w, h)


def _patch_axes(box):
    """Column and row sample positions (xs, ys), each (..., PATCH), of the grid."""
    x, y, w, h = (np.asarray(v, dtype=np.float64)[..., None] for v in box)
    return x + _GRID * np.maximum(w - 1, 1e-9), y + _GRID * np.maximum(h - 1, 1e-9)


def _split_axis(v: np.ndarray, n: int):
    """Lower and upper sample index and the fraction between them of each
    position v clamped to [0, n - 1], as mode="nearest" of a linear spline.

    At v = n - 1 both indices are n - 1, so no index leaves the axis.
    """
    v = np.minimum(np.maximum(v, 0.0), n - 1)
    i0 = v.astype(np.intp)  # floor, as v >= 0
    return i0, np.minimum(i0 + 1, n - 1), v - i0


def sample_patch(frame: np.ndarray, box) -> np.ndarray:
    """Bilinear resample of each box region to (..., PATCH, PATCH) (edge clamp).

    The grid is separable, so each box needs only its PATCH column and
    PATCH row positions.  While every box of the batch spans at most
    PATCH frame rows, each row of a box's contiguous run from its top row,
    clamped to the frame, is interpolated in x once, and one batched
    product with a (PATCH, span) weight matrix mixes those rows in y.  A
    taller batch interpolates rows y0 and y1 of every sample and mixes
    each pair directly: past PATCH rows the product costs more than the
    row evaluations it saves.
    """
    xs, ys = _patch_axes(box)
    fh, fw = frame.shape
    x0, x1, fx = (a[..., None, :] for a in _split_axis(xs, fw))
    y0, y1, fy = _split_axis(ys, fh)
    base = y0[..., :1]
    span = int((y1[..., -1:] - base).max(initial=0)) + 1
    if span > PATCH:
        return _lerp(_interp_rows(frame, y0, x0, x1, fx),
                     _interp_rows(frame, y1, x0, x1, fx), fy[..., None])
    rows = np.minimum(base + np.arange(span), fh - 1)
    # Where the bottom edge clamps (y0 == y1), fy is 0 and the second
    # write leaves weight 1 on that row.
    wy = np.zeros(y0.shape + (span,))
    np.put_along_axis(wy, (y1 - base)[..., None], fy[..., None], axis=-1)
    np.put_along_axis(wy, (y0 - base)[..., None], (1.0 - fy)[..., None], axis=-1)
    return wy @ _interp_rows(frame, rows, x0, x1, fx)


def _interp_rows(frame, rows, x0, x1, fx):
    """Frame rows (..., R) interpolated at the columns x0 + fx: (..., R, PATCH)."""
    at = (rows * frame.shape[1])[..., :, None] + x0
    flat = frame.ravel()
    left = flat[at]
    at += x1 - x0
    return _lerp(left, flat[at], fx)


def _lerp(a, b, t):
    """a + (b - a) * t, computed in the buffers of a and b (both overwritten).

    Working in place saves two temporaries as large as a; for tall boxes
    the page faults of fresh temporaries cost as much as the arithmetic.
    """
    b -= a
    b *= t
    a += b
    return a


def _rect_mask(box, rects) -> np.ndarray:
    """(..., PATCH, PATCH) mask of the pixels whose centers fall in any rect."""
    xs, ys = _patch_axes(box)
    mask = np.zeros(xs.shape[:-1] + (PATCH, PATCH), dtype=bool)
    for rx, ry, rw, rh in rects:
        mask |= (((ys >= ry) & (ys <= ry + rh))[..., :, None]
                 & ((xs >= rx) & (xs <= rx + rw))[..., None, :])
    return mask


def _project_residual(o: np.ndarray, U: np.ndarray | None) -> np.ndarray:
    """o - UU^T o for each row vector of o (..., PATCH_DIM)."""
    if U is None or U.size == 0:
        return o
    return o - (o @ U) @ U.T


def _power(patch: np.ndarray, sp: Species, config: TrackerConfig,
           mask: np.ndarray | None = None) -> np.ndarray:
    """exp(-||o - UU^T o||^2 / sigma^2) per (..., PATCH_DIM) patch, o = patch - mean.

    Pixels where mask is true are left out of the residual.
    """
    res = _project_residual(patch - sp.mean_patch, sp.U)
    if mask is not None:
        res = np.where(mask, 0.0, res)
    return np.exp(-(res * res).sum(axis=-1) / config.sigma_obs_sq)


def observe(frame: np.ndarray, sp: Species, state, config: TrackerConfig):
    """Subspace reconstruction likelihood exp(-||o - UU^T o||^2 / sigma^2).

    state is one (cx, cy, s) or a (..., 3) array of them; the fits have
    shape (...).  Boxes fully outside the frame floor at config.fit_floor;
    pixels under the species' masked competition rects are excluded from
    the residual; a box with every pixel masked shows the species nothing
    and floors too.
    """
    x, y, w, h = box = state_box(sp, state)
    fh, fw = frame.shape
    outside = ((x + w <= 0) | (y + h <= 0) | (x >= fw) | (y >= fh)
               | (w <= 0) | (h <= 0))
    shape = outside.shape + (PATCH_DIM,)
    patch = sample_patch(frame, box).reshape(shape)
    mask = _rect_mask(box, sp.masked_rects).reshape(shape) if sp.masked_rects else None
    fits = np.maximum(_power(patch, sp, config, mask), config.fit_floor)
    blind = outside if mask is None else outside | mask.all(axis=-1)
    return np.where(blind, config.fit_floor, fits)[()]


def init_species(frame: np.ndarray, sp_id: int, box, config: TrackerConfig) -> Species:
    """Start a species at a detection box; the first patch seeds the model."""
    x, y, w, h = box
    if w <= 0 or h <= 0:
        raise TrackerError("detection box must have positive size")
    state = np.array([x + w / 2.0, y + h / 2.0, 1.0])
    patch = sample_patch(frame, box).ravel()
    n = config.n_particles
    sp = Species(id=sp_id, template=(float(w), float(h)), gbest=state.copy(),
                 gbest_fit=1.0, mean_patch=patch.copy())
    sp.window = [patch.copy()]
    sp.particles = np.tile(state, (n, 1))
    sp.pbest = sp.particles.copy()
    sp.pbest_fit = np.full(n, 1.0)
    return sp


def step_particles(sp: Species, frame: np.ndarray, n_iter: int,
                   rng: np.random.Generator, config: TrackerConfig,
                   force=None) -> Species:
    """One swarm iteration: Gaussian attraction plus annealed disturbance.

    v <- |r1|(p - x) + |r2|(g - x) [+ |r3| F] + eps with eps covariance
    sigma0^2 * exp(-c * n_iter).
    """
    n = config.n_particles
    r1 = np.abs(rng.standard_normal((n, 3)))
    r2 = np.abs(rng.standard_normal((n, 3)))
    std = np.asarray(config.sigma0) * np.exp(-config.c_anneal * n_iter / 2.0)
    eps = rng.standard_normal((n, 3)) * std
    v = (r1 * (sp.pbest - sp.particles) + r2 * (sp.gbest - sp.particles) + eps)
    if force is not None:
        r3 = np.abs(rng.standard_normal(n))
        v = v + r3[:, None] * np.asarray(force)
    if not config.track_scale:
        v[:, 2] = 0.0
    sp.particles = sp.particles + v
    sp.particles[:, 2] = np.maximum(sp.particles[:, 2], 1e-3)
    _evaluate(sp, frame, config)
    return sp


def _evaluate(sp: Species, frame: np.ndarray, config: TrackerConfig) -> None:
    """Score the whole swarm, then update pbest and gbest as a loop over
    the particles in order would: pbest rises where a fit is strictly
    greater, and gbest moves to the first best particle if it beats the
    old gbest."""
    fits = observe(frame, sp, sp.particles, config)
    better = fits > sp.pbest_fit
    sp.pbest_fit[better] = fits[better]
    sp.pbest[better] = sp.particles[better]
    best = int(fits.argmax())
    if fits[best] > sp.gbest_fit:
        sp.gbest_fit = float(fits[best])
        sp.gbest = sp.particles[best].copy()


def detect_occlusion(species: list[Species]) -> list[CompetitionArena]:
    """An arena per species pair whose current gbest boxes intersect."""
    arenas = []
    for i, a in enumerate(species):
        for b in species[i + 1:]:
            ba = state_box(a, a.gbest)
            bb = state_box(b, b.gbest)
            x0 = max(ba[0], bb[0])
            y0 = max(ba[1], bb[1])
            x1 = min(ba[0] + ba[2], bb[0] + bb[2])
            y1 = min(ba[1] + ba[3], bb[1] + bb[3])
            if x1 > x0 and y1 > y0:
                arenas.append(CompetitionArena(pair=(a.id, b.id),
                                               rect=(x0, y0, x1 - x0, y1 - y0)))
    return arenas


def compete(arena: CompetitionArena, frame: np.ndarray,
            species: dict[int, Species], config: TrackerConfig) -> CompetitionArena:
    """Subspace power of each species on the overlap; loser masks it out.

    interactive_k = power_k / sum powers (sums to 1); the winner is the
    argmax, ties to the lower species id.
    """
    x, y, w, h = arena.rect
    if w <= 0 or h <= 0:
        raise TrackerError("competition arena has empty overlap")
    patch = sample_patch(frame, arena.rect).ravel()
    for k in arena.pair:
        arena.powers[k] = _power(patch, species[k], config)
    total = sum(arena.powers.values())
    if total <= 0:
        arena.interactive = {k: 0.5 for k in arena.pair}
    else:
        arena.interactive = {k: p / total for k, p in arena.powers.items()}
    arena.winner = min(arena.pair,
                       key=lambda k: (-arena.interactive[k], k))
    loser = arena.pair[0] if arena.winner == arena.pair[1] else arena.pair[1]
    species[loser].masked_rects.append(arena.rect)
    return arena


def repulsion_force(sp: Species, other: Species, arena: CompetitionArena,
                    config: TrackerConfig, rng: np.random.Generator) -> np.ndarray:
    """eta * overlap ratio * unit vector from the other species toward sp."""
    _, _, ow, oh = arena.rect
    box = state_box(sp, sp.gbest)
    area = box[2] * box[3]
    ratio = (ow * oh) / area if area > 0 else 0.0
    if ratio <= 0:
        return np.zeros(3)
    d = sp.gbest[:2] - other.gbest[:2]
    norm = np.linalg.norm(d)
    if norm < 1e-12:
        angle = rng.uniform(0.0, 2.0 * np.pi)
        d = np.array([np.cos(angle), np.sin(angle)])
        norm = 1.0
    unit = d / norm
    return np.array([config.eta * ratio * unit[0],
                     config.eta * ratio * unit[1], 0.0])


def selective_update(sp: Species, frame: np.ndarray,
                     arenas: list[CompetitionArena],
                     config: TrackerConfig) -> Species:
    """Append the gbest patch to the appearance window, gating occluded pixels.

    Overlap pixels enter only when their reconstruction error is below
    tau; rejected pixels are filled from the reconstruction.  Every
    update_every frames the subspace is recomputed from the window by SVD.
    """
    box = state_box(sp, sp.gbest)
    patch = sample_patch(frame, box).ravel()
    rec = sp.mean_patch + (patch - sp.mean_patch
                           - _project_residual(patch - sp.mean_patch, sp.U))
    overlap = _rect_mask(box, [a.rect for a in arenas if sp.id in a.pair]).ravel()
    reject = overlap & (np.abs(patch - rec) >= config.tau)
    merged = np.where(reject, rec, patch)
    sp.window.append(merged)
    if len(sp.window) > config.window:
        sp.window.pop(0)
    sp.frames_tracked += 1
    if sp.frames_tracked % config.update_every == 0 and len(sp.window) >= 2:
        data = np.stack(sp.window, axis=1)  # (PATCH_DIM, W)
        sp.mean_patch = data.mean(axis=1)
        centered = data - sp.mean_patch[:, None]
        u, svals, _ = np.linalg.svd(centered, full_matrices=False)
        rank = int((svals > 1e-10).sum())
        q = min(config.q, rank)
        sp.U = u[:, :q] if q > 0 else None
    return sp


@dataclass
class TrackRecord:
    frame: int
    id: int
    cx: float
    cy: float
    s: float
    w: float
    h: float
    fit: float


def _record(t: int, sp: Species) -> TrackRecord:
    s = sp.gbest[2]
    return TrackRecord(t, sp.id, float(sp.gbest[0]), float(sp.gbest[1]), float(s),
                       sp.template[0] * s, sp.template[1] * s, sp.gbest_fit)


def track_sequence(frames, detections, config: TrackerConfig | None = None,
                   seed: int = 0) -> list[TrackRecord]:
    """Track initial detections through a grayscale frame sequence.

    detections: list of (x, y, w, h) boxes on the first frame; box k starts
    species k.  Per frame: arenas are resolved first, then each species
    runs the annealed swarm with early stopping, then its appearance
    model updates selectively.  Deterministic for a seed.
    """
    if config is None:
        config = TrackerConfig()
    if not detections:
        raise TrackerError("need at least one initial detection")
    # One NaN pixel would reach every sample of a box whose rows span it.
    frames = [validate_gray(f) for f in frames]
    if not frames:
        raise TrackerError("need at least one frame")
    for t, frame in enumerate(frames):
        if frame.shape != frames[0].shape:
            raise TrackerError(f"frame {t} has shape {frame.shape}, "
                               f"frame 0 has {frames[0].shape}")
    rng = np.random.default_rng(seed)
    species = [init_species(frames[0], k, box, config)
               for k, box in enumerate(detections)]

    records = [_record(0, sp) for sp in species]

    active = {sp.id: sp for sp in species}
    for t in range(1, len(frames)):
        frame = frames[t]
        live = [active[k] for k in sorted(active)]
        for sp in live:
            sp.masked_rects = []
        arenas = detect_occlusion(live)
        sp_map = {sp.id: sp for sp in live}
        for arena in arenas:
            compete(arena, frame, sp_map, config)
        for sp in live:
            # Re-seed the swarm around the carried-over best state.
            n = config.n_particles
            sp.particles = sp.gbest + rng.standard_normal((n, 3)) * np.asarray(
                config.sigma0)
            if not config.track_scale:
                sp.particles[:, 2] = sp.gbest[2]
            sp.particles[:, 2] = np.maximum(sp.particles[:, 2], 1e-3)
            sp.pbest = sp.particles.copy()
            sp.pbest_fit = np.full(n, -np.inf)
            sp.gbest_fit = float(observe(frame, sp, sp.gbest, config))
            _evaluate(sp, frame, config)
            my_arenas = [a for a in arenas if sp.id in a.pair]
            stall = 0
            prev_best = sp.gbest.copy()
            for it in range(config.n_iters):
                force = None
                for arena in my_arenas:
                    other = sp_map[arena.pair[0] if arena.pair[1] == sp.id
                                   else arena.pair[1]]
                    f = repulsion_force(sp, other, arena, config, rng)
                    force = f if force is None else force + f
                step_particles(sp, frame, it, rng, config, force=force)
                if np.array_equal(sp.gbest, prev_best):
                    stall += 1
                    if stall >= config.stall_iters:
                        break
                else:
                    stall = 0
                    prev_best = sp.gbest.copy()
            selective_update(sp, frame, arenas, config)
            if sp.gbest_fit < config.fit_floor * (1.0 + 1e-9):
                sp.lost_count += 1
            else:
                sp.lost_count = 0
            records.append(_record(t, sp))
        for sp in list(active.values()):
            if sp.lost_count >= config.lost_patience:
                del active[sp.id]
        if not active:
            break
    return records
