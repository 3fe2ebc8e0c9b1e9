"""Per-object particle-swarm tracking with annealed Gaussian disturbance,
subspace appearance models, and competition over occluded regions."""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from .frames import validate_gray

PATCH = 32
PATCH_DIM = PATCH * PATCH
_GRID = np.linspace(0, 1, PATCH)  # sample positions across a box, as fractions
STALL_ITERS = 3  # a swarm stops early after this many iterations without a new gbest


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
    track_scale: bool = False  # the scale likelihood favours shrinking boxes

    def __post_init__(self):
        """Raise TrackerError for a value the tracker cannot run with."""
        if self.n_particles < 1 or self.n_iters < 1:
            raise TrackerError("tracker particle/iteration counts must be >= 1")
        if self.update_every < 1:
            raise TrackerError("tracker.update_every must be >= 1")
        if self.lost_patience < 1:
            raise TrackerError("tracker.lost_patience must be >= 1")
        if self.window < 2:
            raise TrackerError("tracker.window must be >= 2, the fewest patches "
                               "the subspace is updated from")
        if self.sigma_obs_sq <= 0:
            raise TrackerError("tracker.sigma_obs_sq must be > 0")
        if self.fit_floor <= 0:
            raise TrackerError("tracker.fit_floor must be > 0")
        if min(self.sigma0) < 0:
            raise TrackerError("tracker.sigma0 entries must be >= 0")
        if not 1 <= self.q <= PATCH_DIM:
            raise TrackerError(f"tracker.q must lie in [1, {PATCH_DIM}] (pixels per patch)")
        for key in ("c_anneal", "tau", "eta"):
            if getattr(self, key) < 0:
                raise TrackerError(f"tracker.{key} must be >= 0")


@dataclass
class Species:
    """One tracked object: particle population plus appearance subspace."""

    id: int
    template: tuple[float, float]  # (w, h) at s = 1
    gbest: np.ndarray  # (cx, cy, s)
    gbest_fit: float
    mean_patch: np.ndarray
    particles: np.ndarray = None  # (N, 3), drawn each frame by _seed_swarm
    pbest: np.ndarray = None
    pbest_fit: np.ndarray = None
    # (PATCH_DIM, q) orthonormal basis; q = 0 until the first subspace update
    U: np.ndarray = field(default_factory=lambda: np.zeros((PATCH_DIM, 0)))
    window: deque = field(default_factory=deque)  # last config.window patches
    masked_rects: list = field(default_factory=list)
    lost_count: int = 0
    frames_tracked: int = 0


@dataclass
class CompetitionArena:
    pair: tuple[int, int]
    rect: tuple[float, float, float, float]  # overlap x, y, w, h
    interactive: dict = field(default_factory=dict)
    winner: int | None = None


def state_box(sp: Species, state) -> np.ndarray:
    """(..., 4) boxes (x, y, w, h) of the (..., 3) states (cx, cy, s)."""
    state = np.asarray(state, dtype=np.float64)
    wh = state[..., 2:] * sp.template
    return np.concatenate((state[..., :2] - wh / 2, wh), -1)


def _positions(box) -> np.ndarray:
    """Sample positions (..., 2, PATCH) of the grid across each (..., 4) box
    (see sample_patch): columns in row 0, rows in row 1."""
    box = np.asarray(box, dtype=np.float64)
    return box[..., :2, None] + _GRID * np.maximum(box[..., 2:, None] - 1, 1e-9)


def sample_patch(frame: np.ndarray, box) -> np.ndarray:
    """Bilinear resample of each box region to (..., PATCH, PATCH) (edge clamp).

    box is one (x, y, w, h) or a (..., 4) array of them.  The grid is
    separable, so each box needs only its PATCH column and PATCH row
    positions, clamped to the frame and split into a lower index floor(v),
    an upper index min(floor(v) + 1, n - 1) and the fraction between them,
    for both axes at once.  While
    every box of the batch spans at most PATCH frame rows, each row of a
    box's contiguous run from its top row, clamped to the frame, is
    interpolated in x once, and one batched product with a (PATCH, span)
    weight matrix mixes those rows in y.  A taller batch interpolates rows
    y0 and y1 of every sample and mixes each pair directly: past PATCH rows
    the product costs more than the row evaluations it saves.
    """
    fh, fw = frame.shape
    last = np.array([[fw - 1], [fh - 1]])
    v = _positions(box)
    np.maximum(v, 0.0, out=v)
    np.minimum(v, last, out=v)
    i0 = v.astype(np.intp)  # floor, as v >= 0
    i1 = np.minimum(i0 + 1, last)  # at v = n - 1 both indices are n - 1
    v -= i0
    x0, x1, fx = i0[..., :1, :], i1[..., :1, :], v[..., :1, :]
    y0, y1, fy = i0[..., 1, :], i1[..., 1, :], v[..., 1, :]
    base = y0[..., :1]
    span = int((y1[..., -1:] - base).max(initial=0)) + 1
    if span > PATCH:
        return _lerp(_interp_rows(frame, y0, x0, x1, fx),
                     _interp_rows(frame, y1, x0, x1, fx), fy[..., None])
    # Each sample weighs fy on row y1 and 1 - fy on row y0 of the run, written
    # through flat indices in that order: a sample clamped to the last row
    # (y1 == y0, fy = 0) keeps weight 1, and rows past the frame weigh 0.
    wy = np.zeros(fy.shape + (span,))
    flat = wy.reshape(-1)
    at = (y0 - base) + span * np.arange(fy.size).reshape(fy.shape)
    flat[at + (y1 - y0)] = fy
    flat[at] = 1.0 - fy
    rows = np.minimum(base + np.arange(span), fh - 1)
    return wy @ _interp_rows(frame, rows, x0, x1, fx)


def _interp_rows(frame, rows, x0, x1, fx):
    """Frame rows (..., R) interpolated at the columns x0 + fx: (..., R, PATCH)."""
    at = (rows * frame.shape[1])[..., :, None] + x0
    flat = frame.ravel()
    left = flat.take(at)
    at += x1 - x0
    return _lerp(left, flat.take(at), fx)


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
    """(..., PATCH, PATCH) mask of the pixels of each (..., 4) box whose
    centers fall in any rect."""
    v = _positions(box)
    xs, ys = v[..., 0, :], v[..., 1, :]
    mask = np.zeros(xs.shape[:-1] + (PATCH, PATCH), dtype=bool)
    for rx, ry, rw, rh in rects:
        mask |= (((ys >= ry) & (ys <= ry + rh))[..., :, None]
                 & ((xs >= rx) & (xs <= rx + rw))[..., None, :])
    return mask


def _project_residual(o: np.ndarray, U: np.ndarray) -> np.ndarray:
    """o - UU^T o for each row vector of o (..., PATCH_DIM)."""
    return o - (o @ U) @ U.T


def _power(patch: np.ndarray, sp: Species, config: TrackerConfig,
           mask: np.ndarray | None = None) -> np.ndarray:
    """exp(-||o - UU^T o||^2 / sigma^2) per (..., PATCH_DIM) patch, o = patch - mean.

    patch is centred in place, so it holds o afterwards.  Pixels where mask
    is true are left out of the residual.  Unmasked, the energy is
    ||o||^2 - ||U^T o||^2 (U orthonormal), clamped at 0 against rounding,
    so no residual as large as o is formed.
    """
    o = patch
    o -= sp.mean_patch
    if mask is not None:
        res = np.where(mask, 0.0, _project_residual(o, sp.U))
        energy = np.einsum("...i,...i->...", res, res)
    else:
        c = o @ sp.U
        energy = np.maximum(np.einsum("...i,...i->...", o, o)
                            - np.einsum("...i,...i->...", c, c), 0.0)
    return np.exp(-energy / config.sigma_obs_sq)


def observe(frame: np.ndarray, sp: Species, state, config: TrackerConfig):
    """Subspace reconstruction likelihood exp(-||o - UU^T o||^2 / sigma^2).

    state is one (cx, cy, s) or a (..., 3) array of them; the fits have
    shape (...).  Boxes fully outside the frame floor at config.fit_floor;
    pixels under the species' masked competition rects are excluded from
    the residual; a box with every pixel masked shows the species nothing
    and floors too.
    """
    box = state_box(sp, state)
    corner, wh = box[..., :2], box[..., 2:]
    fh, fw = frame.shape
    outside = ((corner + wh <= 0) | (corner >= (fw, fh)) | (wh <= 0)).any(axis=-1)
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
    patch = sample_patch(frame, box).ravel()
    return Species(id=sp_id, template=(float(w), float(h)),
                   gbest=np.array([x + w / 2.0, y + h / 2.0, 1.0]), gbest_fit=1.0,
                   mean_patch=patch, window=deque([patch], maxlen=config.window))


def _sigma(config: TrackerConfig) -> np.ndarray:
    """Disturbance std devs of (cx, cy, s); a zero s entry freezes the scale."""
    return np.multiply(config.sigma0, (1.0, 1.0, config.track_scale))


def _seed_swarm(sp: Species, frame: np.ndarray, rng: np.random.Generator,
                config: TrackerConfig) -> None:
    """Scatter a fresh swarm around the carried-over gbest and score both
    in one batch, the gbest as row 0."""
    n = config.n_particles
    sp.particles = sp.gbest + rng.standard_normal((n, 3)) * _sigma(config)
    sp.particles[:, 2] = np.maximum(sp.particles[:, 2], 1e-3)
    sp.pbest = sp.particles.copy()
    sp.pbest_fit = np.full(n, -np.inf)
    fits = observe(frame, sp, np.vstack([sp.gbest, sp.particles]), config)
    sp.gbest_fit = float(fits[0])
    _update_bests(sp, fits[1:])


def step_particles(sp: Species, frame: np.ndarray, n_iter: int,
                   rng: np.random.Generator, config: TrackerConfig,
                   force=None) -> bool:
    """One swarm iteration: Gaussian attraction plus annealed disturbance.

    v <- |r1|(p - x) + |r2|(g - x) [+ |r3| F] + eps with eps covariance
    sigma0^2 * exp(-c * n_iter), its scale entry 0 unless config.track_scale.
    Returns whether the gbest moved.
    """
    n = config.n_particles
    r1 = np.abs(rng.standard_normal((n, 3)))
    r2 = np.abs(rng.standard_normal((n, 3)))
    std = _sigma(config) * np.exp(-config.c_anneal * n_iter / 2.0)
    eps = rng.standard_normal((n, 3)) * std
    v = (r1 * (sp.pbest - sp.particles) + r2 * (sp.gbest - sp.particles) + eps)
    if force is not None:
        r3 = np.abs(rng.standard_normal(n))
        v = v + r3[:, None] * np.asarray(force)
    sp.particles = sp.particles + v
    sp.particles[:, 2] = np.maximum(sp.particles[:, 2], 1e-3)
    return _update_bests(sp, observe(frame, sp, sp.particles, config))


def _update_bests(sp: Species, fits: np.ndarray) -> bool:
    """Update pbest and gbest from the swarm's fits as a loop over the
    particles in order would: pbest rises where a fit is strictly greater,
    and gbest moves to the first best particle if it beats the old gbest.
    Returns whether the gbest moved."""
    better = fits > sp.pbest_fit
    sp.pbest_fit[better] = fits[better]
    sp.pbest[better] = sp.particles[better]
    best = int(fits.argmax())
    if fits[best] <= sp.gbest_fit:
        return False
    sp.gbest_fit = float(fits[best])
    sp.gbest = sp.particles[best].copy()
    return True


def detect_occlusion(species: list[Species]) -> list[CompetitionArena]:
    """An arena per species pair whose current gbest boxes intersect."""
    arenas = []
    for a, b in combinations(species, 2):
        ax, ay, aw, ah = state_box(a, a.gbest)
        bx, by, bw, bh = state_box(b, b.gbest)
        x0, y0 = max(ax, bx), max(ay, by)
        x1, y1 = min(ax + aw, bx + bw), min(ay + ah, by + bh)
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
    powers = {k: _power(patch.copy(), species[k], config) for k in arena.pair}
    total = sum(powers.values())
    if total <= 0:
        arena.interactive = {k: 0.5 for k in arena.pair}
    else:
        arena.interactive = {k: p / total for k, p in powers.items()}
    arena.winner = min(arena.pair,
                       key=lambda k: (-arena.interactive[k], k))
    loser = arena.pair[0] if arena.winner == arena.pair[1] else arena.pair[1]
    species[loser].masked_rects.append(arena.rect)
    return arena


def repulsion_force(sp: Species, other: Species, arena: CompetitionArena,
                    config: TrackerConfig, rng: np.random.Generator) -> np.ndarray:
    """eta * overlap ratio * unit vector from the other species toward sp."""
    _, _, ow, oh = arena.rect
    _, _, w, h = state_box(sp, sp.gbest)
    ratio = (ow * oh) / (w * h)  # > 0: arenas overlap, and s >= 1e-3
    d = sp.gbest[:2] - other.gbest[:2]
    norm = np.linalg.norm(d)
    if norm < 1e-12:
        angle = rng.uniform(0.0, 2.0 * np.pi)
        d = np.array([np.cos(angle), np.sin(angle)])
        norm = 1.0
    return np.append(config.eta * ratio * (d / norm), 0.0)


def selective_update(sp: Species, frame: np.ndarray,
                     arenas: list[CompetitionArena],
                     config: TrackerConfig) -> None:
    """Append the gbest patch to the appearance window, gating occluded pixels.

    Overlap pixels enter only when their reconstruction error is below
    tau; rejected pixels are filled from the reconstruction.  Every
    update_every frames the subspace is recomputed from the window by SVD.
    """
    box = state_box(sp, sp.gbest)
    patch = sample_patch(frame, box).ravel()
    rects = [a.rect for a in arenas if sp.id in a.pair]
    if rects:
        o = patch - sp.mean_patch
        rec = sp.mean_patch + (o - _project_residual(o, sp.U))
        reject = _rect_mask(box, rects).ravel() & (np.abs(patch - rec) >= config.tau)
        patch = np.where(reject, rec, patch)
    sp.window.append(patch)
    sp.frames_tracked += 1
    if sp.frames_tracked % config.update_every == 0:
        data = np.stack(sp.window, axis=1)  # (PATCH_DIM, W)
        sp.mean_patch = data.mean(axis=1)
        centered = data - sp.mean_patch[:, None]
        u, svals, _ = np.linalg.svd(centered, full_matrices=False)
        sp.U = u[:, :min(config.q, int((svals > 1e-10).sum()))]


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


def track_sequence(frames, detections, config: TrackerConfig,
                   seed: int = 0) -> list[TrackRecord]:
    """Track initial detections through a grayscale frame sequence.

    frames is any iterable, consumed one frame at a time; tracking stops
    reading it once every species is lost.  detections: list of
    (x, y, w, h) boxes on the first frame; box k starts species k.  Per
    frame: arenas are resolved first, then each species runs the annealed
    swarm with early stopping, then its appearance model updates
    selectively.  Deterministic for a seed.
    """
    if not detections:
        raise TrackerError("need at least one initial detection")
    frames = iter(frames)
    first = next(frames, None)
    if first is None:
        raise TrackerError("need at least one frame")
    # One NaN pixel would reach every sample of a box whose rows span it.
    first = validate_gray(first)
    rng = np.random.default_rng(seed)
    # Species ids are the detection indices, so insertion order is id order.
    active = {k: init_species(first, k, box, config) for k, box in enumerate(detections)}
    records = [_record(0, sp) for sp in active.values()]
    for t, frame in enumerate(frames, 1):
        frame = validate_gray(frame)
        if frame.shape != first.shape:
            raise TrackerError(f"frame {t} has shape {frame.shape}, "
                               f"frame 0 has {first.shape}")
        for sp in active.values():
            sp.masked_rects = []
        arenas = detect_occlusion(list(active.values()))
        for arena in arenas:
            compete(arena, frame, active, config)
        for sp in active.values():
            _seed_swarm(sp, frame, rng, config)
            partners = [(a, active[a.pair[0] if a.pair[1] == sp.id else a.pair[1]])
                        for a in arenas if sp.id in a.pair]
            stall = 0
            for it in range(config.n_iters):
                force = sum(repulsion_force(sp, other, a, config, rng)
                            for a, other in partners) if partners else None
                moved = step_particles(sp, frame, it, rng, config, force=force)
                stall = 0 if moved else stall + 1
                if stall >= STALL_ITERS:
                    break
            selective_update(sp, frame, arenas, config)
            if sp.gbest_fit < config.fit_floor * (1.0 + 1e-9):
                sp.lost_count += 1
            else:
                sp.lost_count = 0
            records.append(_record(t, sp))
        active = {k: sp for k, sp in active.items()
                  if sp.lost_count < config.lost_patience}
        if not active:
            break
    return records
