"""Small-noise simulation of the reflected diffusion, its tube events, and Monte Carlo.

Every trajectory takes the reflected Euler step of ``reflect.advance`` with
a Gaussian shock added to the predictor.  With constant coefficients a whole
block of trajectories advances at once; state-dependent coefficients step
each trajectory through ``simulate_reflected_sde``.  Noise is drawn from
counter-based streams keyed by (seed, trajectory index), so estimates are
reproducible regardless of chunking or thread count.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .geometry import CoefficientField, Domain, ObliqueField
from .reflect import (ReferencePath, ReflectedPath, TimeGrid, _checked_start, _euler_reflect,
                      sup_deviations)
from .reflect import reflect_step  # noqa: F401 - re-exported; perfbench/tracing.py wraps it


class InfiniteEstimateError(RuntimeError):
    """Raised when a log-probability rate is requested for a zero estimate."""


@dataclass(frozen=True)
class NoiseScale:
    """Noise intensity; zero is allowed and degenerates to the drift ODE."""

    eps: float

    def __post_init__(self):
        if self.eps < 0.0:
            raise ValueError("noise scale must be nonnegative")


Obstacle = Callable[[float, np.ndarray], np.ndarray]


def tube_obstacle(reference, radius: float, height: float, complement: bool = False,
                  smoothing: float = 0.0) -> Obstacle:
    """Height times the (mollified) indicator of an instantaneous tube (or
    its complement) at each row of the states, for the PDE and the DP alike.

    ``reference`` maps time to a point (a ReferencePath).  Membership is
    strict inclusion within ``radius`` of the reference at the queried time,
    matching the node-sampled event semantics; with ``smoothing`` w > 0 the
    jump is replaced by a linear ramp over the band [radius - w, radius],
    which may not reach past the reference.
    """
    if smoothing > radius:
        raise ValueError(f"smoothing {smoothing} is wider than the tube radius {radius}")

    def psi(t: float, X: np.ndarray) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=float))
        dist = np.linalg.norm(X - np.asarray(reference.at(t))[None, :], axis=1)
        if smoothing > 0.0:
            ramp = np.clip((dist - (radius - smoothing)) / smoothing, 0.0, 1.0)
        else:
            ramp = (dist >= radius).astype(float)
        return height * (ramp if complement else (1.0 - ramp))

    return psi


@dataclass(frozen=True)
class EventSpec:
    """Path event defined by sup-norm distance to reference trajectories.

    kind "ball": the path stays strictly within radius ``radii[0]`` of the
    single reference at every grid node.  kind "intersection_of_complements":
    for every reference i the path deviates by at least ``radii[i]`` at some
    node.  The Monte Carlo count, the rate penalty and the PDE/DP obstacles
    all read the radii here.
    """

    kind: str
    references: Sequence[ReferencePath]
    radii: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "references", tuple(self.references))
        object.__setattr__(self, "radii", np.atleast_1d(np.asarray(self.radii, dtype=float)))
        if self.kind not in ("ball", "intersection_of_complements"):
            raise ValueError(f"unknown event kind {self.kind!r}")
        if not self.references:
            raise ValueError("an event needs at least one reference path")
        if self.kind == "ball" and len(self.references) != 1:
            raise ValueError("ball events take exactly one reference path")
        if len(self.references) != len(self.radii):
            raise ValueError("need one radius per reference")
        if not np.all(np.isfinite(self.radii) & (self.radii > 0.0)):
            raise ValueError("radii must be positive and finite")

    @classmethod
    def ball(cls, reference: ReferencePath, radius: float) -> "EventSpec":
        return cls("ball", [reference], np.array([radius]))

    @classmethod
    def complements(cls, references, radii) -> "EventSpec":
        return cls("intersection_of_complements", list(references), radii)

    def hits(self, max_devs) -> np.ndarray:
        """Membership of each path given its (B, n_refs) sup-norm deviations."""
        devs = np.atleast_2d(max_devs)
        if self.kind == "ball":
            return devs[:, 0] < self.radii[0]
        return np.all(devs >= self.radii[None, :], axis=1)

    def shortfalls(self, devs, tol: float) -> np.ndarray:
        """(B, n_refs) distance of each path from the event shrunk by ``tol``
        (radius - tol for a ball, radius + tol otherwise), given its deviations."""
        devs = np.atleast_2d(devs)
        if self.kind == "ball":
            return np.maximum(devs - (self.radii - tol), 0.0)
        return np.maximum((self.radii + tol) - devs, 0.0)

    def obstacles(self, height: float, smoothing: float = 0.0) -> list:
        """One tube obstacle per reference, zero where the event may be: the
        complement of the tube for a ball, the tube itself otherwise."""
        return [tube_obstacle(ref, r, height, complement=self.kind == "ball",
                              smoothing=smoothing)
                for ref, r in zip(self.references, self.radii)]

    def validate_in(self, domain: Domain) -> None:
        """Raise ValueError, naming ``references[j]``, when a reference path
        has a node outside the closure of ``domain`` by more than 1e-8."""
        for j, ref in enumerate(self.references):
            if domain.signed_distance_many(ref.values).min() < -1e-8:
                raise ValueError(f"references[{j}]: reference path leaves the domain closure")


@dataclass(frozen=True)
class McEstimate:
    p_hat: float
    n_samples: int
    ci_half_width: float
    n_hits: int

    @property
    def zero_hit(self) -> bool:
        return self.n_hits == 0


@dataclass(frozen=True)
class LogRateInterval:
    value: float
    lo: float
    hi: float


def trajectory_noise(seed: int, trajectory_id: int, n_steps: int, m: int,
                     gen: Optional[np.random.Generator] = None,
                     out: Optional[np.ndarray] = None) -> np.ndarray:
    """Standard normal (n_steps, m) block for one trajectory.

    Row k is a pure function of (seed, trajectory_id, k): the Philox stream is
    keyed by the pair and consumed in step order.  A caller drawing many
    blocks passes its own Philox-backed ``gen``, which is re-keyed to the
    pair (counter 0, empty buffer) and gives the bits of a fresh generator,
    and may pass ``out`` to draw into.
    """
    if gen is None:
        gen = np.random.Generator(np.random.Philox(key=[seed, trajectory_id]))
    else:
        gen.bit_generator.state = {
            "bit_generator": "Philox",
            "state": {"counter": np.zeros(4, dtype=np.uint64),
                      # the conversion Philox(key=...) applies, rounding included
                      "key": np.asarray([seed, trajectory_id]).astype(np.uint64)},
            "buffer": np.zeros(4, dtype=np.uint64), "buffer_pos": 4,
            "has_uint32": 0, "uinteger": 0}
    return gen.standard_normal((n_steps, m), out=out)


def simulate_reflected_sde(domain: Domain, field: ObliqueField, coeffs: CoefficientField,
                           eps: NoiseScale, x, grid: TimeGrid, seed: int,
                           trajectory_id: int = 0,
                           gen: Optional[np.random.Generator] = None) -> ReflectedPath:
    """One reflected Euler trajectory of the noisy dynamics from ``x`` at the
    grid's first node; ``gen`` is an optional Philox-backed generator to
    re-key (see ``trajectory_noise``)."""
    x0 = _checked_start(domain, x)
    xi = trajectory_noise(seed, trajectory_id, grid.n_steps, coeffs.m, gen)
    b_fun, s_fun = coeffs.at_eps(eps.eps).pointwise()
    nodes = grid.nodes
    scale = eps.eps * np.sqrt(grid.dts)

    def drift_at(k, xk):
        return b_fun(nodes[k], xk)

    def shock_at(k, xk):
        return scale[k] * (s_fun(nodes[k], xk) @ xi[k])

    return _euler_reflect(domain, field, x0, grid, drift_at, shock_at)


# ---------------------------------------------------------------------------
# Monte Carlo over trajectory blocks


# Trajectories per sub-block of the constant-coefficient shock fill.
_SUB = 64


def _block(domain, field, coeffs, eps, grid, x0, seed, ids, references):
    """Terminal states (B, d) and sup-norm deviations from each reference
    (B, n_refs) of one trajectory block.  Constant coefficients advance the
    whole block at once; otherwise each trajectory is simulated on its own."""
    g_nodes = [ref.at(grid.nodes) for ref in references]
    # One generator per block, re-keyed per trajectory; blocks may run on
    # several threads at once, so it is never shared between them.
    gen = np.random.Generator(np.random.Philox(key=0))
    if not coeffs.is_constant:
        ends, devs = [], []
        for tid in ids:
            pts = simulate_reflected_sde(domain, field, coeffs, eps, x0, grid, seed,
                                         trajectory_id=int(tid), gen=gen).points
            ends.append(pts[-1].copy())
            devs.append([np.linalg.norm(pts - g, axis=1).max() for g in g_nodes])
        return np.array(ends), np.array(devs)
    # One pre-scaled, time-major (n, B, d) shock array, so that step k reads
    # one contiguous (B, d) slice; it is filled _SUB trajectories at a time.
    sigma_t = coeffs.constant_sigma.T
    scale = eps.eps * np.sqrt(grid.dts)[:, None, None]
    shocks = np.empty((grid.n_steps, len(ids), sigma_t.shape[1]))
    xi = np.empty((min(len(ids), _SUB), grid.n_steps, coeffs.m))
    for j0 in range(0, len(ids), _SUB):
        part = xi[:len(ids) - j0]
        for j, tid in enumerate(ids[j0:j0 + len(part)]):
            trajectory_noise(seed, int(tid), grid.n_steps, coeffs.m, gen, out=part[j])
        np.multiply(scale, (part @ sigma_t).transpose(1, 0, 2),
                    out=shocks[:, j0:j0 + len(part)])
    b = coeffs.constant_b
    X = np.repeat(x0[None, :], len(ids), axis=0)
    return sup_deviations(domain, field, X, grid, lambda k, _X: b, g_nodes,
                          shock_at=lambda k, _X: shocks[k])


def estimate_event_probability(domain: Domain, field: ObliqueField, coeffs: CoefficientField,
                               eps: NoiseScale, x, grid: TimeGrid,
                               event: EventSpec, n_samples: int, seed: int,
                               chunk_size: int = 4096, n_threads: int = 1) -> McEstimate:
    """Crude Monte Carlo probability of the path event from ``x`` at the
    grid's first node.

    Trajectory i always consumes the stream keyed (seed, i), so the estimate
    is a pure function of (seed, config) independent of chunking or threads.
    """
    if n_samples < 100:
        raise ValueError("need at least 100 samples")
    for name, value in (("chunk_size", chunk_size), ("n_threads", n_threads)):
        if value < 1:
            raise ValueError(f"{name} must be at least 1, got {value}")
    x0 = _checked_start(domain, x)
    event.validate_in(domain)
    id_chunks = np.array_split(np.arange(n_samples), -(-n_samples // chunk_size))

    def work(ids):
        _, devs = _block(domain, field, coeffs, eps, grid, x0, seed, ids, event.references)
        return int(event.hits(devs).sum())

    if n_threads > 1:
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(max_workers=n_threads) as pool:
            counts = list(pool.map(work, id_chunks))
    else:
        counts = [work(ids) for ids in id_chunks]
    n_hits = int(sum(counts))
    p_hat = n_hits / n_samples
    ci = 1.96 * np.sqrt(p_hat * (1.0 - p_hat) / n_samples)
    return McEstimate(p_hat=p_hat, n_samples=n_samples, ci_half_width=float(ci),
                      n_hits=n_hits)


def log_rate_estimate(est: McEstimate, eps: NoiseScale) -> LogRateInterval:
    """-eps^2 log of the estimate, with the CI pushed through the transform."""
    if est.p_hat <= 0.0:
        raise InfiniteEstimateError("zero-hit estimate has no finite log rate")
    e2 = eps.eps ** 2
    value = -e2 * np.log(est.p_hat)
    hi_p = min(est.p_hat + est.ci_half_width, 1.0)
    lo_p = est.p_hat - est.ci_half_width
    lo = -e2 * np.log(hi_p)
    hi = -e2 * np.log(lo_p) if lo_p > 0.0 else np.inf
    return LogRateInterval(value=float(value), lo=float(lo), hi=float(hi))
