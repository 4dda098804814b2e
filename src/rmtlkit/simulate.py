"""Monte Carlo engine: scenario-driven data generation and power studies.

Scenarios describe each group by two piecewise-Weibull sub-distributions
(event of interest and competing event) whose masses sum to 1, plus a
uniform censoring law given either as an upper bound or as a target
censoring rate to calibrate. Replication r of a study draws from its own
PCG64 stream seeded by ``SeedSequence(seed, (r,))``, so reports are
bit-identical for any worker count.

Those streams are not built as numpy objects per replication:
``_stream_states`` takes the seed's entropy pool from numpy's SeedSequence and
mixes in only the replication's word in Python ints, following numpy's
documented mixing and ``generate_state`` and PCG64's seeding step, and one
generator per thread is loaded with each state in turn. The draws are numpy's
own; a numpy release that changed that seeding would fail the state test in
``tests/test_simulate.py``, not only the reports.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import json
import math
import os
import threading
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from multiprocessing import util as mp_util
from pathlib import Path

import numpy as np

from .cif import _block_fits
from .data_model import EventCode, _check_columns, read_text
from .errors import DataValidationError, SmallSampleWarning, _check_int, _check_number
from .inference import TestMethod, _block_tests, _check_rho
from .rmtl import _block_taus, _check_alpha

_CALIBRATION_SEED = 1_000_003
_CALIBRATION_DRAWS = 100_000
_CHUNK_UNIFORMS = 1 << 16  # uniforms drawn at once: bounds a block's memory

# numpy's SeedSequence constants (its mixing works on uint32 words) and
# PCG64's multiplier, for _stream_states
_MASK32 = 0xFFFF_FFFF
_MASK128 = (1 << 128) - 1
_INIT_A, _MULT_A = 0x43B0_D7E5, 0x931E_8875
_INIT_B, _MULT_B = 0x8B51_F9DD, 0x58F3_8DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01_F9DD, 0x4973_F715
_PCG64_MULT = 0x2360_ED05_1FC6_5DA4_4385_DF64_9FCC_F645
_LOW_HALVES = 0x0000_FFFF_0000_FFFF_0000_FFFF_0000_FFFF  # low 16 bits of each word

_GROUPS = ("1", "2")  # the labels of a scenario's groups, in order
TAU_RULE = "min over groups of the last observed event-of-interest time"


def _check_uniforms(u) -> np.ndarray:
    """``u`` as a float array, refused unless every draw lies in [0, 1)."""
    u = np.asarray(u, dtype=float)
    # min/max checks: a NaN fails the first comparison
    if u.size and not (u.min() >= 0.0 and u.max() < 1.0):
        raise DataValidationError("uniform draws must lie in [0, 1)")
    return u


@dataclass(frozen=True)
class WeibullSegment:
    start: float
    shape: float
    scale: float

    def __post_init__(self):
        object.__setattr__(self, "start", _check_number(
            self.start, "segment start", lambda s: math.isfinite(s) and s >= 0, ">= 0"))
        for name in ("shape", "scale"):
            object.__setattr__(self, name, _check_number(
                getattr(self, name), f"segment {name}", lambda v: math.isfinite(v) and v > 0,
                "> 0"))


@dataclass(frozen=True)
class PiecewiseWeibullCif:
    """Sub-distribution I(t) = mass * F(t) with piecewise-Weibull F.

    F is assembled on the cumulative-hazard scale so it is continuous and
    strictly increasing across segment boundaries regardless of the
    per-segment shapes and scales.
    """

    mass: float
    segments: tuple[WeibullSegment, ...]

    def __post_init__(self):
        object.__setattr__(self, "mass", _check_number(self.mass, "mass",
                                                       lambda m: 0.0 < m <= 1.0, "in (0, 1]"))
        if not self.segments:
            raise DataValidationError("at least one Weibull segment required")
        starts = [s.start for s in self.segments]
        if starts[0] != 0.0:
            raise DataValidationError("first segment must start at 0")
        if any(b <= a for a, b in zip(starts, starts[1:])):
            raise DataValidationError("segment starts must be strictly ascending")

    @functools.cached_property
    def _pieces(self):
        # (starts, shapes, scales, hazard at own start, offset at start, 1 / shapes)
        starts = np.array([s.start for s in self.segments])
        shapes = np.array([s.shape for s in self.segments])
        scales = np.array([s.scale for s in self.segments])
        edge = (starts / scales) ** shapes
        nxt = (np.append(starts[1:], 0.0) / scales) ** shapes
        offsets = np.concatenate(([0.0], np.cumsum((nxt - edge)[:-1])))
        return starts, shapes, scales, edge, offsets, 1.0 / shapes

    def cumulative_hazard(self, t):
        t = np.asarray(t, dtype=float)
        starts, shapes, scales, edge, offsets, _ = self._pieces
        seg = np.clip(np.searchsorted(starts, t, side="right") - 1, 0, None)
        tt = np.clip(t, 0.0, None)
        return offsets[seg] + (tt / scales[seg]) ** shapes[seg] - edge[seg]

    def cdf(self, t):
        """Conditional event-time CDF F(t) (mass not applied)."""
        return -np.expm1(-self.cumulative_hazard(t))

    def inverse_cdf(self, u):
        """Invert F exactly: t = H^-1(-log(1 - u)) on the segment holding it."""
        u = _check_uniforms(u)
        _, _, scales, edge, offsets, inverse_shapes = self._pieces
        h = -np.log1p(-u)
        # offsets[0] = 0 <= h, so the segment is the count of later offsets <= h
        seg = offsets[1:].searchsorted(h, side="right")
        return scales[seg] * (h - offsets[seg] + edge[seg]) ** inverse_shapes[seg]


@dataclass(frozen=True)
class GroupSpec:
    interest: PiecewiseWeibullCif
    competing: PiecewiseWeibullCif
    n: int

    def __post_init__(self):
        if abs(self.interest.mass + self.competing.mass - 1.0) > 1e-9:
            raise DataValidationError(
                "interest and competing masses must sum to 1, got "
                f"{self.interest.mass} + {self.competing.mass}"
            )
        object.__setattr__(self, "n", _check_int(self.n, "group size", 2))


@dataclass(frozen=True)
class CensoringSpec:
    """Uniform censoring: explicit upper bound, or a rate target to calibrate."""

    target: float | None = None
    bound: float | None = None

    def __post_init__(self):
        if self.target is not None and self.bound is not None:
            raise DataValidationError("censoring: give either target or c, not both")
        if self.target is not None:
            object.__setattr__(self, "target", _check_number(
                self.target, "censoring target", lambda t: 0.0 <= t <= 0.9, "in [0, 0.9]"))
        if self.bound is not None:
            object.__setattr__(self, "bound", _check_number(
                self.bound, "censoring bound", lambda c: math.isfinite(c) and c > 0,
                "finite and > 0"))


@dataclass(frozen=True)
class ScenarioSpec:
    groups: tuple[GroupSpec, GroupSpec]
    censoring: CensoringSpec = CensoringSpec()
    label: str = ""

    def __post_init__(self):
        if len(self.groups) != 2:
            raise DataValidationError("a scenario needs exactly two groups")


@dataclass(frozen=True)
class MethodSummary:
    method: TestMethod
    rejections: int
    valid_reps: int
    degenerate_reps: int
    rate: float
    mc_se: float


@dataclass(frozen=True)
class SimulationReport:
    scenario_label: str
    methods: tuple[MethodSummary, ...]
    reps: int
    degenerate_reps: int
    seed: int
    alpha: float
    rho: float
    tau_rule: str
    censoring_bounds: tuple[float, float] | None

    def to_dict(self) -> dict:
        out = dataclasses.asdict(self)
        if self.censoring_bounds:
            out["censoring_bounds"] = list(self.censoring_bounds)
        # popped before it is set again, so "methods" comes last
        out["methods"] = {m.pop("method").value: m for m in out.pop("methods")}
        return out


@functools.lru_cache(maxsize=64)
def _law_table(groups):
    """The laws of ``groups`` as one table: per column (a single entry for
    one group), the interest mass and each cause's first piece; the most
    pieces a law has after its first; and each piece's scale, offset, edge,
    1/shape and next offset in its law."""
    laws = [law for g in groups for law in (g.interest, g.competing)]
    _, _, scales, edges, offsets, powers = map(
        np.concatenate, zip(*(law._pieces for law in laws)))
    counts = np.array([len(law.segments) for law in laws])
    first = np.cumsum(counts) - counts
    following = np.append(offsets[1:], np.inf)  # +inf after a law's last piece
    following[first[1:] - 1] = np.inf
    sizes = [g.n for g in groups] if len(groups) > 1 else 1
    return (np.repeat([g.interest.mass for g in groups], sizes),
            np.repeat(first.reshape(-1, 2).T, sizes, axis=1), counts.max() - 1,
            scales, offsets, edges, powers, following)


def sample_events(groups, u):
    """Draw (times, codes) for a GroupSpec or a tuple of them from uniforms
    ``u`` of shape (2, ..., N), each group's subjects in turn along the last
    axis (any N for one group): ``u[0]`` picks the cause by the group's
    interest mass, ``u[1]`` the time by inverting that cause's conditional
    CDF, all subjects at once. So ``u`` of shape (2, R, N) draws R samples."""
    if isinstance(groups, GroupSpec):
        groups = (groups,)
    if u.shape[0] != 2:
        raise DataValidationError(f"u must hold 2 planes (cause, time), got {u.shape[0]}")
    mass, first, steps, scales, offsets, edges, powers, following = _law_table(groups)
    if mass.size not in (1, u.shape[-1]):
        raise DataValidationError(f"u has {u.shape[-1]} columns for {mass.size} subjects")
    u = _check_uniforms(u)
    is_interest = u[0] < mass
    h = -np.log1p(-u[1])
    piece = np.where(is_interest, *first)
    for _ in range(steps):  # on to the next piece while its offset <= h
        piece += following.take(piece) <= h
    times = (scales.take(piece) * (h - offsets.take(piece) + edges.take(piece))
             ** powers.take(piece))
    codes = np.where(is_interest, int(EventCode.INTEREST), int(EventCode.COMPETING))
    return times, codes


def apply_censoring(times, codes, bound, u):
    """Censor with C = bound * u, u uniform on [0, 1), so C ~ Uniform(0, bound);
    a tie T == C stays an event. ``bound`` is a number or an array of bounds
    that broadcasts to ``times``, one per subject."""
    if not np.min(bound) > 0:  # a NaN fails too
        raise DataValidationError(f"censoring bound must be > 0, got {bound!r}")
    u = _check_uniforms(u)
    try:
        c = np.broadcast_to(bound * u, np.shape(times))
    except ValueError:
        raise DataValidationError(
            f"censoring bound of shape {np.shape(bound)} and uniforms of shape "
            f"{np.shape(u)} do not broadcast to times of shape {np.shape(times)}") from None
    censored = c < times
    observed = np.where(censored, c, times)
    new_codes = np.where(censored, int(EventCode.CENSORED), codes)
    return observed, new_codes


def calibrate_censoring(scn: ScenarioSpec) -> tuple[float, float] | None:
    """Per-group uniform bounds of the scenario's censoring: the pair
    (c, c) for a bound c, the calibrated bounds for a nonzero target, and
    None for no censoring.

    A target sets both groups to the same rate (so a scenario with different
    event-time laws gets different bounds). The rate of C ~ U(0, c) on
    event times T is mean(min(T, c))/c, taken over 10^5 event-time draws
    per group from a fixed calibration seed. With the draws sorted and S_k
    the sum of the k smallest, that rate equals (S_k + (n-k)c)/(nc) for c
    between the k-th and (k+1)-th draw and falls as c grows, so the bound
    is solved exactly on the last piece whose left end still has a rate at
    or above the target: c = S_k/(n*target - (n-k)). The bounds depend only
    on the groups' event-time laws and the target, not on the group sizes,
    and are kept for the life of the process.
    """
    cen = scn.censoring
    if cen.bound is not None:
        return cen.bound, cen.bound
    if not cen.target:
        return None
    return _calibrated_bounds(tuple((g.interest, g.competing) for g in scn.groups),
                              cen.target)


@functools.lru_cache(maxsize=64)
def _calibrated_bounds(laws, target: float) -> tuple[float, float]:
    bounds = []
    for g, (interest, competing) in enumerate(laws):
        rng = np.random.default_rng(
            np.random.SeedSequence(entropy=_CALIBRATION_SEED, spawn_key=(g,))
        )
        group = GroupSpec(interest, competing, n=_CALIBRATION_DRAWS)
        t = np.sort(sample_events(group, rng.random((2, _CALIBRATION_DRAWS)))[0])
        n = len(t)
        sums = np.cumsum(t)
        k = np.arange(1, n + 1)
        # rate at the k-th draw >= target, multiplied out so no draw divides
        k_last = np.flatnonzero(sums + (n - k) * t >= target * n * t)[-1] + 1
        bounds.append(float(sums[k_last - 1] / (n * target - (n - k_last))))
    return bounds[0], bounds[1]


def _hash_constants(const, mult, count):
    """``count`` steps of a SeedSequence hash constant, as pairs (the
    constant, the next one)."""
    return [(const, const := const * mult & _MASK32) for _ in range(count)]


def _stream_states(seed: int):
    """A function taking reps and yielding, for each, the (state, inc)
    that ``PCG64(SeedSequence(seed, spawn_key=(rep,)))`` starts from.

    SeedSequence hashes the seed's uint32 words (padded with zeros to four),
    then the rep's, into a pool of four words; the pool after the seed's is
    numpy's ``SeedSequence(seed).pool``. A rep below 2^32 is one word, mixed
    in here under the hash constants that follow the seed's words; the pool
    is then expanded by ``generate_state(4, uint64)`` into (initstate,
    initseq), and PCG64's seeding step gives inc = 2·initseq + 1 and
    state = ((inc + initstate)·MULT + inc) mod 2^128. A longer rep takes
    (initstate, initseq) from numpy's own SeedSequence.
    """
    (a0, b0), (a1, b1), (a2, b2), (a3, b3) = _hash_constants(
        _INIT_A, _MULT_A, 4 * max(4, -(-seed.bit_length() // 32)) + 4)[-4:]
    l0, l1, l2, l3 = (_MIX_MULT_L * p for p in np.random.SeedSequence(seed).pool.tolist())
    (c0, d0), (c1, d1), (c2, d2), (c3, d3), (c4, d4), (c5, d5), (c6, d6), (c7, d7) = (
        _hash_constants(_INIT_B, _MULT_B, 8))

    def states(reps):
        mask, mult_r, low_halves = _MASK32, _MIX_MULT_R, _LOW_HALVES
        for rep in reps:
            if rep > mask:
                s0, s1, s2, s3 = np.random.SeedSequence(
                    seed, spawn_key=(rep,)).generate_state(4, np.uint64).tolist()
                initstate, initseq = s0 << 64 | s1, s2 << 64 | s3
            else:
                # the rep's word mixed into each pool word, unrolled
                h = (rep ^ a0) * b0 & mask
                q0 = (l0 - mult_r * (h ^ h >> 16)) & mask
                h = (rep ^ a1) * b1 & mask
                q1 = (l1 - mult_r * (h ^ h >> 16)) & mask
                h = (rep ^ a2) * b2 & mask
                q2 = (l2 - mult_r * (h ^ h >> 16)) & mask
                h = (rep ^ a3) * b3 & mask
                q3 = (l3 - mult_r * (h ^ h >> 16)) & mask
                q0, q1, q2, q3 = q0 ^ q0 >> 16, q1 ^ q1 >> 16, q2 ^ q2 >> 16, q3 ^ q3 >> 16
                # generate_state hashes the pool words in turn into eight words
                # o0..o7 (o ^= o >> 16 last, done here on all four words of a
                # 128-bit value at once); uint64 k is o[2k] | o[2k+1] << 32, and
                # initstate and initseq are uint64 0, 1 and 2, 3, high word first
                x = (((q0 ^ c0) * d0 & mask) << 64 | ((q1 ^ c1) * d1 & mask) << 96
                     | (q2 ^ c2) * d2 & mask | ((q3 ^ c3) * d3 & mask) << 32)
                y = (((q0 ^ c4) * d4 & mask) << 64 | ((q1 ^ c5) * d5 & mask) << 96
                     | (q2 ^ c6) * d6 & mask | ((q3 ^ c7) * d7 & mask) << 32)
                initstate, initseq = x ^ x >> 16 & low_halves, y ^ y >> 16 & low_halves
            inc = (initseq << 1 | 1) & _MASK128
            yield ((inc + initstate) * _PCG64_MULT + inc) & _MASK128, inc

    return states


# Each thread's PCG64 bit generator and the Generator drawing from it, made on
# its first draw; each draw loads its own stream's state first.
_thread = threading.local()


def _samples(scn, start, stop, seed, bounds):
    """Yield the replications in [start, stop) a chunk at a time, as
    (times, codes, keep): (R, N) arrays holding one replication per row,
    group 1's subjects first, and whether each has an observed event of
    interest in both groups.

    Replication r draws all its uniforms in one call on its own stream
    (seed, r): per group in turn, n for the causes, n for the times and,
    when censored, n for the censoring times. Replications are drawn in
    chunks of at most _CHUNK_UNIFORMS uniforms (or of one replication that
    alone needs more), each stream straight into its row of the chunk: the
    thread's generator is loaded with each stream's state in turn. A chunk
    is copied into cause, time and censoring planes of both groups at once,
    then sampled, censored and checked in one pass each.
    """
    width = 2 if bounds is None else 3
    sizes = [group.n for group in scn.groups]
    total, cut = width * sum(sizes), width * sizes[0]
    bound = None if bounds is None else np.repeat(bounds, sizes)
    step = max(1, _CHUNK_UNIFORMS // total)
    stream_states = _stream_states(seed)
    if not hasattr(_thread, "pair"):
        bit_generator = np.random.PCG64(0)  # its state is replaced before each draw
        _thread.pair = bit_generator, np.random.Generator(bit_generator)
    bit_generator, generator = _thread.pair
    stream = {"state": 0, "inc": 0}
    loaded = {"bit_generator": "PCG64", "state": stream, "has_uint32": 0, "uinteger": 0}
    for first in range(start, stop, step):
        reps = range(first, min(first + step, stop))
        u = np.empty((len(reps), total))
        for row, (state, inc) in zip(u, stream_states(reps)):
            stream["state"], stream["inc"] = state, inc
            bit_generator.state = loaded
            generator.random(out=row)
        planes = np.concatenate([part.reshape(len(u), width, -1).swapaxes(0, 1)
                                 for part in (u[:, :cut], u[:, cut:])], axis=2)
        times, codes = sample_events(scn.groups, planes[:2])
        if bounds is not None:
            times, codes = apply_censoring(times, codes, bound, planes[2])
        interest = codes == int(EventCode.INTEREST)
        keep = np.logical_or.reduceat(interest, [0, sizes[0]], axis=1).all(axis=1)
        _check_columns(times, codes)
        yield times, codes, keep


def _run_block(scn, methods, start, stop, seed, alpha, rho, bounds):
    """Counts over [start, stop): the skipped replications, then each
    method's rejections, valid and degenerate replications, in ``methods``
    order. Each chunk's kept replications are fitted and tested in one pass."""
    sizes = [group.n for group in scn.groups]
    counts = np.zeros(1 + 3 * len(methods), dtype=np.int64)
    for times, codes, keep in _samples(scn, start, stop, seed, bounds):
        kept = np.count_nonzero(keep)
        counts[0] += len(keep) - kept
        if kept == 0:
            continue
        t, c = times[keep], codes[keep]
        results = _block_tests(_block_fits(t, c, sizes), _block_taus(t, c, sizes, _GROUPS),
                               methods, rho)
        for k, method in enumerate(methods):
            _, p, degenerate = results[method]
            failed = np.count_nonzero(degenerate)
            counts[3 * k + 1:3 * k + 4] += np.count_nonzero(p < alpha), kept - failed, failed
    return counts


# The pool kept between studies: (id of the process that made it, worker
# count, executor, its exit finalizer), or None. The lock is held while a
# study gets the pool and submits its blocks, so one thread never replaces
# a pool that another is submitting to; a replaced pool still finishes the
# blocks submitted to it.
_pool = None
_pool_lock = threading.Lock()


def _keep_worker_heap():
    """Pool initializer: pin glibc's mmap and trim thresholds at the ceiling of
    its dynamic rule (both, since setting one freezes the other), so a worker
    keeps its heap between blocks. Does nothing where there is no ``mallopt``."""
    import ctypes
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD
    mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD


def _worker_pool(workers: int) -> ProcessPoolExecutor:
    """This process's pool of ``workers`` worker processes, kept for the
    next study. It is made again when the worker count changes, when it is
    broken (a worker died), and in a forked child, whose inherited pool
    belongs to the parent and is left alone. Call with ``_pool_lock`` held.
    """
    global _pool
    if _pool is not None:
        pid, size, pool, stop = _pool
        if pid == os.getpid():
            if size == workers and not pool._broken:
                return pool
            stop()  # joins the pool's thread, so none is alive at the next fork
        _pool = None
    pool = ProcessPoolExecutor(max_workers=workers, initializer=_keep_worker_heap)
    # A multiprocessing child joins its own children (these workers) at exit
    # before the concurrent.futures exit hook would end them, so the pool is
    # shut down by a finalizer that runs first: priority above the 10 of the
    # call queue's feeder thread, which the shutdown still needs.
    stop = mp_util.Finalize(None, pool.shutdown, exitpriority=100)
    _pool = (os.getpid(), workers, pool, stop)
    return pool


def _normalize_methods(methods) -> tuple[TestMethod, ...]:
    if isinstance(methods, (str, TestMethod)):
        methods = [methods]
    out = tuple(TestMethod(m) for m in methods)
    if not out:
        raise DataValidationError("at least one test method required")
    if len(set(out)) < len(out):
        raise DataValidationError(f"each test method at most once, got {[m.value for m in out]}")
    return out


def run_monte_carlo(
    scn: ScenarioSpec,
    methods=(TestMethod.DIFF, TestMethod.SDIFF),
    reps: int = 5000,
    seed: int = 0,
    alpha: float = 0.05,
    rho: float = 0.5,
    workers: int = 1,
) -> SimulationReport:
    """Replicated size/power study of the selected tests under a scenario.

    Replication r draws from an independent stream derived from (seed, r),
    making the report deterministic for any worker count. ``seed`` is an
    integer >= 0 (a numpy integer counts as its value). tau is chosen
    per replication as the minimum over groups of the last observed event
    of interest; replications where a group has none are excluded from the
    rate denominator and reported separately. With ``workers > 1`` the
    replications run on a pool of worker processes that is kept for the
    next study in this process with the same worker count.
    """
    reps, workers = _check_int(reps, "reps", 1), _check_int(workers, "workers", 1)
    seed = _check_int(seed, "seed", 0, "an integer >= 0")
    alpha, rho = _check_alpha(alpha), _check_rho(rho)
    methods = _normalize_methods(methods)
    bounds = calibrate_censoring(scn)

    run = functools.partial(_run_block, scn, methods, seed=seed, alpha=alpha, rho=rho,
                            bounds=bounds)
    if workers == 1:
        counts = run(0, reps)
    else:
        edges = np.linspace(0, reps, min(4 * workers, reps) + 1, dtype=int).tolist()
        with _pool_lock:
            blocks = _worker_pool(workers).map(run, edges[:-1], edges[1:])
        # map cancels the blocks not yet started when a block raises or the
        # wait is interrupted, so the next study does not wait behind them
        counts = sum(blocks)

    summaries = []
    for method, (rej, valid, degen) in zip(methods, counts[1:].reshape(-1, 3).tolist()):
        rate = rej / valid if valid else float("nan")
        mc_se = math.sqrt(rate * (1.0 - rate) / valid) if valid else float("nan")
        summaries.append(MethodSummary(method, rej, valid, degen, rate, mc_se))
    return SimulationReport(
        scenario_label=scn.label,
        methods=tuple(summaries),
        reps=reps,
        degenerate_reps=int(counts[0]),
        seed=seed,
        alpha=alpha,
        rho=rho,
        tau_rule=TAU_RULE,
        censoring_bounds=bounds,
    )


def observed_power_at_n(
    scn: ScenarioSpec,
    n_total: int,
    methods=(TestMethod.DIFF, TestMethod.SDIFF),
    reps: int = 1000,
    seed: int = 0,
    alpha: float = 0.05,
    rho: float = 0.5,
    ratio: float | None = None,
    workers: int = 1,
) -> SimulationReport:
    """Rerun a scenario at a designed total sample size.

    The total is split by ``ratio`` (n2/n1; defaults to the scenario's own
    group-size ratio) with the first group rounded up.
    """
    n_total = _check_int(n_total, "n_total", 4)
    if n_total < 20:
        warnings.warn(
            f"n_total={n_total} is too small for the normal approximation "
            "to be reliable",
            SmallSampleWarning,
            stacklevel=2,
        )
    r = (scn.groups[1].n / scn.groups[0].n if ratio is None
         else _check_number(ratio, "ratio", lambda r: r > 0, "> 0"))
    n1 = math.ceil(n_total / (1.0 + r))
    n2 = n_total - n1
    if n1 < 2 or n2 < 2:
        raise DataValidationError(
            f"split n1={n1}, n2={n2} leaves a group below the minimum size 2"
        )
    resized = dataclasses.replace(
        scn,
        groups=(
            dataclasses.replace(scn.groups[0], n=n1),
            dataclasses.replace(scn.groups[1], n=n2),
        ),
    )
    return run_monte_carlo(
        resized, methods, reps=reps, seed=seed, alpha=alpha, rho=rho, workers=workers,
    )


# ---------------------------------------------------------------------------
# Scenario file handling


def _require(condition: bool, field: str, message: str):
    if not condition:
        raise DataValidationError(f"scenario field {field!r}: {message}")


def _object(obj, path: str, required, optional=()):
    _require(isinstance(obj, dict), path, "must be an object")
    unknown = set(obj) - set(required) - set(optional)
    _require(not unknown, path, f"unknown key(s) {sorted(unknown)}")
    for key in required:
        _require(key in obj, f"{path}.{key}", "is required")


def _number(obj, key: str, path: str) -> float:
    _require(key in obj, f"{path}.{key}", "is required")
    value = obj[key]
    _require(isinstance(value, (int, float)) and not isinstance(value, bool),
             f"{path}.{key}", "must be a number")
    return float(value)


@contextlib.contextmanager
def _field(path: str):
    """Prefix a constructor's validation error with the scenario field."""
    try:
        yield
    except DataValidationError as exc:
        raise DataValidationError(f"scenario field {path!r}: {exc}") from None


def _parse_subdist(obj, path: str) -> PiecewiseWeibullCif:
    _object(obj, path, ("p", "segments"))
    mass = _number(obj, "p", path)
    segs = obj["segments"]
    _require(isinstance(segs, list) and segs, f"{path}.segments", "must be a nonempty list")
    parsed = []
    for i, seg in enumerate(segs):
        spath = f"{path}.segments[{i}]"
        # each key is checked as required, then as a number, before the next
        _object(seg, spath, (), ("start", "shape", "scale"))
        values = [_number(seg, key, spath) for key in ("start", "shape", "scale")]
        with _field(spath):
            parsed.append(WeibullSegment(*values))
    with _field(path):
        return PiecewiseWeibullCif(mass=mass, segments=tuple(parsed))


def scenario_from_dict(data: dict) -> ScenarioSpec:
    """Validate a scenario mapping, reporting the offending field on error."""
    _object(data, "<root>", (), ("groups", "censoring", "label"))
    groups_raw = data.get("groups")
    _require(
        isinstance(groups_raw, list) and len(groups_raw) == 2,
        "groups",
        "must be a list of exactly two groups",
    )
    groups = []
    for k, g in enumerate(groups_raw):
        gpath = f"groups[{k}]"
        _object(g, gpath, ("n", "interest", "competing"))
        _require(
            isinstance(g["n"], int) and not isinstance(g["n"], bool),
            f"{gpath}.n",
            "must be an integer",
        )
        interest = _parse_subdist(g["interest"], f"{gpath}.interest")
        competing = _parse_subdist(g["competing"], f"{gpath}.competing")
        with _field(gpath):
            groups.append(GroupSpec(interest=interest, competing=competing, n=g["n"]))

    censoring = CensoringSpec()
    if "censoring" in data:
        c = data["censoring"]
        _object(c, "censoring", (), ("target", "c"))
        target, bound = (
            _number(c, key, "censoring") if key in c else None for key in ("target", "c")
        )
        with _field("censoring"):
            censoring = CensoringSpec(target=target, bound=bound)

    label = data.get("label", "")
    _require(isinstance(label, str), "label", "must be a string")
    return ScenarioSpec(groups=(groups[0], groups[1]), censoring=censoring, label=label)


def scenario_to_dict(scn: ScenarioSpec) -> dict:
    def subdist(sd: PiecewiseWeibullCif) -> dict:
        return {
            "p": sd.mass,
            "segments": [
                {"start": s.start, "shape": s.shape, "scale": s.scale}
                for s in sd.segments
            ],
        }

    out: dict = {
        "label": scn.label,
        "groups": [
            {"n": g.n, "interest": subdist(g.interest), "competing": subdist(g.competing)}
            for g in scn.groups
        ],
    }
    if scn.censoring.bound is not None:
        out["censoring"] = {"c": scn.censoring.bound}
    elif scn.censoring.target is not None:
        out["censoring"] = {"target": scn.censoring.target}
    return out


def load_scenario(path) -> ScenarioSpec:
    """Load and validate a scenario JSON file."""
    text = read_text(path)
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DataValidationError(f"scenario file is not valid JSON: {exc}") from None
    return scenario_from_dict(data)


SHIPPED_SCENARIOS = (
    "a_null",
    "b_proportional",
    "c_nonproportional",
    "d_early",
    "e_late",
    "f_crossing",
)


def shipped_scenario_path(name: str) -> Path:
    """Path of one of the packaged example scenarios."""
    if name not in SHIPPED_SCENARIOS:
        raise DataValidationError(
            f"unknown scenario {name!r}; shipped: {', '.join(SHIPPED_SCENARIOS)}"
        )
    return Path(__file__).parent / "scenarios" / f"{name}.json"


def load_shipped_scenario(name: str) -> ScenarioSpec:
    """Load one of the packaged example scenarios by short name."""
    return load_scenario(shipped_scenario_path(name))
