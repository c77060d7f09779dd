"""Stochastic oracle: pulse-level simulation of the click model and CHSH test.

Every closed-form probability in this package has an empirical counterpart
here, computed by actually drawing pair numbers, detections, and detector
assignments pulse by pulse. Agreement within statistical error is the
strongest check we have that the analytic model and its implementation say
the same thing.

Reproducibility contract (stable across versions):

* Each block of pulses owns a Philox stream keyed by
  ``(seed, block_index)`` as two unsigned 64-bit words; blocks are
  independent, so results do not depend on execution order and tallies
  merge by addition.
* Blocks may run concurrently, on up to one thread per CPU the process may
  run on; their tallies and CHSH sums merge in block order and are exact
  integers, so results are identical for any thread count.
* Within a block the draw order is fixed: (1) one uniform per pulse,
  inverted through the Poisson CDF to get the pair number k; (2) for each
  distinct k > 0 in ascending order, a ``(m, 2, k)`` uniform array compared
  against eta for detections, then a ``(m, 2, k)`` uniform array compared
  against 1/2 for detector assignment; (3) for the CHSH variant only, one
  uniform per double click for the setting, one for Alice's outcome, one
  for Bob's conditional outcome.
* Because the CHSH draws come after all pulse-level draws in each block,
  ``simulate_pulses`` and ``simulate_chsh`` produce identical tallies for
  identical ``(params, cfg)``, and ``simulate_tally_and_chsh`` returns both
  results from one pass.

The block loop does less work than the contract describes without changing
a single draw: the pulses per k come from counting the uniforms at or above
each CDF edge, not from inverting each pulse; the stream moves past the
``(m, 2, 1)`` assignment uniforms of one-pair pulses, which cannot change
their outcome, in O(1) (Philox is counter-based); and for k >= 2 one mat-vec
each counts a side's detected photons and those on detector 0.
"""

from __future__ import annotations

import math
import operator
import os
import threading
from itertools import takewhile

import numpy as np

from .clicks import SourceParams, _Record, poisson_pmf

# Largest mean pairs per pulse the Monte Carlo accepts. A pulse draws about
# 4 * lambda_mean uniforms and the Poisson table has O(lambda_mean) entries,
# so without a ceiling a large lambda_mean runs for minutes and fills memory;
# at the ceiling 1000 pulses take a fraction of a second. The model's regime
# is lambda_mean of order 1.
MAX_LAMBDA_MEAN = 100.0

# Largest pulse count the Monte Carlo accepts: minutes of drawing at the tens
# of Mpulse/s a few CPUs reach (test_08 draws 10^7). Without a ceiling a
# mistyped count runs for days, or overflows the block arithmetic.
MAX_PULSES = 10**10


class SimConfig(_Record):
    """Size and seeding of a simulation; results are a pure function of it.

    block_size is the pulses per Philox stream. It also sets the grain of
    the parallel work, since a block runs on one thread, and the memory each
    thread holds: a few arrays of block_size uniforms.
    """

    n_pulses: int
    seed: int
    block_size: int = 1 << 16

    def _check(self) -> None:
        for name in ("n_pulses", "seed", "block_size"):
            value = getattr(self, name)
            try:
                # Python and numpy integers pass; a float would fail later in
                # the block loop or, as a seed, be truncated by the Philox key.
                # bool is an int to Python, not to numpy's size arguments
                if isinstance(value, bool):
                    raise TypeError
                operator.index(value)
            except TypeError:
                raise ValueError(f"{name} must be an integer, got {value!r}") from None
        if self.n_pulses <= 0:
            raise ValueError(f"n_pulses must be > 0, got {self.n_pulses}")
        if self.n_pulses > MAX_PULSES:
            raise ValueError(f"n_pulses must be at most {MAX_PULSES:g}, got {self.n_pulses}")
        if not 0 <= self.seed < 2**64:
            raise ValueError(f"seed must fit in 64 unsigned bits, got {self.seed}")
        if self.block_size <= 0:
            raise ValueError(f"block_size must be > 0, got {self.block_size}")


class PulseTally(_Record):
    """Click counts over a simulated pulse train."""

    pulses: int
    singles: int
    doubles: int
    entangled_coincidences: int

    def _check(self) -> None:
        if min(self.pulses, self.singles, self.doubles, self.entangled_coincidences) < 0:
            raise ValueError("tally counts must be >= 0")
        if not self.entangled_coincidences <= self.doubles <= self.pulses:
            raise ValueError(
                f"expected entangled <= doubles <= pulses, got "
                f"{self.entangled_coincidences} / {self.doubles} / {self.pulses}"
            )
        if self.singles + self.doubles > self.pulses:
            raise ValueError("singles and doubles are disjoint; counts exceed pulses")


class ChshEstimate(_Record):
    """Empirical CHSH value with per-setting correlators and standard error."""

    bell_value: float
    correlators: tuple[float, float, float, float]
    setting_counts: tuple[int, int, int, int]
    std_error: float


def _block_rng(seed: int, block: int) -> np.random.Generator:
    return np.random.Generator(
        np.random.Philox(key=np.array([seed, block], dtype=np.uint64))
    )


def _skip_draws(bit_gen: np.random.Philox, n_words: int) -> None:
    # Philox hands out 64-bit words from a 4-word buffer, refilled by one
    # counter step; advance() moves the counter and empties the buffer
    left = 4 - bit_gen.state["buffer_pos"]
    if n_words <= left:
        bit_gen.random_raw(n_words)
    else:
        steps, rest = divmod(n_words - left, 4)
        bit_gen.advance(steps)
        bit_gen.random_raw(rest)


def _poisson_cdf_table(lambda_mean: float) -> np.ndarray:
    # table covers all but < 1e-15 of the mass; draws beyond it are clipped
    # to the bin past its last edge, which cannot bias any paper regime
    top = int(lambda_mean + 20.0 * math.sqrt(lambda_mean)) + 40
    pmf = np.array([poisson_pmf(k, lambda_mean) for k in range(top + 1)])
    # upper tails P(K > k), summed from the far end so they stay accurate
    tail = np.cumsum(pmf[::-1])[::-1][1:]
    kmax = max(20, int(np.argmax(tail <= 1e-15)) + 1)
    return np.cumsum(pmf[: kmax + 1])


# ideal CHSH correlators at the optimal angles, one per setting pair;
# the fourth enters the combination with a minus sign
_E_IDEAL = np.array([1.0, 1.0, 1.0, -1.0]) / math.sqrt(2.0)


def _block_tally(
    cdf: np.ndarray,
    eta: float,
    state_visibility: float | None,
    seed: int,
    block: int,
    n: int,
) -> tuple[int, int, int, np.ndarray, np.ndarray]:
    """One block's (singles, doubles, entangled, sum_ab, n_ab); CHSH outcomes
    are drawn only when a visibility is given."""
    singles = doubles = entangled = 0
    sum_ab = np.zeros(4)
    n_ab = np.zeros(4, dtype=np.int64)
    rng = _block_rng(seed, block)
    u = rng.random(n)
    # pulses with >= 1, 2, ... pairs, as searchsorted(cdf, u, side="right")
    # >= k exactly when u >= cdf[k - 1]; the draws below need no more
    counts = (int(np.count_nonzero(u >= edge)) for edge in cdf)
    at_least = [*takewhile(bool, counts), 0]
    want_chsh = state_visibility is not None
    ent_flags = []
    for k in range(1, len(at_least)):
        m = at_least[k - 1] - at_least[k]
        if m == 0:
            continue
        if k == 1:
            # one pair: the (m, 2, 1) assignment draws cannot change the
            # outcome, so the stream skips them; a double is the pair
            detected = rng.random((m, 2)) < eta
            _skip_draws(rng.bit_generator, 2 * m)
            side_a, side_b = detected[:, 0], detected[:, 1]
            n_double = int(np.count_nonzero(side_a & side_b))
            singles += int(np.count_nonzero(side_a ^ side_b))
            doubles += n_double
            entangled += n_double
            if want_chsh:
                ent_flags.append(np.ones(n_double, dtype=bool))
            continue
        detected = (rng.random((2 * m, k)) < eta).astype(np.float64)
        on = detected * (rng.random((2 * m, k)) < 0.5)
        # per side, photons detected and those on detector 0: exact sums
        # of 0/1 by mat-vec, not a reduction over the short pair axis
        n_det = (detected @ np.ones(k)).reshape(m, 2)
        n_on = (on @ np.ones(k)).reshape(m, 2)
        fired = (n_on > 0) + (n_det > n_on).astype(np.int64)
        singles += int(np.count_nonzero(fired[:, 0] + fired[:, 1] == 1))
        is_double = (n_det[:, 0] > 0) & (n_det[:, 1] > 0)
        doubles += int(np.count_nonzero(is_double))
        # entangled: one photon per side, both from the same pair
        is_entangled = (n_det[:, 0] == 1) & (n_det[:, 1] == 1)
        rows = np.flatnonzero(is_entangled)
        pair = detected.reshape(m, 2, k)[rows].argmax(axis=2)
        is_entangled[rows] = pair[:, 0] == pair[:, 1]
        entangled += int(np.count_nonzero(is_entangled))
        if want_chsh:
            ent_flags.append(is_entangled[is_double])
    if want_chsh and ent_flags:
        flags = np.concatenate(ent_flags)
        nd = flags.size
        settings = np.minimum((rng.random(nd) * 4).astype(np.int64), 3)
        a_out = np.where(rng.random(nd) < 0.5, 1.0, -1.0)
        corr = np.where(flags, state_visibility * _E_IDEAL[settings], 0.0)
        # P(b = a | setting) = (1 + E)/2 gives uniform marginals and
        # correlator E exactly
        b_out = a_out * np.where(rng.random(nd) < (1.0 + corr) / 2.0, 1.0, -1.0)
        sum_ab += np.bincount(settings, weights=a_out * b_out, minlength=4)
        n_ab += np.bincount(settings, minlength=4)
    return singles, doubles, entangled, sum_ab, n_ab


# Blocks smaller than this run on the calling thread. Against one thread, two
# on 2 cores ran 0.3-0.6x as fast at 2^10-2^12 pulses per block, where
# hand-offs of the interpreter lock dominate, 0.6-1.2x at 2^14, 0.9-1.3x at
# 2^15 (1.1x on average) and 1.1-1.8x at 2^16, over four (eta, lambda) points.
_MIN_PARALLEL_BLOCK = 1 << 15


def _cpus() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _map_blocks(work, n_blocks: int, n_threads: int) -> list:
    """[work(b) for b in range(n_blocks)] on n_threads threads, in static
    stripes with the calling thread taking stripe 0. A failure stops every
    stripe at its next block and is raised here once all threads are joined."""
    results = [None] * n_blocks
    errors: list[BaseException] = []
    failed = threading.Event()

    def stripe(first: int) -> None:
        try:
            for block in range(first, n_blocks, n_threads):
                if failed.is_set():
                    return
                results[block] = work(block)
        except BaseException as exc:  # re-raised in the calling thread
            errors.append(exc)
            failed.set()

    started = []
    try:
        for first in range(1, n_threads):
            thread = threading.Thread(target=stripe, args=(first,))
            thread.start()
            started.append(thread)
        stripe(0)
    except BaseException:
        failed.set()
        raise
    finally:
        for thread in started:
            thread.join()
    if errors:
        raise errors[0]
    return results


def _run_blocks(
    params: SourceParams,
    cfg: SimConfig,
    state_visibility: float | None,
) -> tuple[PulseTally, ChshEstimate | None]:
    """All blocks, on as many threads as pay, merged in block order."""
    if not params.lambda_mean <= MAX_LAMBDA_MEAN:
        raise ValueError(
            f"lambda_mean must be <= {MAX_LAMBDA_MEAN:g} for the Monte Carlo, "
            f"got {params.lambda_mean}"
        )
    want_chsh = state_visibility is not None
    cdf = _poisson_cdf_table(params.lambda_mean)
    n_blocks = (cfg.n_pulses + cfg.block_size - 1) // cfg.block_size
    n_threads = min(_cpus(), n_blocks) if cfg.block_size >= _MIN_PARALLEL_BLOCK else 1

    def work(block: int):
        n = min(cfg.block_size, cfg.n_pulses - block * cfg.block_size)
        return _block_tally(cdf, params.eta, state_visibility, cfg.seed, block, n)

    singles = doubles = entangled = 0
    sum_ab = np.zeros(4)
    n_ab = np.zeros(4, dtype=np.int64)
    # sum_ab holds integer-valued floats, so every sum is exact
    for b_singles, b_doubles, b_entangled, b_sum_ab, b_n_ab in _map_blocks(
        work, n_blocks, n_threads
    ):
        singles += b_singles
        doubles += b_doubles
        entangled += b_entangled
        sum_ab += b_sum_ab
        n_ab += b_n_ab

    tally = PulseTally(
        pulses=cfg.n_pulses,
        singles=singles,
        doubles=doubles,
        entangled_coincidences=entangled,
    )
    if not want_chsh:
        return tally, None
    # Jeffreys rather than plug-in (4ab/n^3) variance per setting, so that a
    # setting whose few events all agree does not claim zero error
    agree = (n_ab + sum_ab) / 2.0
    disagree = n_ab - agree
    with np.errstate(invalid="ignore", divide="ignore"):
        corrs = sum_ab / n_ab
    variances = np.where(
        n_ab > 0, 4.0 * (agree + 0.5) * (disagree + 0.5) / (n_ab + 1.0) ** 3, np.nan
    )
    bell = float(corrs[0] + corrs[1] + corrs[2] - corrs[3])
    estimate = ChshEstimate(
        bell_value=bell,
        correlators=tuple(float(c) for c in corrs),
        setting_counts=tuple(int(c) for c in n_ab),
        std_error=float(np.sqrt(np.sum(variances))),
    )
    return tally, estimate


def simulate_pulses(params: SourceParams, cfg: SimConfig) -> PulseTally:
    """Draw cfg.n_pulses pulses and tally singles, doubles, and coincidences.

    Per pulse: k pairs from Poisson(lambda_mean), which must not exceed
    MAX_LAMBDA_MEAN (ValueError); each of the 2k photons is detected with
    probability eta and lands on one of two detectors with probability 1/2.
    A single is exactly one of the four detectors firing, a double is at
    least one detector per side, an entangled coincidence is exactly one
    detected photon per side with both from the same pair.
    """
    tally, _ = _run_blocks(params, cfg, None)
    return tally


def simulate_chsh(
    params: SourceParams, state_visibility: float, cfg: SimConfig
) -> ChshEstimate:
    """Empirical CHSH value over the double clicks of a simulated pulse train.

    Each double click picks one of the four measurement settings uniformly.
    Entangled coincidences produce +-1 outcome pairs with correlator
    state_visibility * E_ideal(setting); accidental doubles produce
    independent uniform outcomes. The Bell value is undefined (NaN) until
    every setting has at least one event. The standard error sums each
    setting's Jeffreys variance, 4(a + 1/2)(b + 1/2)/(n + 1)^3 for a
    agreeing and b disagreeing outcome pairs.
    """
    return simulate_tally_and_chsh(params, state_visibility, cfg)[1]


def simulate_tally_and_chsh(
    params: SourceParams, state_visibility: float, cfg: SimConfig
) -> tuple[PulseTally, ChshEstimate]:
    """``simulate_pulses`` and ``simulate_chsh`` from one pass over the pulses.

    Equal to ``(simulate_pulses(params, cfg), simulate_chsh(params,
    state_visibility, cfg))`` at half the cost.
    """
    if not 0.0 <= state_visibility <= 1.0:
        raise ValueError(
            f"state_visibility must be in [0, 1], got {state_visibility}"
        )
    tally, estimate = _run_blocks(params, cfg, state_visibility)
    assert estimate is not None
    return tally, estimate
