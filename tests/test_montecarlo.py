import inspect
import math
import os
import subprocess
import sys
import textwrap
import threading
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bellcal import (
    ChshEstimate,
    ClickKind,
    PulseTally,
    SimConfig,
    SourceParams,
    expected_rate,
    simulate_chsh,
    simulate_pulses,
    simulate_tally_and_chsh,
    visibility,
)
import bellcal
from bellcal import clicks, montecarlo
from bellcal.montecarlo import (
    MAX_LAMBDA_MEAN,
    MAX_PULSES,
    _E_IDEAL,
    _MIN_PARALLEL_BLOCK,
    _block_rng,
    _poisson_cdf_table,
)


def rate_z(params, kind, observed, n):
    rate = expected_rate(params, kind)
    return (observed / n - rate) / math.sqrt(rate * (1.0 - rate) / n)


class TestSimConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SimConfig(n_pulses=0, seed=1)
        with pytest.raises(ValueError):
            SimConfig(n_pulses=100, seed=-1)
        with pytest.raises(ValueError):
            SimConfig(n_pulses=100, seed=2**64)
        with pytest.raises(ValueError):
            SimConfig(n_pulses=100, seed=1, block_size=0)

    # without a cap 10^12 pulses ran for days and 10^26 overflowed the
    # block arithmetic; one over it is refused before any draw
    def test_pulses_capped(self):
        assert SimConfig(n_pulses=MAX_PULSES, seed=0).n_pulses == 10**10
        with pytest.raises(ValueError, match="n_pulses must be at most 1e\\+10"):
            SimConfig(n_pulses=MAX_PULSES + 1, seed=0)

    def test_defaults(self):
        cfg = SimConfig(n_pulses=10, seed=0)
        assert cfg.block_size == 1 << 16

    # a float seed used to be truncated by the Philox key (seed 1.5 drew
    # seed 1's stream); float sizes failed only inside simulate_pulses
    @pytest.mark.parametrize(
        "field, bad",
        [
            ("seed", 1.5),
            ("seed", math.nan),
            ("seed", "1"),
            ("n_pulses", 1.5),
            ("n_pulses", math.nan),
            ("n_pulses", math.inf),
            ("n_pulses", 1000.0),
            ("block_size", 0.5),
            ("block_size", math.inf),
            # bool is an int subclass: seed True used to run seed 1's
            # stream, n_pulses True to fail inside numpy
            ("seed", True),
            ("seed", np.True_),
            ("n_pulses", True),
            ("block_size", False),
        ],
    )
    def test_non_integer_fields_rejected(self, field, bad):
        kwargs = {"n_pulses": 1000, "seed": 1, field: bad}
        with pytest.raises(ValueError, match=field):
            SimConfig(**kwargs)

    def test_numpy_integers_accepted(self):
        cfg = SimConfig(np.int64(1000), np.uint64(2**64 - 1), np.int32(256))
        params = SourceParams(0.5, 0.1)
        assert simulate_pulses(params, cfg) == simulate_pulses(
            params, SimConfig(1000, 2**64 - 1, 256)
        )


class TestPulseTally:
    def test_invariants_enforced(self):
        with pytest.raises(ValueError):
            PulseTally(pulses=10, singles=0, doubles=5, entangled_coincidences=6)
        with pytest.raises(ValueError):
            PulseTally(pulses=10, singles=0, doubles=11, entangled_coincidences=0)
        with pytest.raises(ValueError):
            PulseTally(pulses=10, singles=8, doubles=3, entangled_coincidences=0)
        with pytest.raises(ValueError):
            PulseTally(pulses=10, singles=-1, doubles=0, entangled_coincidences=0)


class TestSimulatePulses:
    def test_reproducible(self):
        params = SourceParams(0.1134, 0.0849)
        cfg = SimConfig(n_pulses=300_000, seed=7)
        assert simulate_pulses(params, cfg) == simulate_pulses(params, cfg)

    def test_seed_sensitivity(self):
        params = SourceParams(0.1134, 0.0849)
        one = simulate_pulses(params, SimConfig(n_pulses=300_000, seed=7))
        two = simulate_pulses(params, SimConfig(n_pulses=300_000, seed=8))
        assert one != two

    def test_zero_power_all_zero(self):
        tally = simulate_pulses(SourceParams(0.3, 0.0), SimConfig(n_pulses=50_000, seed=9))
        assert tally == PulseTally(50_000, 0, 0, 0)

    def test_perfect_efficiency_no_singles(self):
        # a lone click requires losing every other photon of the pulse
        tally = simulate_pulses(SourceParams(1.0, 0.05), SimConfig(n_pulses=200_000, seed=2))
        assert tally.singles == 0
        assert tally.doubles > 0

    def test_rates_match_model(self):
        params = SourceParams(0.1134, 0.0849)
        cfg = SimConfig(n_pulses=1_000_000, seed=11)
        tally = simulate_pulses(params, cfg)
        n = cfg.n_pulses
        assert abs(rate_z(params, ClickKind.SINGLE, tally.singles, n)) < 4.0
        assert abs(rate_z(params, ClickKind.DOUBLE, tally.doubles, n)) < 4.0
        assert abs(rate_z(params, ClickKind.ENTANGLED, tally.entangled_coincidences, n)) < 4.0

    # past the ceiling, a call builds an O(lambda) Poisson table and draws
    # ~4 lambda uniforms per pulse; 1e3 pulses at lambda 1e3 take about a
    # second, and a child process keeps a regression off this one's memory
    def test_lambda_over_the_ceiling_rejected(self):
        code = f"""
            from bellcal import SimConfig, SourceParams, simulate_pulses, simulate_chsh
            cfg = SimConfig(n_pulses=1000, seed=1)
            for call in (
                lambda params: simulate_pulses(params, cfg),
                lambda params: simulate_chsh(params, 1.0, cfg),
            ):
                try:
                    call(SourceParams(0.1, 1e3))
                except ValueError as exc:
                    print(exc)
                else:
                    raise SystemExit("lambda_mean 1e3 accepted")
                print(call(SourceParams(0.1, {MAX_LAMBDA_MEAN!r})) is not None)
        """
        root = str(Path(bellcal.__file__).resolve().parent.parent)
        path = os.pathsep.join(filter(None, (root, os.environ.get("PYTHONPATH"))))
        result = subprocess.run(
            [sys.executable, "-c", textwrap.dedent(code)],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": path},
            timeout=30,
        )
        assert result.returncode == 0, result.stderr
        message = "lambda_mean must be <= 100 for the Monte Carlo, got 1000.0"
        assert result.stdout.splitlines() == [message, "True"] * 2

    def test_block_size_partitions_consistently(self):
        # a block boundary respects the per-block stream contract
        params = SourceParams(0.2, 0.1)
        whole = simulate_pulses(params, SimConfig(n_pulses=70_000, seed=5, block_size=1 << 16))
        assert whole.pulses == 70_000
        assert whole.entangled_coincidences <= whole.doubles <= whole.pulses


class TestSimulateTallyAndChsh:
    @pytest.mark.parametrize("eta, lam", [(0.1134, 0.0849), (1.0, 0.05), (0.5, 2.0)])
    def test_one_pass_equals_both_passes(self, eta, lam):
        params = SourceParams(eta, lam)
        cfg = SimConfig(n_pulses=100_000, seed=3, block_size=8192)
        tally, estimate = simulate_tally_and_chsh(params, 0.9, cfg)
        assert tally == simulate_pulses(params, cfg)
        assert estimate == simulate_chsh(params, 0.9, cfg)


class TestSimulateChsh:
    def test_reproducible(self):
        params = SourceParams(0.1134, 0.0849)
        cfg = SimConfig(n_pulses=300_000, seed=7)
        assert simulate_chsh(params, 1.0, cfg) == simulate_chsh(params, 1.0, cfg)

    def test_visibility_domain(self):
        params = SourceParams(0.5, 0.1)
        cfg = SimConfig(n_pulses=1000, seed=1)
        with pytest.raises(ValueError):
            simulate_chsh(params, -0.1, cfg)
        with pytest.raises(ValueError):
            simulate_chsh(params, 1.1, cfg)

    def test_near_ideal_state_violates(self):
        # at tiny pump power nearly every double is genuine, so the
        # empirical value sits near the quantum bound
        params = SourceParams(0.9, 0.001)
        estimate = simulate_chsh(params, 1.0, SimConfig(n_pulses=4_000_000, seed=5))
        target = 2.0 * math.sqrt(2.0) * visibility(params)
        assert abs(estimate.bell_value - target) < 4.0 * estimate.std_error
        assert estimate.bell_value > 2.6

    def test_unpolarized_state_uncorrelated(self):
        params = SourceParams(0.5, 0.05)
        estimate = simulate_chsh(params, 0.0, SimConfig(n_pulses=1_000_000, seed=3))
        assert abs(estimate.bell_value) < 4.0 * estimate.std_error

    def test_accidentals_dilute_like_white_noise(self):
        params = SourceParams(0.1134, 0.0849)
        estimate = simulate_chsh(params, 1.0, SimConfig(n_pulses=1_000_000, seed=11))
        target = 2.0 * math.sqrt(2.0) * visibility(params)
        assert abs(estimate.bell_value - target) < 4.0 * estimate.std_error

    def test_setting_counts_cover_all_four(self):
        params = SourceParams(0.5, 0.1)
        estimate = simulate_chsh(params, 1.0, SimConfig(n_pulses=100_000, seed=4))
        assert len(estimate.setting_counts) == 4
        assert all(c > 0 for c in estimate.setting_counts)
        assert isinstance(estimate, ChshEstimate)

    def test_few_agreeing_events_keep_a_positive_error(self):
        # ~14 events per setting, two settings all agreeing: the plug-in
        # variance (1 - E^2)/n is 0 there and put this run at z = 5.5
        params = SourceParams(0.05, 0.01)
        estimate = simulate_chsh(params, 1.0, SimConfig(1 << 21, 5761398971297992831))
        target = 2.0 * math.sqrt(2.0) * visibility(params)
        assert abs(estimate.bell_value - target) < 5.0 * estimate.std_error

    def test_no_doubles_is_nan(self):
        estimate = simulate_chsh(SourceParams(0.3, 0.0), 1.0, SimConfig(n_pulses=10_000, seed=9))
        assert math.isnan(estimate.bell_value)
        assert estimate.setting_counts == (0, 0, 0, 0)


# Seed -> tally contract: golden (singles, doubles, entangled), CHSH value and
# setting counts for fixed (params, seed, block_size), captured once and never
# regenerated. A change here breaks the reproducibility promise of the
# montecarlo module docstring, so it needs a new contract, not new numbers.
GOLDEN_PULSES = 50_000
GOLDEN_BLOCK = 8192  # six full blocks and a partial one
GOLDEN_VISIBILITY = 0.9
NAN = math.nan
GOLDEN = (
    (0.1134, 0.0, 0, (0, 0, 0), NAN, (0, 0, 0, 0)),
    (0.1134, 0.0, 1, (0, 0, 0), NAN, (0, 0, 0, 0)),
    (0.1134, 0.0, 20260819, (0, 0, 0), NAN, (0, 0, 0, 0)),
    (0.1134, 0.0, 2**64 - 1, (0, 0, 0), NAN, (0, 0, 0, 0)),
    (0.1134, 0.01, 0, (109, 9, 9), 1.0, (5, 1, 1, 2)),
    (0.1134, 0.01, 1, (111, 7, 7), NAN, (2, 4, 1, 0)),
    (0.1134, 0.01, 20260819, (107, 6, 6), NAN, (0, 1, 2, 3)),
    (0.1134, 0.01, 2**64 - 1, (93, 7, 7), 3.333333333333333, (3, 1, 1, 2)),
    (0.1134, 0.0849, 0, (919, 63, 57), 3.091503267973856, (10, 17, 18, 18)),
    (0.1134, 0.0849, 1, (779, 63, 61), 2.629946524064171, (20, 15, 11, 17)),
    (0.1134, 0.0849, 20260819, (798, 53, 47), 2.9833333333333334, (15, 16, 8, 14)),
    (0.1134, 0.0849, 2**64 - 1, (779, 55, 50), 1.7403508771929823, (10, 18, 8, 19)),
    (0.1134, 0.3, 0, (2918, 246, 191), 1.9163295720672768, (70, 55, 61, 60)),
    (0.1134, 0.3, 1, (2827, 249, 199), 2.229934962835906, (66, 66, 53, 64)),
    (0.1134, 0.3, 20260819, (2813, 220, 164), 1.8480632248057844, (46, 60, 61, 53)),
    (0.1134, 0.3, 2**64 - 1, (2795, 217, 162), 1.834090909090909, (57, 55, 48, 57)),
    (0.1134, 2.0, 0, (13645, 2970, 879), 0.8015623710052178, (742, 744, 762, 722)),
    (0.1134, 2.0, 1, (13792, 2885, 874), 0.7831983576062792, (790, 720, 682, 693)),
    (0.1134, 2.0, 20260819, (13636, 2874, 845), 0.7124591445330147, (732, 706, 723, 713)),
    (0.1134, 2.0, 2**64 - 1, (13918, 2816, 821), 0.6277086093454503, (713, 697, 663, 743)),
    (0.5, 0.0, 0, (0, 0, 0), NAN, (0, 0, 0, 0)),
    (0.5, 0.0, 1, (0, 0, 0), NAN, (0, 0, 0, 0)),
    (0.5, 0.0, 20260819, (0, 0, 0), NAN, (0, 0, 0, 0)),
    (0.5, 0.0, 2**64 - 1, (0, 0, 0), NAN, (0, 0, 0, 0)),
    (0.5, 0.01, 0, (236, 125, 124), 2.907932214244784, (33, 29, 32, 31)),
    (0.5, 0.01, 1, (241, 139, 139), 2.4077249575551782, (31, 38, 40, 30)),
    (0.5, 0.01, 20260819, (227, 112, 111), 2.4976190476190476, (30, 24, 28, 30)),
    (0.5, 0.01, 2**64 - 1, (250, 107, 107), 3.2806302892509787, (26, 29, 28, 24)),
    (0.5, 0.0849, 0, (2031, 1100, 1020), 2.3713872300317482, (271, 293, 279, 257)),
    (0.5, 0.0849, 1, (1964, 1116, 1045), 2.340013226469451, (278, 289, 275, 274)),
    (0.5, 0.0849, 20260819, (1951, 1040, 969), 2.315340909090909, (256, 264, 256, 264)),
    (0.5, 0.0849, 2**64 - 1, (1922, 1108, 1019), 2.500776055143173, (268, 288, 261, 291)),
    (0.5, 0.3, 0, (6161, 3874, 3007), 2.0194059947639724, (965, 950, 985, 974)),
    (0.5, 0.3, 1, (5973, 3948, 3035), 1.9406737574042068, (1009, 967, 977, 995)),
    (0.5, 0.3, 20260819, (6125, 3810, 2951), 1.9375558816066445, (939, 933, 961, 977)),
    (0.5, 0.3, 2**64 - 1, (6032, 3911, 3084), 2.0808659255286033, (972, 964, 988, 987)),
    (0.5, 2.0, 0, (12806, 24204, 5577), 0.5716163669374866, (6055, 6078, 5979, 6092)),
    (0.5, 2.0, 1, (12523, 24515, 5645), 0.5934287699136113, (6251, 6103, 6164, 5997)),
    (0.5, 2.0, 20260819, (12794, 24154, 5461), 0.5260682087211898, (6075, 5879, 6146, 6054)),
    (0.5, 2.0, 2**64 - 1, (12610, 24567, 5700), 0.596277536680619, (6075, 6123, 6072, 6297)),
    (0.93, 0.0, 0, (0, 0, 0), NAN, (0, 0, 0, 0)),
    (0.93, 0.0, 1, (0, 0, 0), NAN, (0, 0, 0, 0)),
    (0.93, 0.0, 20260819, (0, 0, 0), NAN, (0, 0, 0, 0)),
    (0.93, 0.0, 2**64 - 1, (0, 0, 0), NAN, (0, 0, 0, 0)),
    (0.93, 0.01, 0, (69, 409, 408), 2.435930141570855, (109, 89, 107, 104)),
    (0.93, 0.01, 1, (57, 449, 448), 2.493745902098672, (107, 118, 116, 108)),
    (0.93, 0.01, 20260819, (45, 420, 417), 2.6762992695665964, (108, 100, 101, 111)),
    (0.93, 0.01, 2**64 - 1, (65, 407, 407), 2.746259897331915, (105, 107, 110, 85)),
    (0.93, 0.0849, 0, (494, 3568, 3393), 2.3634735997686604, (873, 883, 907, 905)),
    (0.93, 0.0849, 1, (496, 3618, 3448), 2.499983075351524, (957, 882, 864, 915)),
    (0.93, 0.0849, 20260819, (472, 3483, 3319), 2.355214820243006, (867, 855, 903, 858)),
    (0.93, 0.0849, 2**64 - 1, (499, 3470, 3302), 2.404360708035602, (868, 893, 863, 846)),
    (0.93, 0.3, 0, (1364, 11514, 9657), 2.1624566099556275, (2912, 2778, 2909, 2915)),
    (0.93, 0.3, 1, (1405, 11470, 9591), 2.124393235398226, (2835, 2924, 2803, 2908)),
    (0.93, 0.3, 20260819, (1420, 11469, 9707), 2.1001199378756112, (2803, 2873, 2876, 2917)),
    (0.93, 0.3, 2**64 - 1, (1405, 11368, 9588), 2.1630031467122635, (2918, 2804, 2854, 2792)),
    (0.93, 2.0, 0, (1782, 41318, 12083), 0.7507874691878024, (10418, 10274, 10370, 10256)),
    (0.93, 2.0, 1, (1766, 41393, 11846), 0.7202344742641661, (10403, 10291, 10373, 10326)),
    (0.93, 2.0, 20260819, (1799, 41324, 11897), 0.7362702461485453, (10350, 10138, 10416, 10420)),
    (0.93, 2.0, 2**64 - 1, (1799, 41354, 11891), 0.7530378663497852, (10281, 10320, 10308, 10445)),
)


@pytest.mark.parametrize("eta, lam, seed, counts, bell, settings", GOLDEN)
def test_seed_contract_goldens(eta, lam, seed, counts, bell, settings):
    params = SourceParams(eta, lam)
    cfg = SimConfig(n_pulses=GOLDEN_PULSES, seed=seed, block_size=GOLDEN_BLOCK)
    tally = simulate_pulses(params, cfg)
    estimate = simulate_chsh(params, GOLDEN_VISIBILITY, cfg)
    assert (tally.singles, tally.doubles, tally.entangled_coincidences) == counts
    assert estimate.setting_counts == settings
    if math.isnan(bell):
        assert math.isnan(estimate.bell_value)
    else:
        assert estimate.bell_value == bell


# Rows for the block loop's shortcuts, each with its own size, captured like
# the ones above: lambda = 1e-6 leaves whole blocks without an active pulse,
# lambda = 7 reaches k >= 10, eta = 1 takes the one-pair branch with no
# singles, and the last row runs at the default block size with a partial
# last block.
GOLDEN_BRANCHES = (
    (0.93, 1e-06, 0, 1 << 22, 8192, (0, 4, 4), NAN, (2, 1, 0, 1)),
    (0.93, 1e-06, 1, 1 << 22, 8192, (0, 2, 2), NAN, (0, 0, 2, 0)),
    (0.5, 7.0, 0, 50_000, 8192, (1446, 47246, 464), 0.0551456137018465, (11715, 11685, 11960, 11886)),
    (0.5, 7.0, 2**64 - 1, 50_000, 8192, (1427, 47252, 438), 0.03526423092556171, (11867, 11565, 12076, 11744)),
    (1.0, 0.05, 0, 50_000, 8192, (0, 2485, 2424), 2.579962106509421, (621, 650, 585, 629)),
    (1.0, 0.05, 20260819, 50_000, 8192, (0, 2414, 2342), 2.4475735912464973, (586, 622, 610, 596)),
    (0.1134, 0.0849, 20260819, 200_000, 1 << 16, (3408, 248, 233), 2.7357415776047853, (66, 65, 53, 64)),
    # blocks of 1, 2 and 3 pulses start the skip of the one-pair assignment
    # draws at every position of Philox's 4-word buffer, inside it included
    (0.5, 0.75, 0, 3000, 1, (602, 586, 334), 1.2153305277351865, (140, 145, 150, 151)),
    (0.93, 0.3, 2**64 - 1, 3000, 1, (84, 688, 575), 2.115441506212327, (179, 173, 182, 154)),
    (0.5, 0.75, 1, 3000, 2, (656, 577, 324), 1.2939783447087039, (148, 144, 136, 149)),
    (0.93, 0.75, 2**64 - 1, 3001, 2, (151, 1452, 942), 1.6484063403650013, (368, 355, 365, 364)),
    (0.5, 0.75, 20260819, 3001, 3, (675, 577, 310), 1.453422632677681, (157, 118, 139, 163)),
    (0.1134, 0.3, 1, 3001, 3, (177, 12, 6), 0.6666666666666665, (3, 3, 2, 4)),
    # lambda = 40: k from about 10 to 70, no one-pair pulse
    (0.5, 40.0, 0, 301, 8192, (0, 301, 0), 0.2846294267981015, (80, 83, 72, 66)),
    (0.1134, 40.0, 2**64 - 1, 301, 8192, (2, 294, 0), 0.28806784156387527, (85, 81, 69, 59)),
    # three pulses
    (0.93, 0.75, 0, 3, 8192, (0, 0, 0), NAN, (0, 0, 0, 0)),
    (0.5, 2.0, 1, 3, 8192, (2, 0, 0), NAN, (0, 0, 0, 0)),
)


@pytest.mark.parametrize("eta, lam, seed, pulses, block, counts, bell, settings", GOLDEN_BRANCHES)
def test_seed_contract_goldens_branches(eta, lam, seed, pulses, block, counts, bell, settings):
    params = SourceParams(eta, lam)
    cfg = SimConfig(n_pulses=pulses, seed=seed, block_size=block)
    tally, estimate = simulate_tally_and_chsh(params, GOLDEN_VISIBILITY, cfg)
    assert (tally.singles, tally.doubles, tally.entangled_coincidences) == counts
    assert estimate.setting_counts == settings
    if math.isnan(bell):
        assert math.isnan(estimate.bell_value)
    else:
        assert estimate.bell_value == bell


# The block loop as it stood before it counted pulses per k by threshold,
# skipped the one-pair assignment draws and counted by mat-vec, kept as the
# oracle that the present loop must match draw for draw.
def reference_run_blocks(
    params: SourceParams,
    cfg: SimConfig,
    state_visibility: float | None,
) -> tuple[PulseTally, ChshEstimate | None]:
    """Shared block loop; draws CHSH outcomes only when a visibility is given."""
    want_chsh = state_visibility is not None
    cdf = _poisson_cdf_table(params.lambda_mean)
    eta = params.eta
    singles = doubles = entangled = 0
    sum_ab = np.zeros(4)
    n_ab = np.zeros(4, dtype=np.int64)
    n_blocks = (cfg.n_pulses + cfg.block_size - 1) // cfg.block_size
    for block in range(n_blocks):
        n = min(cfg.block_size, cfg.n_pulses - block * cfg.block_size)
        rng = _block_rng(cfg.seed, block)
        u = rng.random(n)
        # searchsorted(cdf, u, side="right") is 0 exactly when u < cdf[0],
        # so only the pulses with at least one pair are searched
        ks = np.searchsorted(cdf, u[u >= cdf[0]], side="right")
        counts = np.bincount(ks)
        ent_flags = []
        for k in np.flatnonzero(counts):
            m = int(counts[k])
            detected = rng.random((m, 2, k)) < eta
            assigned = rng.random((m, 2, k)) < 0.5
            if k == 1:
                # one pair: the assignment draws keep the stream but cannot
                # change the outcome; a double is always the pair itself
                side_a, side_b = detected[:, 0, 0], detected[:, 1, 0]
                is_double = side_a & side_b
                n_double = int(np.count_nonzero(is_double))
                singles += int(np.count_nonzero(side_a ^ side_b))
                doubles += n_double
                entangled += n_double
                if want_chsh:
                    ent_flags.append(np.ones(n_double, dtype=bool))
                continue
            n_det = detected.sum(axis=2)
            is_double = (n_det[:, 0] > 0) & (n_det[:, 1] > 0)
            is_entangled = (
                (n_det[:, 0] == 1)
                & (n_det[:, 1] == 1)
                & (detected[:, 0, :].argmax(axis=1) == detected[:, 1, :].argmax(axis=1))
            )
            on = detected & assigned
            fired = on.any(axis=2).sum(axis=1) + (detected ^ on).any(axis=2).sum(axis=1)
            singles += int(np.count_nonzero(fired == 1))
            doubles += int(np.count_nonzero(is_double))
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


def same_estimate(one, two):
    pairs = zip(
        (one.bell_value, one.std_error, *one.correlators),
        (two.bell_value, two.std_error, *two.correlators),
    )
    return one.setting_counts == two.setting_counts and all(
        a == b or (math.isnan(a) and math.isnan(b)) for a, b in pairs
    )


@settings(derandomize=True, max_examples=200, deadline=None)
@given(
    eta=st.floats(0.0, 1.0),
    lam=st.one_of(st.just(0.0), st.floats(1e-6, 40.0)),
    seed=st.integers(0, 2**64 - 1),
    block=st.integers(1, 9000),
    pulses=st.integers(1, 20_000),
    vis=st.floats(0.0, 1.0),
)
def test_block_loop_matches_reference(eta, lam, seed, block, pulses, vis):
    params = SourceParams(eta, lam)
    cfg = SimConfig(n_pulses=pulses, seed=seed, block_size=block)
    tally, estimate = simulate_tally_and_chsh(params, vis, cfg)
    ref_tally, ref_estimate = reference_run_blocks(params, cfg, vis)
    assert tally == ref_tally
    assert same_estimate(estimate, ref_estimate)


CUT = _MIN_PARALLEL_BLOCK
THREAD_CONFIGS = (
    SimConfig(n_pulses=1000, seed=5, block_size=CUT),  # one block
    SimConfig(n_pulses=2 * CUT + 5, seed=6, block_size=CUT),  # 3 blocks, short last
    SimConfig(n_pulses=8 * CUT, seed=2**64 - 1, block_size=CUT),
    SimConfig(n_pulses=5 * (CUT - 1) - 7, seed=8, block_size=CUT - 1),  # serial
)


@pytest.mark.parametrize("eta, lam", [(0.05, 0.01), (0.1134, 0.0849), (0.5, 2.0)])
@pytest.mark.parametrize("cfg", THREAD_CONFIGS)
def test_results_do_not_depend_on_the_thread_count(monkeypatch, eta, lam, cfg):
    params = SourceParams(eta, lam)
    results = []
    switch = sys.getswitchinterval()
    try:
        # frequent switches between more threads than cores shake out races
        sys.setswitchinterval(1e-5)
        for n in (1, 2, 3, 7):
            monkeypatch.setattr(montecarlo, "_cpus", lambda n=n: n)
            results.append(simulate_tally_and_chsh(params, 0.9, cfg))
    finally:
        sys.setswitchinterval(switch)
    (tally, estimate), *others = results
    for other_tally, other_estimate in others:
        assert other_tally == tally
        assert same_estimate(other_estimate, estimate)


class Boom(Exception):
    pass


@pytest.mark.parametrize("failing", [1, 3])  # a worker's stripe, the caller's
def test_block_failure_stops_and_joins_every_thread(monkeypatch, failing):
    monkeypatch.setattr(montecarlo, "_cpus", lambda: 3)
    started = []
    boom = threading.Event()

    def block_rng(seed, block):
        started.append(block)
        if block == failing:
            boom.set()
            raise Boom(block)
        if block > failing:
            # later blocks go on only once the failing thread has had ample
            # time to flag the failure
            assert boom.wait(timeout=30)
            time.sleep(0.05)
        return _block_rng(seed, block)

    monkeypatch.setattr(montecarlo, "_block_rng", block_rng)
    before = threading.active_count()
    cfg = SimConfig(n_pulses=30 * CUT, seed=11, block_size=CUT)
    with pytest.raises(Boom):
        simulate_pulses(SourceParams(0.1134, 0.0849), cfg)
    assert threading.active_count() == before
    # the blocks before the failing one, itself, and at most the one block
    # each other thread was in when it failed
    assert len(started) <= failing + 1 + 2


def test_public_functions_run_on_the_calling_thread(monkeypatch):
    # perfbench's tracer wraps every public function and keeps one span
    # stack, so worker threads may call only private ones
    monkeypatch.setattr(montecarlo, "_cpus", lambda: 2)
    callers = []
    for module in (montecarlo, clicks):
        for name, fn in list(vars(module).items()):
            if name.startswith("_") or not inspect.isfunction(fn):
                continue
            if not fn.__module__.startswith("bellcal."):
                continue

            def traced(*args, _fn=fn, **kwargs):
                callers.append(threading.get_ident())
                return _fn(*args, **kwargs)

            monkeypatch.setattr(module, name, traced)
    block_threads = set()

    def block_rng(seed, block):
        block_threads.add(threading.get_ident())
        return _block_rng(seed, block)

    monkeypatch.setattr(montecarlo, "_block_rng", block_rng)
    cfg = SimConfig(n_pulses=4 * CUT + 1, seed=3, block_size=CUT)
    montecarlo.simulate_tally_and_chsh(SourceParams(0.5, 2.0), 0.9, cfg)
    montecarlo.simulate_pulses(SourceParams(0.5, 2.0), cfg)
    assert len(block_threads) == 2
    assert callers and set(callers) == {threading.get_ident()}
