"""Tests for the CI statistics helpers and the lifetime extension."""

import math
import os
import subprocess
import sys
from statistics import NormalDist

import pytest

from repro.analysis.stats import CiSummary, dominates, mean_ci, t_quantile
from repro.experiments.campaign import CampaignResult, CampaignSpec
from repro.experiments.config import ScenarioConfig
from repro.experiments.figures import FigureResult
from repro.experiments.lifetime import compare_lifetimes, run_lifetime


class TestMeanCi:
    def test_basic(self):
        ci = mean_ci([1.0, 2.0, 3.0])
        assert ci.mean == pytest.approx(2.0)
        assert ci.n == 3
        assert ci.half_width > 0
        assert ci.low < 2.0 < ci.high

    def test_single_sample_infinite_width(self):
        ci = mean_ci([5.0])
        assert ci.mean == 5.0
        assert ci.half_width == float("inf")

    def test_empty_is_nan(self):
        ci = mean_ci([])
        assert ci.n == 0
        assert ci.mean != ci.mean  # NaN

    def test_filters_non_finite(self):
        ci = mean_ci([1.0, float("inf"), float("nan"), 3.0])
        assert ci.n == 2
        assert ci.mean == pytest.approx(2.0)

    def test_overlap(self):
        a = CiSummary(1.0, 0.5, 3)
        b = CiSummary(1.8, 0.5, 3)
        c = CiSummary(3.0, 0.5, 3)
        assert a.overlaps(b)
        assert not a.overlaps(c)


class TestMeanCiGolden:
    """Golden numeric values for the aggregation the campaign engine uses.

    Hand-checked against Student-t tables: t(0.975, df=1) = 12.70620474,
    t(0.975, df=2) = 4.30265273, t(0.95, df=2) = 2.91998558,
    t(0.975, df=4) = 2.77644511.
    """

    def test_three_samples_95(self):
        # mean 2, sample sd 1, hw = 4.30265273 / sqrt(3)
        ci = mean_ci([1.0, 2.0, 3.0])
        assert ci.mean == pytest.approx(2.0, abs=1e-12)
        assert ci.half_width == pytest.approx(2.48413771175033, rel=1e-9)
        assert ci.n == 3

    def test_two_samples_95(self):
        # mean 11, var 2, hw = t(0.975, df=1) * sqrt(2/2) = 12.70620474
        ci = mean_ci([10.0, 12.0])
        assert ci.mean == pytest.approx(11.0, abs=1e-12)
        assert ci.half_width == pytest.approx(12.706204736174694, rel=1e-9)

    def test_three_samples_90(self):
        ci = mean_ci([1.0, 2.0, 3.0], confidence=0.90)
        assert ci.half_width == pytest.approx(1.6858544608470483, rel=1e-9)

    def test_five_samples_95(self):
        # values 2..10 step 2: mean 6, var 10, hw = 2.77644511 * sqrt(2)
        ci = mean_ci([2.0, 4.0, 6.0, 8.0, 10.0])
        assert ci.mean == pytest.approx(6.0, abs=1e-12)
        assert ci.half_width == pytest.approx(3.9264863229551143, rel=1e-9)
        assert ci.low == pytest.approx(6.0 - 3.9264863229551143, rel=1e-9)
        assert ci.high == pytest.approx(6.0 + 3.9264863229551143, rel=1e-9)

    def test_single_replication_edge_case(self):
        """One seed: the mean is exact but the interval must be infinite
        (the campaign aggregator shows ±inf rather than false precision)."""
        ci = mean_ci([7.5])
        assert ci == CiSummary(7.5, float("inf"), 1)
        assert ci.low == float("-inf") and ci.high == float("inf")
        # an infinite interval overlaps anything
        assert ci.overlaps(CiSummary(1e9, 0.0, 3))

    def test_identical_samples_zero_width(self):
        ci = mean_ci([4.2, 4.2, 4.2])
        assert ci.mean == pytest.approx(4.2, abs=1e-12)
        assert ci.half_width == pytest.approx(0.0, abs=1e-12)


REFERENCE_CONFIDENCES = (0.8, 0.9, 0.95, 0.99, 0.999)

# scipy.stats.t.ppf(0.5 + c / 2, df) for each confidence above, generated once from scipy 1.17.1.
REFERENCE_T = {
    1: (3.0776835371752544, 6.313751514675037, 12.706204736174694, 63.656741162871526, 636.6192487687897),
    2: (1.8856180831641272, 2.9199855803537242, 4.302652729749462, 9.924843200918287, 31.599054576445365),
    3: (1.637744353696209, 2.3533634348018233, 3.1824463052837078, 5.840909309733355, 12.923978636687961),
    4: (1.533206274058944, 2.1318467863266495, 2.7764451051977934, 4.604094871349992, 8.610301581379522),
    5: (1.4758840488244815, 2.0150483733330233, 2.5705818356363146, 4.032142983555228, 6.868826625881276),
    6: (1.4397557472651483, 1.9431802805153042, 2.4469118511449786, 3.7074280213248065, 5.95881617881889),
    7: (1.4149239276505086, 1.8945786050900062, 2.364624251592784, 3.4994832973504924, 5.407882520861828),
    8: (1.3968153097438654, 1.8595480375308973, 2.306004135204166, 3.355387331333395, 5.041305433373456),
    9: (1.3830287383966329, 1.833112932656237, 2.262157162798205, 3.249835541592126, 4.780912585931217),
    10: (1.372183641110336, 1.8124611228116756, 2.228138851986274, 3.16927267261695, 4.586893858702708),
    11: (1.3634303180205407, 1.7958848187040433, 2.200985160091639, 3.1058065155392804, 4.436979338234516),
    12: (1.356217334023205, 1.782287555649319, 2.1788128296672284, 3.0545395893929013, 4.3177912836062475),
    13: (1.3501712887800552, 1.7709333959868725, 2.1603686564627913, 3.012275838716578, 4.22083172770718),
    14: (1.345030374454651, 1.761310135774891, 2.144786687917804, 2.9768427343708344, 4.140454112738259),
    15: (1.3406056078504558, 1.753050355692572, 2.131449545559776, 2.946712883475238, 4.072765195903846),
    16: (1.3367571673273153, 1.7458836762762495, 2.1199052992212546, 2.9207816224251, 4.014996327184108),
    17: (1.3333793897216268, 1.7396067260750725, 2.1098155778333156, 2.8982305196774183, 3.965126272119082),
    18: (1.3303909435699093, 1.7340636066175388, 2.1009220402410382, 2.8784404727386077, 3.9216458250852084),
    19: (1.3277282090267986, 1.7291328115213682, 2.0930240544083087, 2.8609346064649794, 3.883405852592131),
    20: (1.3253407069850465, 1.7247182429207866, 2.085963447265864, 2.8453397097861077, 3.8495162749308744),
    21: (1.3231878738651728, 1.720742902811878, 2.0796138447276795, 2.83135955802305, 3.8192771642745096),
    22: (1.321236741613362, 1.7171443743802424, 2.0738730679040254, 2.8187560606001423, 3.792130671698437),
    23: (1.3194602398161621, 1.713871527747048, 2.0686576104190486, 2.807335683769999, 3.7676268043118246),
    24: (1.3178359336731498, 1.710882079909428, 2.0638985616280245, 2.796939504774456, 3.745398619290096),
    25: (1.31634507267387, 1.7081407612518986, 2.0595385527532972, 2.78743581367697, 3.725143949728693),
    26: (1.3149718642705175, 1.7056179197592727, 2.0555294386428735, 2.778714533329683, 3.7066117434809525),
    27: (1.3137029128292737, 1.7032884457221265, 2.0518305164802846, 2.770682957122211, 3.6895917134592784),
    28: (1.3125267815926664, 1.7011309342659313, 2.0484071417952454, 2.763262455461444, 3.6739064007013176),
    29: (1.311433647301551, 1.6991270265334972, 2.045229642132703, 2.756385903670605, 3.6594050194663748),
    30: (1.3104150253913955, 1.697260886593957, 2.0422724563012378, 2.7499956535672254, 3.6459586350420627),
    40: (1.3030770526071949, 1.683851013335652, 2.021075390306273, 2.7044592674331622, 3.550965760863349),
    60: (1.295821093515731, 1.6706488649046363, 2.0002978220142604, 2.6602830288550368, 3.460200469196392),
    120: (1.288646233656378, 1.6576508993552352, 1.9799304050824402, 2.6174211451068654, 3.373453768562533),
    1000: (1.2823987214609247, 1.6463788172854643, 1.9623390808264083, 2.580754698065951, 3.300282648423944),
    10000: (1.2816362297304775, 1.645006018069243, 1.960201239890626, 2.5763210466685282, 3.2914999659416355),
}


class TestTQuantile:
    """The standard-library Student-t critical value."""

    @pytest.mark.parametrize("df", sorted(REFERENCE_T))
    def test_matches_reference_table(self, df):
        for confidence, expected in zip(REFERENCE_CONFIDENCES, REFERENCE_T[df]):
            assert t_quantile(confidence, df) == pytest.approx(expected, rel=1e-12, abs=0)

    @pytest.mark.parametrize("confidence", (0.5, 0.8, 0.95, 0.999))
    def test_closed_forms(self, confidence):
        c = confidence
        assert t_quantile(c, 1) == pytest.approx(math.tan(math.pi * c / 2), rel=1e-14)
        assert t_quantile(c, 2) == pytest.approx(c * math.sqrt(2 / (1 - c * c)), rel=1e-12)

    def test_monotone_in_confidence_and_df(self):
        dfs = (1, 2, 3, 4, 5, 7, 10, 30, 100, 1000)
        confidences = (0.5, 0.8, 0.9, 0.95, 0.99, 0.999)
        for df in dfs:
            row = [t_quantile(c, df) for c in confidences]
            assert row == sorted(row) and len(set(row)) == len(row)
        for c in confidences:
            column = [t_quantile(c, df) for df in dfs]
            assert column == sorted(column, reverse=True) and len(set(column)) == len(column)

    @pytest.mark.parametrize("confidence", REFERENCE_CONFIDENCES)
    def test_converges_to_normal(self, confidence):
        # t - z = (z^3 + z) / (4 df) + O(1/df^2) (Cornish-Fisher)
        z = NormalDist().inv_cdf(0.5 + confidence / 2)
        for df in (1000, 10000):
            gap = t_quantile(confidence, df) - z
            assert gap > 0
            assert gap * 4 * df / (z**3 + z) == pytest.approx(1.0, rel=50 / df)

    @pytest.mark.parametrize("df", (0, -1, 2.5, 3.0, "3", None))
    def test_rejects_bad_df(self, df):
        with pytest.raises(ValueError, match="df"):
            t_quantile(0.95, df)

    @pytest.mark.parametrize("confidence", (0.0, 1.0, -0.5, 1.5, float("nan")))
    def test_rejects_bad_confidence(self, confidence):
        with pytest.raises(ValueError, match="confidence"):
            t_quantile(confidence, 5)


_READ_PATH_SCRIPT = """
import os, sys
from repro.analysis.stats import mean_ci
from repro.experiments.campaign import CampaignSpec, run_campaign
from repro.experiments.config import ScenarioConfig
from repro.experiments.store import open_store

base = ScenarioConfig.quick(backend="rounds", protocol="ss-spst-e", n_nodes=16, group_size=4)
spec = CampaignSpec(name="weight", base=base, protocols=("ss-spst-e",), seeds=(1, 2))
path = os.path.join(sys.argv[1], "runs.sqlite")
store = open_store(path)
assert run_campaign(spec, store=store).executed == 2
store.close()
store = open_store(path)
warm = run_campaign(spec, store=store)
assert warm.executed == 0
print(warm.format_table(("rounds", "moves")))
print(mean_ci([r.rounds for r in warm.results]))
store.close()
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""


def test_campaign_read_path_imports_no_scipy(tmp_path):
    """Building, reopening and tabulating a campaign loads no statistics library."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run(
        [sys.executable, "-c", _READ_PATH_SCRIPT, str(tmp_path)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    header, row, ci, loaded = proc.stdout.strip().splitlines()
    assert "rounds" in header and "±" in row
    assert ci.startswith("CiSummary(") and ci.endswith("n=2)")
    assert loaded == "[]"


class _FakeRun:
    """A rounds-backend result carrying only the ``rounds`` metric."""

    config = ScenarioConfig.quick(backend="rounds")

    def __init__(self, value):
        self.rounds = value


class TestSweepCis:
    def _result(self):
        spec = CampaignSpec.from_mapping(
            name="cis",
            base=ScenarioConfig.quick(backend="rounds"),
            protocols=("ss-spst", "ss-spst-e"),
            seeds=(1, 2, 3),
            grid={"v_max": (1.0,)},
        )
        runs = [1.0, 1.2, 0.8, 10.0, 9.5, 10.5]  # cell order: protocol, seed
        campaign = CampaignResult(spec=spec, results=[_FakeRun(v) for v in runs])
        return FigureResult(
            x_name="v_max",
            x_values=[1.0],
            series={"ss-spst": [1.0], "ss-spst-e": [10.0]},
            campaign=campaign,
        )

    def test_cell_cis(self):
        cis = self._result().cis("rounds")
        assert cis[("ss-spst", 1.0)] == mean_ci([1.0, 1.2, 0.8])
        assert cis[("ss-spst-e", 1.0)].mean == pytest.approx(10.0)

    def test_dominates_lower(self):
        verdicts = dominates(
            self._result(), "rounds", better="ss-spst", worse="ss-spst-e",
            direction="lower",
        )
        assert verdicts == [True]

    def test_dominates_higher(self):
        verdicts = dominates(
            self._result(), "rounds", better="ss-spst-e", worse="ss-spst",
            direction="higher",
        )
        assert verdicts == [True]


class TestLifetime:
    CFG = dict(
        sim_time=40.0, group_size=6, n_nodes=20, rate_kbps=16.0,
        traffic_start=6.0, arena_w=500.0, arena_h=500.0,
    )

    def test_generous_battery_no_deaths(self):
        cfg = ScenarioConfig.quick(protocol="ss-spst", seed=3, **self.CFG)
        res = run_lifetime(cfg, battery_j=1e6)
        assert res.alive_at_end
        assert res.first_death_t is None

    def test_tiny_battery_kills_relays(self):
        cfg = ScenarioConfig.quick(protocol="ss-spst", seed=3, **self.CFG)
        res = run_lifetime(cfg, battery_j=0.2)
        assert not res.alive_at_end
        assert res.first_death_t is not None
        assert res.first_death_t > cfg.traffic_start  # deaths need traffic

    def test_depleted_nodes_die(self, monkeypatch):
        """A depleted battery kills its node: it stops sending and its
        ledger stops growing.  The trajectory up to the first depletion
        is untouched, so the first death time is the one recorded when
        depleted nodes kept running (7.80881243018908 s)."""
        from repro.experiments import lifetime

        built = []
        build = lifetime.build_network

        def keep_network(config):
            sim, network = build(config)
            built.append(network)
            return sim, network

        monkeypatch.setattr(lifetime, "build_network", keep_network)
        cfg = ScenarioConfig.quick(protocol="ss-spst", seed=3, **self.CFG)
        res = run_lifetime(cfg, battery_j=0.2)
        (network,) = built
        depleted = [nd for nd in network.nodes if nd.battery.depleted]
        assert depleted
        assert len(res.deaths) == len(depleted)
        assert all(not nd.alive for nd in depleted)
        assert all(nd.alive for nd in network.nodes if not nd.battery.depleted)
        assert res.first_death_t == 7.80881243018908
        # a dead node spends nothing more: the frame that depleted it is
        # the last one it pays for (a full-range data frame at most)
        last_frame = network.radio.tx_energy(
            8 * cfg.packet_bytes, network.radio.max_range
        )
        assert max(nd.ledger.total for nd in depleted) <= 0.2 + last_frame

    def test_deaths_sorted(self):
        cfg = ScenarioConfig.quick(protocol="flooding", seed=3, **self.CFG)
        res = run_lifetime(cfg, battery_j=0.15)
        assert res.deaths == sorted(res.deaths)

    def test_invalid_battery(self):
        cfg = ScenarioConfig.quick(protocol="ss-spst", seed=3, **self.CFG)
        with pytest.raises(ValueError):
            run_lifetime(cfg, battery_j=0.0)

    def test_multigroup_config_rejected(self):
        cfg = ScenarioConfig.quick(
            protocol="ss-spst-e", seed=3, group_count=2, **self.CFG
        )
        with pytest.raises(ValueError, match="group_count"):
            run_lifetime(cfg, battery_j=5.0)

    def test_rounds_backend_config_rejected(self):
        cfg = ScenarioConfig.quick(
            protocol="ss-spst", backend="rounds", seed=3, **self.CFG
        )
        with pytest.raises(ValueError, match="backend"):
            run_lifetime(cfg, battery_j=5.0)

    def test_compare_returns_per_protocol(self):
        base = ScenarioConfig.quick(seed=3, **self.CFG)
        out = compare_lifetimes(
            ["ss-spst", "flooding"], battery_j=0.5, base=base, seeds=(3,)
        )
        assert set(out) == {"ss-spst", "flooding"}
        assert all(len(v) == 1 for v in out.values())

    def test_energy_awareness_extends_lifetime(self):
        """The motivation come full circle: with equal batteries, the
        energy-heavy protocol (flooding) loses its first node no later
        than the power-controlled tree protocol."""
        base = ScenarioConfig.quick(seed=4, **self.CFG)
        out = compare_lifetimes(
            ["ss-spst-e", "flooding"], battery_j=0.6, base=base, seeds=(4,)
        )
        ss = out["ss-spst-e"][0]
        fl = out["flooding"][0]
        t_ss = ss.first_death_t if ss.first_death_t is not None else float("inf")
        t_fl = fl.first_death_t if fl.first_death_t is not None else float("inf")
        assert t_ss >= t_fl

    def test_energy_awareness_extends_lifetime_at_scale(self):
        """The same claim on 50 nodes with 1 J batteries, averaged over
        two seeds and checked against the hop-metric tree as well."""
        base = ScenarioConfig.quick(
            sim_time=120.0, group_size=20, v_max=2.0, n_nodes=50
        )
        results = compare_lifetimes(
            ["ss-spst-e", "ss-spst", "flooding"],
            battery_j=1.0,
            base=base,
            seeds=(1, 2),
        )
        first_death = {}
        for protocol, runs in results.items():
            ts = [
                r.first_death_t if r.first_death_t is not None else float("inf")
                for r in runs
            ]
            first_death[protocol] = sum(ts) / len(ts)
        # Energy-oblivious flooding loses its first node no later than
        # either tree protocol.
        assert first_death["flooding"] <= first_death["ss-spst"]
        assert first_death["ss-spst-e"] >= first_death["flooding"]
