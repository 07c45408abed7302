"""Tests for the experiment harness (config, runner, figures)."""

import pytest

from repro.experiments.campaign import main as campaign_main
from repro.experiments.config import ScenarioConfig
from repro.experiments.figures import FIGURES, FigureDef, FigureResult
from repro.experiments.runner import RunResult, build_network, run_scenario


class TestScenarioConfig:
    def test_defaults_match_paper(self):
        cfg = ScenarioConfig()
        assert cfg.n_nodes == 50
        assert cfg.arena_w == 750.0 and cfg.arena_h == 750.0
        assert cfg.sim_time == 1800.0
        assert cfg.rate_kbps == 64.0
        assert cfg.beacon_interval == 2.0
        assert cfg.v_min > 0  # Noble fix

    def test_quick_scales_down(self):
        cfg = ScenarioConfig.quick()
        assert cfg.sim_time < 300
        assert cfg.rate_kbps < 64.0
        assert cfg.n_nodes == 50  # structure preserved

    def test_replace(self):
        cfg = ScenarioConfig.quick().replace(v_max=12.0, protocol="odmrp")
        assert cfg.v_max == 12.0 and cfg.protocol == "odmrp"

    def test_validation(self):
        with pytest.raises(ValueError):
            ScenarioConfig(group_size=1)
        with pytest.raises(ValueError):
            ScenarioConfig(group_size=51)
        with pytest.raises(ValueError):
            ScenarioConfig(sim_time=5.0, traffic_start=10.0)

    def test_hashable_for_caching(self):
        a = ScenarioConfig.quick(seed=1)
        b = ScenarioConfig.quick(seed=1)
        assert a == b and hash(a) == hash(b)
        assert {a: 1}[b] == 1


class TestRunner:
    def test_build_network_group(self):
        cfg = ScenarioConfig.quick(group_size=10, seed=7)
        sim, net = build_network(cfg)
        assert net.group_source_of(0) == 0
        assert sum(net.is_group_member(0, v) for v in range(net.n)) == 10
        assert len(net.group_receivers_of(0)) == 9

    def test_same_seed_same_scenario(self):
        cfg = ScenarioConfig.quick(seed=5)
        _, net1 = build_network(cfg)
        _, net2 = build_network(cfg)
        assert net1.group_receivers_of(0) == net2.group_receivers_of(0)
        assert (net1.positions() == net2.positions()).all()

    def test_different_protocols_share_scenario(self):
        """The paper evaluates all protocols on identical scenarios."""
        a = ScenarioConfig.quick(seed=5, protocol="ss-spst")
        b = ScenarioConfig.quick(seed=5, protocol="odmrp")
        _, net_a = build_network(a)
        _, net_b = build_network(b)
        assert net_a.group_receivers_of(0) == net_b.group_receivers_of(0)
        assert (net_a.positions() == net_b.positions()).all()

    def test_run_scenario_end_to_end(self):
        cfg = ScenarioConfig.quick(sim_time=30.0, group_size=8, seed=2)
        result = run_scenario(cfg)
        assert isinstance(result, RunResult)
        assert 0.0 <= result.summary.pdr <= 1.0
        assert result.summary.total_energy_j > 0
        assert result.events_executed > 1000
        assert result.pdr == result.summary.pdr  # passthrough

    def test_deterministic_given_seed(self):
        cfg = ScenarioConfig.quick(sim_time=25.0, group_size=6, seed=4)
        r1 = run_scenario(cfg)
        r2 = run_scenario(cfg)
        assert r1.summary.pdr == r2.summary.pdr
        assert r1.summary.total_energy_j == pytest.approx(r2.summary.total_energy_j)


def _figure(base, x_name, xs, metric, protocols, **kw) -> FigureDef:
    """A one-scale figure over ``base`` (quick and full grids alike)."""
    return FigureDef(
        fig_id="figtest", title="test figure", x_name=x_name, y_name=metric,
        metric=metric, protocols=protocols, x_quick=xs, x_full=xs,
        base_quick=base, base_full=base, **kw,
    )


class TestSweeps:
    def test_sweep_runs_grid(self):
        base = ScenarioConfig.quick(sim_time=20.0, group_size=6)
        fig = _figure(base, "v_max", (1.0, 10.0), "pdr", ("flooding",))
        result = fig.run(seeds=(1,))
        assert result.x_values == [1.0, 10.0]
        assert len(result.series["flooding"]) == 2
        assert result.campaign.executed == 2

    def test_format_table(self):
        result = FigureResult(
            x_name="v", x_values=[1.0, 2.0],
            series={"a": [0.9, 0.8], "b": [0.7, 0.6]},
        )
        table = result.format_table("demo")
        assert "demo" in table
        assert "0.9000" in table and "0.6000" in table


class TestOneGrid:
    """A figure is its campaign: ``FigureDef.run`` and ``campaign
    --figure`` execute the same grid (extra axes included) under the
    same cache keys, and the series are the campaign's own means."""

    @pytest.fixture
    def fig(self, monkeypatch):
        base = ScenarioConfig.quick(backend="rounds", n_nodes=16, group_size=4)
        fig = _figure(
            base, "n_nodes", (12, 16), "rounds", ("ss-spst", "ss-spst-e"),
            extra_grid={"daemon": ("central", "distributed", "synchronous")},
        )
        monkeypatch.setitem(FIGURES, "figtest", fig)
        return fig

    def _cli(self, store, capsys):
        argv = ["--figure", "figtest", "--seeds", "1,2", "--store", store, "--quiet"]
        assert campaign_main(argv) == 0
        return capsys.readouterr().out

    def test_run_executes_the_extra_axes(self, fig):
        result = fig.run(seeds=(1, 2))
        assert result.campaign.executed == 2 * 3 * 2 * 2  # x, daemon, protocol, seed
        assert result.campaign.spec == fig.campaign_spec(seeds=(1, 2))

    def test_run_then_cli_executes_nothing(self, fig, tmp_path, capsys):
        store = str(tmp_path / "s.sqlite")
        assert fig.run(seeds=(1, 2), store=store).campaign.executed == 24
        assert "(executed=0 cached=24)" in self._cli(store, capsys)

    def test_cli_then_run_executes_nothing(self, fig, tmp_path, capsys):
        store = str(tmp_path / "s")
        assert "(executed=24 cached=0)" in self._cli(store, capsys)
        result = fig.run(seeds=(1, 2), store=store)
        assert result.campaign.executed == 0
        assert result.campaign.cache_hits == 24

    def test_series_are_the_campaign_means(self, fig):
        result = fig.run(seeds=(1, 2))
        campaign = result.campaign
        agg = campaign.aggregate("rounds")
        for proto, ys in result.series.items():
            cells = [(proto, (("n_nodes", n), ("daemon", "distributed"))) for n in (12, 16)]
            assert ys == [agg[cell].mean for cell in cells]  # bit for bit
            assert ys == [result.cis("rounds")[(proto, x)].mean for x in (12.0, 16.0)]


class TestFigd01:
    def test_randomized_daemon_is_distributed_on_the_des(self):
        """The DES realizes ``randomized`` with the same jittered beacon
        clocks as ``distributed``, draw for draw, so figd01's grid runs
        only one of them."""
        for protocol in ("ss-spst", "ss-spst-e"):
            base = ScenarioConfig.quick(
                protocol=protocol, seed=1, n_nodes=20, group_size=8, sim_time=20.0
            )
            dist = run_scenario(base.replace(daemon="distributed"))
            rand = run_scenario(base.replace(daemon="randomized"))
            assert repr(rand.summary) == repr(dist.summary)
            assert rand.parent_changes == dist.parent_changes
            assert rand.events_executed == dist.events_executed
        fig = FIGURES["figd01"]
        for grid in (fig.x_quick, fig.x_full):
            assert not {"distributed", "randomized"} <= set(grid)


class TestFigureRegistry:
    def test_all_ten_figures_defined(self):
        # the paper's ten figures plus the daemon-axis, rounds-backend,
        # mobility-model and multi-group extension figures
        assert set(FIGURES) == {f"fig{n:02d}" for n in range(7, 17)} | {
            "figd01",
            "figd02",
            "figd03",
            "figm01",
            "figg01",
        }

    def test_every_figure_has_checks(self):
        for fig in FIGURES.values():
            assert isinstance(fig, FigureDef)
            assert fig.checks, fig.fig_id

    def test_quick_and_full_grids_differ(self):
        for fig in FIGURES.values():
            assert len(fig.x_full) >= len(fig.x_quick)
            assert fig.base_full.sim_time > fig.base_quick.sim_time

    def test_family_figures_cover_variants(self):
        for fid in ("fig07", "fig08", "fig09"):
            assert set(FIGURES[fid].protocols) == {
                "ss-spst", "ss-spst-t", "ss-spst-f", "ss-spst-e",
            }

    def test_comparison_figures_cover_baselines(self):
        for fid in ("fig12", "fig13", "fig14", "fig15", "fig16"):
            assert {"maodv", "odmrp"} <= set(FIGURES[fid].protocols)

    def test_checks_evaluate_on_synthetic_result(self):
        fig = FIGURES["fig09"]
        synthetic = FigureResult(
            x_name="v_max",
            x_values=list(fig.x_quick),
            series={
                "ss-spst": [30.0, 29.0, 28.0, 27.0],
                "ss-spst-t": [31.0, 32.0, 33.0, 36.0],
                "ss-spst-f": [21.0, 22.0, 22.0, 22.0],
                "ss-spst-e": [16.0, 20.0, 23.0, 25.0],
            },
        )
        checks = fig.check(synthetic)
        assert all(checks.values()), checks

    def test_plotted_series_exist_on_every_extra_axis(self):
        """The series plot each extra axis at the base config's value,
        so that value must be one of the axis's values."""
        for fig in FIGURES.values():
            for name, values in fig.extra_grid.items():
                for base in (fig.base_quick, fig.base_full):
                    assert getattr(base, name) in values, (fig.fig_id, name)


def _load_energy_sweep():
    """``examples/energy_sweep.py`` as a module (examples are scripts)."""
    import importlib.util
    from pathlib import Path

    path = Path(__file__).resolve().parents[1] / "examples" / "energy_sweep.py"
    spec = importlib.util.spec_from_file_location("energy_sweep", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestEnergySweepCommand:
    """The figure-check command must fail loudly: bad flags are usage
    errors and a failed shape check is a non-zero exit."""

    @pytest.fixture
    def tiny_figure(self, monkeypatch):
        def install(holds):
            base = ScenarioConfig.quick(backend="rounds", n_nodes=16, group_size=4)
            fig = FigureDef(
                fig_id="figtest", title="tiny rounds figure", x_name="n_nodes",
                y_name="rounds", metric="rounds", protocols=("ss-spst",),
                x_quick=(12, 16), x_full=(12, 16), base_quick=base, base_full=base,
                checks=[("the check holds", lambda result: holds)],
            )
            monkeypatch.setitem(FIGURES, "figtest", fig)

        return install

    @pytest.mark.parametrize(
        "argv",
        [
            ["fig07", "--workers", "x"],
            ["fig07", "--worker", "4"],
            ["fig07", "--seeds", "1,two"],
            ["fig99"],
        ],
    )
    def test_bad_arguments_are_usage_errors(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            _load_energy_sweep().main(argv)
        assert exc.value.code == 2
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize("holds,code", [(True, 0), (False, 1)])
    def test_exit_code_follows_shape_checks(self, tiny_figure, holds, code, capsys):
        tiny_figure(holds)
        assert _load_energy_sweep().main(["figtest", "--seeds", "1,2"]) == code
        out = capsys.readouterr().out
        assert "seeds=1,2" in out
        assert ("[PASS]" if holds else "[FAIL]") in out
