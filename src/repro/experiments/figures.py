"""One experiment definition per figure of the paper (Figures 7-16).

Each :class:`FigureDef` declares its grid once, as a campaign
(:meth:`FigureDef.campaign_spec`), at *quick* scale (minutes of
wall-clock; shorter runs, coarser grids, 3 seeds) or at *paper* scale
(1800 s runs, the full grids).  :meth:`FigureDef.run` executes that full
grid — extra axes included — through the campaign engine, so it shares
every run (and cache key) with ``campaign --figure``; the plotted series
are the campaign's per-cell Welford means of the figure's metric.  Each
figure also knows how to print the series the paper plots, and which
**shape checks** must hold — the qualitative orderings and trends the
reproduction is accountable for (absolute mJ/ms values depend on
unpublished ns-2 constants; see DESIGN.md §4).

Shape checks are deliberately robust statements (trend endpoints, series
means, winner identities) rather than point comparisons, because
individual cells carry seed noise.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.analysis import CiSummary, ascii_plot, shape_report
from repro.core.daemons import DAEMON_NAMES
from repro.experiments.campaign import CampaignResult, CampaignSpec, run_campaign
from repro.experiments.config import ScenarioConfig

FAMILY = ("ss-spst", "ss-spst-t", "ss-spst-f", "ss-spst-e")
FOURWAY = ("maodv", "odmrp", "ss-spst", "ss-spst-e")

VELOCITIES_QUICK = (1.0, 5.0, 10.0, 20.0)
VELOCITIES_FULL = (1.0, 2.0, 4.0, 6.0, 8.0, 10.0, 12.0, 14.0, 16.0, 18.0, 20.0)
BEACONS_QUICK = (1.0, 2.0, 3.0, 4.0)
BEACONS_FULL = (1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0)
GROUPS_QUICK = (10, 30, 50)
GROUPS_FULL = (10, 20, 30, 40, 50)
#: categorical daemon axis (extension figure figd01); the adversarial
#: daemon has no DES realization and is excluded by construction, and
#: "randomized" is left out because the DES realizes it exactly like
#: "distributed" (the same jittered beacon clocks, draw for draw), so it
#: would only repeat that series under its own cache keys
DAEMONS_QUICK = ("distributed", "central", "synchronous")
DAEMONS_FULL = ("distributed", "central", "synchronous", "weakly-fair")
#: categorical mobility-model axis (extension figure figm01); the trace
#: model needs a scenario file and is excluded from canned grids
MOBILITY_QUICK = ("waypoint", "gauss-markov", "static")
MOBILITY_FULL = ("waypoint", "gauss-markov", "random-walk", "static")


def _x_key(x):
    """Normalize an axis value: numeric axes to float, categorical axes
    (e.g. the ``daemon`` discipline) kept as strings."""
    if isinstance(x, str):
        return x
    return float(x)


def _plotted_cis(
    campaign: CampaignResult, metric: str, confidence: float = 0.95
) -> Dict[Tuple[str, object], CiSummary]:
    """Per-(protocol, x) mean ± CI of a metric name over a figure
    campaign's plotted cells.

    The x axis is the campaign's first grid axis; every other axis is
    read at the base config's value.
    """
    spec = campaign.spec
    (x_name, xs), *extra = spec.grid
    fixed = tuple((name, getattr(spec.base, name)) for name, _ in extra)
    agg = campaign.aggregate(metric, confidence)
    return {
        (proto, _x_key(x)): agg[(proto, ((x_name, x),) + fixed)]
        for proto in spec.protocols
        for x in xs
    }


@dataclass
class FigureResult:
    """A figure's plotted series over the X axis, one per protocol.

    ``series[p][i]`` is the campaign's mean of the figure's metric in the
    cell of protocol ``p`` at ``x_values[i]`` (see :func:`_plotted_cis`).
    The X axis is numeric for the paper's sweeps (velocity, beacon
    interval, group size) and categorical for extension axes like the
    activation ``daemon``.  ``campaign`` holds every run of the grid;
    a series-only result (synthetic data) has none.
    """

    x_name: str
    x_values: List  # floats, or strings for categorical axes
    series: Dict[str, List[float]]  # protocol -> mean per x
    campaign: Optional[CampaignResult] = None

    def cis(
        self, metric: str, confidence: float = 0.95
    ) -> Dict[Tuple[str, object], CiSummary]:
        """Per-(protocol, x) mean ± CI of any metric name over the
        plotted cells — diagnostics beyond the plotted metric, or the
        plotted metric's own confidence intervals."""
        return _plotted_cis(self.campaign, metric, confidence)

    def format_table(self, title: str = "") -> str:
        """Gnuplot-style rows like the paper's figures."""
        lines = []
        if title:
            lines.append(f"# {title}")
        protos = list(self.series)
        header = f"{self.x_name:>12s} " + " ".join(f"{p:>12s}" for p in protos)
        lines.append(header)
        for i, x in enumerate(self.x_values):
            label = f"{x:12.3f}" if not isinstance(x, str) else f"{x:>12s}"
            row = f"{label} " + " ".join(
                f"{self.series[p][i]:12.4f}" for p in protos
            )
            lines.append(row)
        return "\n".join(lines)


ShapeCheck = Tuple[str, Callable[[FigureResult], bool]]


def _mean(xs: Sequence[float]) -> float:
    xs = [x for x in xs if x == x]
    return sum(xs) / len(xs) if xs else float("nan")


def _cell_mean(result: FigureResult, protocol: str, x, metric: str) -> float:
    """Mean of a metric name in one plotted cell.

    Lets shape checks reach diagnostics beyond the plotted metric —
    e.g. figm01 checks stabilization cost (``parent_changes``) while
    plotting PDR."""
    return result.cis(metric)[(protocol, x)].mean


def _decreasing_ends(series: List[float], slack: float = 0.02) -> bool:
    """First value exceeds last (trend down) within a slack."""
    return series[0] >= series[-1] - slack


def _increasing_ends(series: List[float], slack: float = 0.02) -> bool:
    return series[-1] >= series[0] - slack


@dataclass
class FigureDef:
    """A reproducible figure.

    ``metric`` names a quantity in the backend's typed
    :class:`~repro.experiments.backends.MetricSpec` registry.
    ``extra_grid`` adds secondary campaign axes beyond the plotted
    ``x_name`` — e.g. figd02's activation-daemon axis.  :meth:`run`
    executes the whole grid and plots ``x_name`` with every extra axis
    at the base config's value.
    """

    fig_id: str
    title: str
    x_name: str
    y_name: str
    metric: str
    protocols: Sequence[str]
    x_quick: Sequence[float]
    x_full: Sequence[float]
    base_quick: ScenarioConfig
    base_full: ScenarioConfig
    checks: List[ShapeCheck] = field(default_factory=list)
    notes: str = ""
    extra_grid: Dict[str, Sequence] = field(default_factory=dict)

    def campaign_spec(
        self, quick: bool = True, seeds: Sequence[int] = (1, 2, 3)
    ) -> CampaignSpec:
        """The figure's grid as a campaign (shares cells — and therefore
        cached runs — with every other figure over the same scenarios)."""
        grid = {self.x_name: tuple(self.x_quick if quick else self.x_full)}
        for name, values in self.extra_grid.items():
            grid[name] = tuple(values)
        return CampaignSpec.from_mapping(
            name=self.fig_id,
            base=self.base_quick if quick else self.base_full,
            protocols=tuple(self.protocols),
            seeds=tuple(seeds),
            grid=grid,
        )

    def run(
        self,
        quick: bool = True,
        seeds: Sequence[int] = (1, 2, 3),
        workers: int = 1,
        store=None,
    ) -> FigureResult:
        """Run the figure's campaign and read off its plotted series.

        ``workers`` runs the grid on a process pool; ``store`` — a
        result-store spec or instance — persists every run so later
        invocations (or other figures sharing cells, e.g. Figures 7/8/9,
        which differ only in the metric they plot) skip it.
        """
        campaign = run_campaign(
            self.campaign_spec(quick=quick, seeds=seeds),
            workers=workers,
            store=store,
        )
        cis = _plotted_cis(campaign, self.metric)
        x_values = [_x_key(x) for x in (self.x_quick if quick else self.x_full)]
        return FigureResult(
            x_name=self.x_name,
            x_values=x_values,
            series={
                p: [cis[(p, x)].mean for x in x_values] for p in self.protocols
            },
            campaign=campaign,
        )

    def check(self, result: FigureResult) -> Dict[str, bool]:
        """Evaluate every shape check; returns {description: holds}."""
        return {desc: bool(fn(result)) for desc, fn in self.checks}

    def report(self, result: FigureResult) -> str:
        """The figure as text: series table, ASCII chart, shape-check
        verdicts and notes."""
        parts = [
            result.format_table(f"{self.fig_id}: {self.title}"),
            ascii_plot(
                result.x_values,
                result.series,
                y_label=self.y_name,
                x_label=self.x_name,
            ),
            shape_report(self.check(result)),
        ]
        if self.notes:
            parts.append(f"  note: {self.notes}")
        return "\n".join(parts)


def _quick(**kw) -> ScenarioConfig:
    return ScenarioConfig.quick(**kw)


def _full(**kw) -> ScenarioConfig:
    return ScenarioConfig.paper_scale(**kw)


def _build_figures() -> Dict[str, FigureDef]:
    figs: Dict[str, FigureDef] = {}

    # ---------------------------------------------------------------- fig07
    figs["fig07"] = FigureDef(
        fig_id="fig07",
        title="Packet Delivery Ratio vs. Velocity (SS-SPST family)",
        x_name="v_max",
        y_name="pdr",
        metric="pdr",
        protocols=FAMILY,
        x_quick=VELOCITIES_QUICK,
        x_full=VELOCITIES_FULL,
        base_quick=_quick(),
        base_full=_full(),
        checks=[
            (
                "PDR decreases with speed for every variant",
                lambda r: all(_decreasing_ends(s, 0.05) for s in r.series.values()),
            ),
            (
                "SS-SPST-E delivers no better than SS-SPST on average",
                lambda r: _mean(r.series["ss-spst-e"]) <= _mean(r.series["ss-spst"]) + 0.02,
            ),
        ],
        notes=(
            "Paper: hop > T > E > F.  Our SS-SPST-F is more stable than the "
            "authors' (see docs/deviations.md), so the PDR penalty lands on "
            "SS-SPST-E's deeper trees instead of on F."
        ),
    )

    # ---------------------------------------------------------------- fig08
    figs["fig08"] = FigureDef(
        fig_id="fig08",
        title="Unavailability Ratio vs. Velocity (SS-SPST family)",
        x_name="v_max",
        y_name="unavailability",
        metric="unavailability",
        protocols=FAMILY,
        x_quick=VELOCITIES_QUICK,
        x_full=VELOCITIES_FULL,
        base_quick=_quick(),
        base_full=_full(),
        checks=[
            (
                "unavailability rises with speed for SS-SPST and SS-SPST-E",
                lambda r: _increasing_ends(r.series["ss-spst"], 0.03)
                and _increasing_ends(r.series["ss-spst-e"], 0.03),
            ),
            (
                "SS-SPST-E is less available than SS-SPST on average",
                lambda r: _mean(r.series["ss-spst-e"]) >= _mean(r.series["ss-spst"]) - 0.02,
            ),
        ],
    )

    # ---------------------------------------------------------------- fig09
    figs["fig09"] = FigureDef(
        fig_id="fig09",
        title="Energy Consumption per Packet Delivered vs. Velocity (SS-SPST family)",
        x_name="v_max",
        y_name="energy_per_packet_mj",
        metric="energy_per_packet_mj",
        protocols=FAMILY,
        x_quick=VELOCITIES_QUICK,
        x_full=VELOCITIES_FULL,
        base_quick=_quick(),
        base_full=_full(),
        checks=[
            (
                "SS-SPST-E spends less energy than SS-SPST at every speed",
                lambda r: all(
                    e < h
                    for e, h in zip(r.series["ss-spst-e"], r.series["ss-spst"])
                ),
            ),
            (
                "SS-SPST-E is the cheapest variant at low mobility",
                lambda r: r.series["ss-spst-e"][0]
                == min(r.series[p][0] for p in r.series),
            ),
            (
                "SS-SPST-F also undercuts plain SS-SPST (node metric helps)",
                lambda r: _mean(r.series["ss-spst-f"]) < _mean(r.series["ss-spst"]),
            ),
            (
                "the E-vs-hop saving narrows (or at least does not widen) at speed",
                lambda r: (r.series["ss-spst"][-1] - r.series["ss-spst-e"][-1])
                <= (r.series["ss-spst"][0] - r.series["ss-spst-e"][0]) * 1.5 + 2.0,
            ),
        ],
        notes=(
            "Paper ordering hop > T > F > E.  Under our radio constants the "
            "T variant's relay-heavy trees pay more electronics/overhearing "
            "than one long hop, so T lands above hop (see docs/deviations.md)."
        ),
    )

    # ---------------------------------------------------------------- fig10
    figs["fig10"] = FigureDef(
        fig_id="fig10",
        title="Packet Delivery Ratio vs. Beacon Interval",
        x_name="beacon_interval",
        y_name="pdr",
        metric="pdr",
        protocols=("ss-spst", "ss-spst-e"),
        x_quick=BEACONS_QUICK,
        x_full=BEACONS_FULL,
        base_quick=_quick(v_max=5.0),
        base_full=_full(v_max=5.0),
        checks=[
            (
                "PDR drops as the beacon interval grows (both protocols)",
                lambda r: all(_decreasing_ends(s, 0.02) for s in r.series.values()),
            ),
            (
                "the drop steepens past 3 s for SS-SPST-E",
                lambda r: (r.series["ss-spst-e"][-2] - r.series["ss-spst-e"][-1])
                >= (r.series["ss-spst-e"][0] - r.series["ss-spst-e"][1]) - 0.02,
            ),
        ],
    )

    # ---------------------------------------------------------------- fig11
    figs["fig11"] = FigureDef(
        fig_id="fig11",
        title="Energy Consumption per Packet Delivered vs. Beacon Interval",
        x_name="beacon_interval",
        y_name="energy_per_packet_mj",
        metric="energy_per_packet_mj",
        protocols=("ss-spst", "ss-spst-e"),
        x_quick=BEACONS_QUICK,
        x_full=BEACONS_FULL,
        base_quick=_quick(v_max=5.0),
        base_full=_full(v_max=5.0),
        checks=[
            (
                "energy/packet is not monotonically decreasing in the interval "
                "(losses take over: the curve turns back up)",
                lambda r: r.series["ss-spst-e"][-1]
                >= min(r.series["ss-spst-e"]) - 0.25,
            ),
            (
                "SS-SPST-E stays cheaper than SS-SPST at every interval",
                lambda r: all(
                    e <= h + 0.5
                    for e, h in zip(r.series["ss-spst-e"], r.series["ss-spst"])
                ),
            ),
        ],
    )

    # ---------------------------------------------------------------- fig12
    figs["fig12"] = FigureDef(
        fig_id="fig12",
        title="Packet Delivery Ratio vs. Multicast Group Size",
        x_name="group_size",
        y_name="pdr",
        metric="pdr",
        protocols=FOURWAY,
        x_quick=GROUPS_QUICK,
        x_full=GROUPS_FULL,
        base_quick=_quick(v_max=1.0),
        base_full=_full(v_max=1.0),
        checks=[
            (
                "self-stabilizing protocols are group-scalable "
                "(SS-SPST PDR varies < 0.15 across group sizes)",
                lambda r: max(r.series["ss-spst"]) - min(r.series["ss-spst"]) < 0.15,
            ),
            (
                "ODMRP delivers best at small groups",
                lambda r: r.series["odmrp"][0]
                == max(r.series[p][0] for p in r.series),
            ),
            (
                "MAODV delivers least at small groups",
                lambda r: r.series["maodv"][0]
                <= min(r.series[p][0] for p in ("odmrp", "ss-spst")) + 0.02,
            ),
        ],
        notes=(
            "Paper: ODMRP's PDR collapses at large groups (redundant-path "
            "overhead in their 64 kbps setting); our mesh stays deliverable "
            "— the group-scalability of the SS family is the claim checked."
        ),
    )

    # ---------------------------------------------------------------- fig13
    figs["fig13"] = FigureDef(
        fig_id="fig13",
        title="Control Byte Overhead vs. Multicast Group Size",
        x_name="group_size",
        y_name="control_overhead",
        metric="control_overhead",
        protocols=FOURWAY,
        x_quick=GROUPS_QUICK,
        x_full=GROUPS_FULL,
        base_quick=_quick(v_max=1.0),
        base_full=_full(v_max=1.0),
        checks=[
            (
                "ODMRP has the highest control overhead",
                lambda r: _mean(r.series["odmrp"])
                == max(_mean(s) for s in r.series.values()),
            ),
            (
                "MAODV has the least control overhead",
                lambda r: _mean(r.series["maodv"])
                == min(_mean(s) for s in r.series.values()),
            ),
            (
                "SS-SPST-E spends more control bytes than SS-SPST "
                "(bigger beacons)",
                lambda r: _mean(r.series["ss-spst-e"]) >= _mean(r.series["ss-spst"]),
            ),
        ],
    )

    # ---------------------------------------------------------------- fig14
    figs["fig14"] = FigureDef(
        fig_id="fig14",
        title="Packet Delivery Ratio vs. Velocity (4-way comparison)",
        x_name="v_max",
        y_name="pdr",
        metric="pdr",
        protocols=FOURWAY,
        x_quick=VELOCITIES_QUICK,
        x_full=VELOCITIES_FULL,
        base_quick=_quick(),
        base_full=_full(),
        checks=[
            (
                "ODMRP's PDR is the highest even at high speed",
                lambda r: r.series["odmrp"][-1]
                == max(r.series[p][-1] for p in r.series),
            ),
            (
                "every protocol loses delivery as speed grows",
                lambda r: all(_decreasing_ends(s, 0.05) for s in r.series.values()),
            ),
        ],
    )

    # ---------------------------------------------------------------- fig15
    figs["fig15"] = FigureDef(
        fig_id="fig15",
        title="Average Delay vs. Multicast Group Size",
        x_name="group_size",
        y_name="avg_delay_ms",
        metric="avg_delay_ms",
        protocols=FOURWAY,
        x_quick=GROUPS_QUICK,
        x_full=GROUPS_FULL,
        base_quick=_quick(v_max=1.0),
        base_full=_full(v_max=1.0),
        checks=[
            (
                "proactivity pays: SS-SPST undercuts MAODV's delay",
                lambda r: _mean(r.series["ss-spst"]) <= _mean(r.series["maodv"]),
            ),
            (
                "SS-SPST is faster than SS-SPST-E (shallower trees)",
                lambda r: _mean(r.series["ss-spst"]) <= _mean(r.series["ss-spst-e"]),
            ),
        ],
        notes=(
            "Paper: both on-demand protocols are slower than the SS family. "
            "Our broadcast MAC has no per-link ARQ, which understates mesh "
            "delay: ODMRP's first-copy latency lands below SS-SPST here "
            "(documented deviation, docs/deviations.md)."
        ),
    )

    # ---------------------------------------------------------------- figd01
    # Extension (not a paper figure): the activation-daemon axis.  The
    # round model's stabilization guarantees are stated relative to a
    # daemon; this sweep asks how much the packet-level protocol cares
    # which beacon-scheduling discipline realizes it.
    figs["figd01"] = FigureDef(
        fig_id="figd01",
        title="Packet Delivery Ratio vs. Activation Daemon (extension)",
        x_name="daemon",
        y_name="pdr",
        metric="pdr",
        protocols=("ss-spst", "ss-spst-e"),
        x_quick=DAEMONS_QUICK,
        x_full=DAEMONS_FULL,
        checks=[
            (
                "every daemon keeps the protocol deliverable (PDR finite, in [0, 1])",
                lambda r: all(
                    0.0 <= y <= 1.0 for s in r.series.values() for y in s
                ),
            ),
            (
                "de-synchronized beaconing (distributed) delivers no worse "
                "than lockstep (synchronous) for SS-SPST",
                lambda r: r.series["ss-spst"][
                    list(r.x_values).index("distributed")
                ]
                >= r.series["ss-spst"][list(r.x_values).index("synchronous")]
                - 0.05,
            ),
        ],
        base_quick=_quick(v_max=5.0),
        base_full=_full(v_max=5.0),
        notes=(
            "The adversarial-max-cost daemon is round-model only (no DES "
            "realization) and is deliberately absent from the grid."
        ),
    )

    # ---------------------------------------------------------------- figd02
    # Extension (not a paper figure): stabilization time vs daemon vs n on
    # the ROUNDS backend.  The round model is orders of magnitude faster
    # per run than the DES, so this campaign covers every registered
    # daemon — including the round-model-only adversarial-max-cost stress
    # schedule the DES backend rejects — at paper scale (n up to 200).
    # The figure runs the full daemon x n grid (extra_grid); the plot
    # varies n under the base (distributed) daemon.
    figs["figd02"] = FigureDef(
        fig_id="figd02",
        title="Stabilization Rounds vs. Network Size per Activation Daemon "
        "(rounds backend, extension)",
        x_name="n_nodes",
        y_name="rounds",
        metric="rounds",
        protocols=("ss-spst", "ss-spst-e"),
        x_quick=(50, 200),
        x_full=(50, 100, 150, 200),
        base_quick=_quick(backend="rounds", group_size=20),
        base_full=_full(backend="rounds", group_size=20),
        extra_grid={"daemon": DAEMON_NAMES},
        checks=[
            (
                "every cell stabilizes under the default daemon "
                "(rounds finite and positive)",
                lambda r: all(
                    y == y and 0 < y < float("inf")
                    for s in r.series.values()
                    for y in s
                ),
            ),
            (
                "stabilization work does not shrink with network size",
                lambda r: all(
                    _increasing_ends(s, 0.5) for s in r.series.values()
                ),
            ),
        ],
        notes=(
            "Rounds-backend topologies are the t=0 snapshot of the DES "
            "scenario (same placement/group streams).  The adversarial "
            "daemon runs in the grid but off the plotted series; "
            "`campaign --figure figd02` tabulates every daemon."
        ),
    )

    # ---------------------------------------------------------------- figd03
    # Extension (not a paper figure): deep-scale stabilization on the
    # rounds backend — the columnar array engine over CSR (sparse)
    # topologies pushes the n axis three orders of magnitude past
    # figd02's paper-scale grid.  Constant density (density_ref_n pins
    # it to the paper's 50-nodes-per-750m-square arena) so the n axis
    # varies network *extent*, not degree; the synchronous daemon keeps
    # round counts comparable across n (serial daemons need O(n) steps
    # per round and are out of reach at 10^5 by construction, not by
    # implementation).
    figs["figd03"] = FigureDef(
        fig_id="figd03",
        title="Stabilization Rounds vs. Network Size at Deep Scale "
        "(array engine over sparse topologies, extension)",
        x_name="n_nodes",
        y_name="rounds",
        metric="rounds",
        protocols=("ss-spst", "ss-spst-t"),
        x_quick=(1_000, 4_000),
        x_full=(1_000, 10_000, 100_000),
        base_quick=_quick(
            backend="rounds",
            engine="array",
            topology="sparse",
            daemon="synchronous",
            n_nodes=1_000,
            group_size=100,
            density_ref_n=50,
        ),
        base_full=_full(
            backend="rounds",
            engine="array",
            topology="sparse",
            daemon="synchronous",
            n_nodes=1_000,
            group_size=100,
            density_ref_n=50,
        ),
        checks=[
            (
                "every deep-scale cell stabilizes (rounds finite and positive)",
                lambda r: all(
                    y == y and 0 < y < float("inf")
                    for s in r.series.values()
                    for y in s
                ),
            ),
            (
                "stabilization work grows with network extent",
                lambda r: all(
                    _increasing_ends(s, 0.5) for s in r.series.values()
                ),
            ),
        ],
        notes=(
            "engine='array' + topology='sparse' is what makes the 10^5 "
            "column tractable (the dense distance matrix alone is 80 GB "
            "there); results at 'sparse' hash separately from 'dense' "
            "(near-coincident pair distances round differently).  Quick "
            "scale stops at n=4000; `--paper` runs the 10^5 column."
        ),
    )

    # ---------------------------------------------------------------- figm01
    # Extension (not a paper figure): the mobility-model axis of the
    # scenario API.  The paper's causal chain — mobility -> fault rate ->
    # stabilization lag -> PDR — is only ever sampled at one mobility
    # model (random waypoint); this figure varies the *model* while the
    # speed envelope stays fixed, pairing delivery (the plotted PDR) with
    # stabilization cost (parent churn, checked per cell) and
    # the measured fault process (link_breaks_per_s is a DES MetricSpec).
    figs["figm01"] = FigureDef(
        fig_id="figm01",
        title="Packet Delivery Ratio and Stabilization Cost vs. Mobility "
        "Model (extension)",
        x_name="mobility",
        y_name="pdr",
        metric="pdr",
        protocols=("ss-spst", "ss-spst-e"),
        x_quick=MOBILITY_QUICK,
        x_full=MOBILITY_FULL,
        base_quick=_quick(v_max=5.0),
        base_full=_full(v_max=5.0),
        checks=[
            (
                "every mobility model keeps the protocol deliverable "
                "(PDR in [0, 1], no nan cells)",
                lambda r: all(
                    y == y and 0.0 <= y <= 1.0
                    for s in r.series.values()
                    for y in s
                ),
            ),
            (
                "a static network (WANET) delivers no worse than waypoint "
                "mobility for SS-SPST-E",
                lambda r: r.series["ss-spst-e"][
                    list(r.x_values).index("static")
                ]
                >= r.series["ss-spst-e"][list(r.x_values).index("waypoint")]
                - 0.05,
            ),
            (
                "zero mobility means less tree churn: static parent "
                "changes do not exceed waypoint's (SS-SPST-E)",
                lambda r: _cell_mean(r, "ss-spst-e", "static", "parent_changes")
                <= _cell_mean(r, "ss-spst-e", "waypoint", "parent_changes"),
            ),
        ],
        notes=(
            "The trace model is deliberately absent (needs a scenario "
            "file; pass --grid mobility=trace --model-param "
            "trace_file=... for replay studies).  Gauss-Markov uses the "
            "same speed envelope midpoint, so differences are the motion "
            "*pattern*, not the speed."
        ),
    )

    # ---------------------------------------------------------------- figg01
    # Extension (not a paper figure): the multi-group workload axis
    # (repro.groups).  The paper evaluates one multicast session at a
    # time; this figure stacks k concurrent SS-SPST sessions on one
    # contended medium and plots aggregate PDR vs group_count (x n via
    # the campaign grid), with cross-group fairness and link stress
    # checked through the per-cell diagnostics.
    figs["figg01"] = FigureDef(
        fig_id="figg01",
        title="Aggregate PDR and Cross-Group Fairness vs. Concurrent "
        "Groups (extension)",
        x_name="group_count",
        y_name="pdr",
        metric="pdr",
        protocols=("ss-spst", "ss-spst-e"),
        x_quick=(1, 2, 4),
        x_full=(1, 2, 4, 8),
        base_quick=_quick(v_max=5.0, n_nodes=30, group_size=8),
        base_full=_full(v_max=5.0, group_size=10),
        extra_grid={"n_nodes": (30, 50)},
        checks=[
            (
                "aggregate PDR stays in [0, 1] with no nan cells",
                lambda r: all(
                    y == y and 0.0 <= y <= 1.0
                    for s in r.series.values()
                    for y in s
                ),
            ),
            (
                "a single group scores perfect Jain fairness",
                lambda r: _cell_mean(r, "ss-spst", 1, "fairness_jain") > 0.999,
            ),
            (
                "fairness stays a valid Jain index under 4-way contention",
                lambda r: 0.0
                <= _cell_mean(r, "ss-spst", 4, "fairness_jain")
                <= 1.0 + 1e-9,
            ),
            (
                "link stress is populated for multi-group cells "
                "(trees share at least their own edges)",
                lambda r: _cell_mean(r, "ss-spst", 4, "link_stress_mean") >= 1.0,
            ),
            (
                "contention costs delivery: 4 groups do no better than 1",
                lambda r: r.series["ss-spst"][list(r.x_values).index(4)]
                <= r.series["ss-spst"][list(r.x_values).index(1)] + 0.05,
            ),
        ],
        notes=(
            "group_count is hash-neutral at 1 (the paper's single "
            "session), so the k=1 column shares cache cells with every "
            "other figure.  Groups 1..k-1 come from the group-size/"
            "overlap generators; sweep overlap with --grid "
            "overlap_model=independent,disjoint,shared-core."
        ),
    )

    # ---------------------------------------------------------------- fig16
    figs["fig16"] = FigureDef(
        fig_id="fig16",
        title="Energy Consumption per Packet Delivered vs. Velocity (4-way)",
        x_name="v_max",
        y_name="energy_per_packet_mj",
        metric="energy_per_packet_mj",
        protocols=FOURWAY,
        x_quick=VELOCITIES_QUICK,
        x_full=VELOCITIES_FULL,
        base_quick=_quick(),
        base_full=_full(),
        checks=[
            (
                "SS-SPST-E is the most energy-efficient of all four",
                lambda r: _mean(r.series["ss-spst-e"])
                == min(_mean(s) for s in r.series.values()),
            ),
            (
                "the on-demand protocols cost the most energy",
                lambda r: min(_mean(r.series["odmrp"]), _mean(r.series["maodv"]))
                > max(_mean(r.series["ss-spst"]), _mean(r.series["ss-spst-e"])),
            ),
            (
                "SS-SPST-E undercuts SS-SPST at every speed",
                lambda r: all(
                    e < h
                    for e, h in zip(r.series["ss-spst-e"], r.series["ss-spst"])
                ),
            ),
        ],
    )

    return figs


#: the per-figure registry (fig07..fig16 plus the figd01/figd02/figm01/
#: figg01 extensions)
FIGURES: Dict[str, FigureDef] = _build_figures()
