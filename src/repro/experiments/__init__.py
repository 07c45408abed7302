"""Experiment harness: scenario configs, the runner, and one definition
per figure of the paper's evaluation (Figures 7-16).

Typical use::

    from repro.experiments import ScenarioConfig, run_scenario

    cfg = ScenarioConfig(protocol="ss-spst-e", v_max=5.0, seed=1)
    result = run_scenario(cfg)
    print(result.pdr, result.energy_per_packet_mj, result.frames_sent)

Both backends return one :class:`RunResult`: the backend's summary
dataclass plus its diagnostics mapping (empty on the rounds backend),
both readable as attributes of the result.

or reproduce a whole figure::

    from repro.experiments.figures import FIGURES

    result = FIGURES["fig09"].run(quick=True)
    print(result.format_table())

A figure is a campaign: ``run`` executes the figure's full campaign
grid (extra axes included) and its series are the campaign's per-cell
Welford means of the figure's metric, the numbers ``campaign --figure``
prints.
"""

from repro.experiments.backends import (
    BACKEND_NAMES,
    ExperimentBackend,
    MetricSpec,
    RunResult,
    backend_by_name,
    metric_extractor,
)
from repro.experiments.config import ScenarioConfig
from repro.experiments.runner import run_scenario
from repro.experiments.scenario_models import (
    AXES,
    DEFAULT_MODELS,
    MODEL_NAMES,
    ScenarioModel,
    build_scenario_space,
    effective_arena,
    model_by_name,
)
from repro.experiments.lifetime import LifetimeResult, compare_lifetimes, run_lifetime
from repro.groups.models import GROUP_MODEL_NAMES, group_model_by_name

#: campaign-service exports resolved lazily (PEP 562) so that running the
#: CLI as ``python -m repro.experiments.campaign`` does not import the
#: module twice (once via this package, once as ``__main__``); mapped to
#: the layer module that owns each name (see docs/campaigns.md).
_LAZY_EXPORTS = {
    # spec / orchestration
    "CampaignSpec": "campaign",
    "CampaignResult": "campaign",
    "run_campaign": "campaign",
    "collect_campaign": "campaign",
    # store layer
    "ResultStore": "store",
    "JsonDirStore": "store",
    "SqliteStore": "store",
    "open_store": "store",
    "migrate_json_dir": "store",
    "config_key": "store",
    "shard_of": "store",
    # scheduler layer
    "Scheduler": "scheduler",
    "PoolScheduler": "scheduler",
    "CancelCampaign": "scheduler",
    # aggregation layer
    "Welford": "aggregation",
    "StreamingAggregate": "aggregation",
}


def __getattr__(name):
    if name in _LAZY_EXPORTS:
        import importlib

        module = importlib.import_module(
            f"repro.experiments.{_LAZY_EXPORTS[name]}"
        )
        return getattr(module, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "BACKEND_NAMES",
    "ExperimentBackend",
    "MetricSpec",
    "backend_by_name",
    "metric_extractor",
    "ScenarioConfig",
    "run_scenario",
    "RunResult",
    "AXES",
    "DEFAULT_MODELS",
    "MODEL_NAMES",
    "ScenarioModel",
    "build_scenario_space",
    "effective_arena",
    "model_by_name",
    "GROUP_MODEL_NAMES",
    "group_model_by_name",
    "LifetimeResult",
    "compare_lifetimes",
    "run_lifetime",
    *_LAZY_EXPORTS,
]
