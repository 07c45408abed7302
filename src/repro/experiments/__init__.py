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

Exports resolve on first use (:func:`repro.lazy_exports`): importing
the package loads only :mod:`~repro.experiments.config`, so a rounds
campaign never imports the DES runner and a DES campaign never imports
the array engine (see ``docs/campaigns.md``, *Start-up*).
"""

from repro import lazy_exports
from repro.experiments.config import ScenarioConfig

#: every other export, mapped to the module that defines it; lazy also so
#: that running the CLI as ``python -m repro.experiments.campaign`` does
#: not import that module twice (once via this package, once as
#: ``__main__``)
_LAZY_EXPORTS = {
    # backends
    "BACKEND_NAMES": "backends",
    "ExperimentBackend": "backends",
    "RunResult": "backends",
    "backend_by_name": "backends",
    "metric_extractor": "backends",
    # DES runner and lifetime study
    "run_scenario": "runner",
    "LifetimeResult": "lifetime",
    "compare_lifetimes": "lifetime",
    "run_lifetime": "lifetime",
    # scenario models
    "AXES": "scenario_models",
    "DEFAULT_MODELS": "scenario_models",
    "MODEL_NAMES": "scenario_models",
    "ScenarioModel": "scenario_models",
    "build_scenario_space": "scenario_models",
    "effective_arena": "scenario_models",
    "model_by_name": "scenario_models",
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

__getattr__ = lazy_exports(__name__, _LAZY_EXPORTS)

__all__ = [
    "ScenarioConfig",
    *_LAZY_EXPORTS,
]
