"""Access selection and cooperation simulator for multi-operator wireless networks."""

from .model import (
    ClassRequirements,
    DemandTable,
    MetricsReport,
    OperatorLedger,
    OperatorNetwork,
    QoSRequirements,
    ReplicationResult,
    Scenario,
    ScenarioError,
    ServiceClass,
    ServiceKind,
    ServiceRequest,
    Session,
    Technology,
    TrafficProfile,
    UserPreferences,
    default_scenario,
    ensure_valid,
    load_scenario,
    save_scenario,
    scenario_from_dict,
    scenario_to_dict,
    validate_scenario,
)
from .scoring import NormalizedQoS, candidate_score, normalize_offer, user_score
from .selection import (
    AdmissionDecision,
    AdmissionTable,
    Outcome,
    admit,
    select_serving_operator,
    transfer_objective,
)
from .engine import (
    CapacityAccountingError,
    RngStreams,
    generate_arrival,
    run_experiment,
    run_replication,
)
from .analytics import (
    BlockingStats,
    ExchangeMatrix,
    accrue,
    blocking_stats,
    exchange_matrix,
    profit_stats,
    session_volume_kbytes,
)

__version__ = "0.1.0"


def __getattr__(name):
    # Loaded on first use: importing accessim.cli here would make
    # `python -m accessim.cli` warn that the module was imported twice.
    if name == "run_grid":
        from .cli import run_grid
        return run_grid
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
