"""Access selection and cooperation simulator for multi-operator wireless networks."""

from .model import (
    ClassRequirements,
    DemandTable,
    MetricsReport,
    OperatorLedger,
    OperatorNetwork,
    ReplicationResult,
    Scenario,
    ScenarioError,
    ServiceClass,
    ServiceKind,
    ServiceRequest,
    Session,
    Technology,
    TrafficProfile,
    default_scenario,
    ensure_valid,
    load_scenario,
    save_scenario,
    scenario_from_dict,
    scenario_to_dict,
    validate_scenario,
)
from .selection import (
    AdmissionDecision,
    AdmissionTable,
    Outcome,
    admit,
    candidate_score,
    select_serving_operator,
    transfer_objective,
    user_score,
)
from .engine import (
    CapacityAccountingError,
    RngStreams,
    arrival_draws,
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
    report_rows,
    scope_rows,
    scope_stats,
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
