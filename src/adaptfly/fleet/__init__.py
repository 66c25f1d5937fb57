"""Fleet orchestration: agents, transport, consolidation server, scenarios."""

from .agents import RECORD_COLUMNS, LimitedAgent, MassiveAgent, StepRecord
from .config import (
    AgentSpec,
    LimitedSpec,
    MassiveSpec,
    ScenarioConfig,
    SegmentSpec,
    reference_config,
)
from .mec import MecServer, ProvenanceLog
from .messages import (
    FleetMessage,
    Query,
    QueryResponse,
    RefineTick,
    RegisterDeferred,
    UploadPrompt,
    decode_message,
    encode_message,
)
from .scenario import (
    ScenarioResult,
    adaptation_summary,
    calibrate_scenario,
    metrics_csv,
    parse_metrics_csv,
    run_scenario,
)
from .transport import BytePipe, InprocClient, StreamClient, TransportFailure

__all__ = [
    "RECORD_COLUMNS",
    "LimitedAgent",
    "MassiveAgent",
    "StepRecord",
    "AgentSpec",
    "LimitedSpec",
    "MassiveSpec",
    "ScenarioConfig",
    "SegmentSpec",
    "reference_config",
    "MecServer",
    "ProvenanceLog",
    "FleetMessage",
    "Query",
    "QueryResponse",
    "RefineTick",
    "RegisterDeferred",
    "UploadPrompt",
    "decode_message",
    "encode_message",
    "ScenarioResult",
    "adaptation_summary",
    "calibrate_scenario",
    "metrics_csv",
    "parse_metrics_csv",
    "run_scenario",
    "BytePipe",
    "InprocClient",
    "StreamClient",
    "TransportFailure",
]
