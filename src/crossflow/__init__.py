"""Signal-free intersection coordination for connected automated vehicles.

The package plans collision-free crossings of a four-arm intersection
without traffic lights.  Vehicles announce themselves when they enter a
control zone upstream of the central merge zone; a first-in-first-out
scheduler assigns each one merge-zone entry and exit times that rule out
rear-end and lateral conflicts, and closed-form optimal control delivers
the trajectory between those boundary conditions: minimum control effort
on the approach, and a fuel/comfort tradeoff inside the merge zone.
"""

from crossflow.geometry import (
    ALL_MOVEMENTS,
    Arm,
    ConflictClass,
    IntersectionGeometry,
    Movement,
    Turn,
    classify,
)
from crossflow.audit import (
    AuditFinding,
    AuditReport,
    FeasibilityReport,
    Violation,
    audit_queue,
    audit_run,
    check_feasibility,
)
from crossflow.scheduler import Schedule, VehicleSpec, earliest_mz_arrival, schedule
from crossflow.cz_planner import PolyTrajectory, solve_cz
from crossflow.mz_planner import (
    MzBoundary,
    MzCosts,
    MzTrajectory,
    MzVariant,
    mz_costs,
    normalization_weights,
    solve_mz,
    solve_mz_fuel,
    solve_mz_jerk,
    solve_mz_weighted,
)
from crossflow.pareto import ParetoPoint, ParetoRun, default_grid, frontier, sweep
from crossflow.sim import (
    GateStats,
    SimConfig,
    SimRun,
    VehicleRecord,
    generate_arrivals,
    plan_crossing,
    run,
)

__version__ = "0.1.0"
