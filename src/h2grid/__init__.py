"""Electricity market dispatch and hydrogen supply chain studies.

A self-contained toolkit: a bounded-variable simplex and branch-and-bound
MILP solver, a DC power flow network model, uniform / redispatch / nodal
dispatch engines, hydrogen demand estimation, a truck-based supply chain
siting model, and the pipeline that couples them through electricity
tariffs and load feedback.
"""

from .chain import (CARRIER_DEFAULTS, CarrierParams, ChainDesign,
                    ImportSpec, ProductionParams, TariffMap,
                    TransportParams, annuity_factor, build_chain_problem,
                    end_use_cost, solve_chain)
from .demand import (CAR_STATION_TURNOVER, INDUSTRY, STATION_CARS,
                     STATION_TRUCKS, TRUCK_STATION_TURNOVER,
                     ConsumptionLocation, IndustrialSite,
                     build_consumption_set, industrial_site_demand,
                     plan_stations, station_count, station_investment_cost)
from .dispatch import (MODE_NODAL, MODE_UNIFORM_REDISPATCH, nodal_dispatch,
                       redispatch, run_year, uniform_dispatch)
from .errors import H2GridError
from .grid import (DISPATCHABLE, SOLAR, WIND, Generator, Line, Node,
                   PowerSystem, assign_to_nearest_node, compute_ptdf,
                   merge_parallel_lines)
from .lp import LinearProblem, Solution, solve_lp, solve_milp
from .pipeline import (FLAT, NODAL, REAL_TIME, UNIFORM, Scenario, StudyCase,
                       StudyReport, additionality_scale, derive_tariffs,
                       electrolyzer_loads, run_full_study, run_scenario)
from .synth import SyntheticSpec, congested_fixture, generate_synthetic_system

__version__ = "0.1.0"

__all__ = [
    "CARRIER_DEFAULTS", "CAR_STATION_TURNOVER", "CarrierParams",
    "ChainDesign", "ConsumptionLocation", "DISPATCHABLE", "FLAT",
    "Generator", "H2GridError", "INDUSTRY", "ImportSpec", "IndustrialSite",
    "LinearProblem", "Line", "MODE_NODAL", "MODE_UNIFORM_REDISPATCH",
    "NODAL", "Node", "PowerSystem", "ProductionParams",
    "REAL_TIME", "SOLAR", "STATION_CARS", "STATION_TRUCKS", "Scenario",
    "Solution", "StudyCase", "StudyReport", "SyntheticSpec", "TariffMap",
    "TRUCK_STATION_TURNOVER", "TransportParams", "UNIFORM", "WIND", "additionality_scale", "annuity_factor",
    "assign_to_nearest_node", "build_chain_problem", "build_consumption_set",
    "compute_ptdf", "congested_fixture", "derive_tariffs",
    "electrolyzer_loads", "end_use_cost", "generate_synthetic_system",
    "industrial_site_demand", "merge_parallel_lines", "nodal_dispatch",
    "plan_stations", "redispatch", "run_full_study", "run_scenario",
    "run_year", "solve_chain", "solve_lp", "solve_milp", "station_count",
    "station_investment_cost", "uniform_dispatch",
]
