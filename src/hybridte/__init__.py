"""Traffic engineering on hybrid SDN/MPLS networks, simulated in time slots.

The package models a network whose edge switches steer flows onto
label-switched paths. Two exact solvers (flow re-routing and LSP
re-creation), a greedy fast re-routing heuristic, and a static
shortest-path baseline can be compared on seeded synthetic traffic.
"""

from .audit import audit_flow_assignment, audit_lsp_routing
from .baseline import shortest_path_route
from .errors import (ConfigError, HybridTeError, Infeasible, InvalidPathError,
                     ParseError, UnreachableError, ValidationError)
from .ffr import FfrResult, ffr
from .lsp import Lsp, LspPlan, build_lsp
from .metrics import MetricsSample, compute_sample, link_index, write_metrics_csv
from .orchestrator import (LspPlanSpec, RunResult, ScenarioConfig, build_auto_lsp_plan,
                           initial_assignment, load_scenario, run_comparison,
                           run_scenario, write_comparison, write_run_result)
from .recreation import (LspRequest, RecreationProblem, RecreationSolution,
                         enumerate_simple_paths, solve_lsp_recreation)
from .rerouting import (ReroutingProblem, ReroutingSolution, RoutingMode,
                        solve_flow_rerouting)
from .topology import (Link, NetworkTopology, links_of_path, load_topology,
                       load_topology_file, reference_topology, serialize_topology)
from .traffic import Flow, TrafficConfig, generate_flows, grow_flows, growth_block

__version__ = "0.1.0"
