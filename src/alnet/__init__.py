"""Integrable discrete nonlinear Schrodinger dynamics on metric graphs.

The lattice field lives on bonds joined at vertices (chains, stars,
trees); vertex couplings weighted by sqrt(gamma_parent/gamma_child)
make the junction reflectionless whenever the nonlinearity strengths
satisfy 1/gamma_parent = sum of 1/gamma_child.  The package builds
topologies, launches exact soliton profiles, integrates the dynamics,
audits the conserved-quantity hierarchy, and packages the standard
scattering experiments behind a CLI.
"""

from .conserved import (
    ConservedSnapshot,
    DriftReport,
    drift_audit,
    snapshot,
    universal_chain_field,
    z_quantity,
)
from .dynamics import (
    SimConfig,
    evolve,
    step,
)
from .errors import (
    DivergenceError,
    InconclusiveRunError,
    InvalidParameterError,
    SiteRangeError,
    TopologyError,
)
from .experiments import (
    PeakSeries,
    SnapshotPicker,
    SweepRow,
    TransmissionReport,
    broken_rule_run,
    scattering_run,
    transmission_sweep,
)
from .io import (
    DEFAULT_RATIO_GRID,
    EXPERIMENTS,
    RunConfig,
    RunOutputs,
    load_config,
    parse_config,
    serialize_config,
    topology_from_dict,
    write_outputs,
)
from .soliton import (
    SolitonParams,
    derive_kinematics,
    sech,
    soliton_profile,
)
from .state import (
    FieldState,
    assert_finite,
    bond_field,
    partial_norms,
)
from .topology import (
    BondSpec,
    CouplingCoefficients,
    GraphTopology,
    KIND_INCOMING,
    KIND_INTERNAL,
    KIND_LEAF,
    ROOT_LABEL,
    SUM_RULE_TOL,
    build_chain,
    build_star,
    build_tree,
    check_sum_rule,
    coupling_coefficients,
    is_reflectionless,
    site_offset,
)

__version__ = "0.1.0"
