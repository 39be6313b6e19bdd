"""Distance-geometry instances solved classically and by simulated quantum search.

Small chain-molecule distance geometry problems with a discretization
vertex order are generated, validated, and solved two ways: exact
branch-and-prune over the torsion-sign tree, and an exact statevector
simulation of amplitude amplification driven by a penalty-threshold
oracle.  Result distributions are scored with total-variation and
Hellinger fidelities plus selectivity, including against bundled
reference data from public quantum-device experiments.
"""

from importlib import resources

from .bitstrings import bits_to_int, int_to_bits
from .bp import (
    NoSolutionError,
    Solution,
    SolutionSet,
    SymmetrySet,
    branch_and_prune,
    expand_symmetry,
    symmetry_set,
)
from .geometry import (
    Conformation,
    InternalCoords,
    b_matrix,
    extract_internal,
    penalty,
    realize,
)
from .grover import (
    Distribution,
    GroverPlan,
    ShotCounts,
    Statevector,
    grover_distribution,
    grover_state,
    iteration_count,
    mix_uniform,
    sample,
    success_probability,
)
from .instance import (
    DmdgpInstance,
    GroundTruth,
    ParseError,
    ValidationReport,
    Violation,
    demo7_edges,
    demo7_instance,
    generate,
    generate_from_topology,
    parse_document,
    random_internal_coords,
    serialize_instance,
    validate,
)
from .metrics import MetricsReport, compare, hellinger, selectivity, total_variation
from .oracle import (
    OracleParams,
    ScanCapExceeded,
    marked_set,
    oracle_bit,
    oracle_eval,
    oracle_params,
    oracle_value,
)

__version__ = "0.1.0"


def data_file(name: str):
    """Traversable handle on a bundled data file (CSV tables, demo instance)."""
    return resources.files(__name__).joinpath("data", name)
