"""Many-to-one secret-key generation: game analysis and protocol simulation.

The package splits into the source model (joint tables, entropies), the
induced coalitional game and its core, allocation solvers (Shapley value,
nucleolus), polar source-coding primitives, and the end-to-end protocol
simulator with leftover-hash secrecy accounting.
"""

from .allocate import (NucleolusTrace, brute_force_nucleolus,
                       core_polytope_vertices, nucleolus, prekernel_gap,
                       shapley_closed_form, shapley_from_game)
from .errors import (CapacityError, ConsistencyError, SolverError,
                     ValidationError)
from .game import (CoalitionGame, clearance_level_games, core_bounds,
                   core_contains, is_superadditive, is_supermodular,
                   value_function)
from .polar import (EntropyProfile, PolarIndexSets, build_index_sets,
                    construct_profile, entropy_profile_exact,
                    entropy_profile_mc, polar_transform, sc_decode)
from .protocol import (KeyMaterial, ProtocolConfig, ToeplitzHash, Transcript,
                       leakage_bound, run_protocol, sample_hash)
from .secrecy import empirical_secrecy_check, toeplitz_collision_rate
from .source import (DegradedSourceSpec, JointSource, binary_entropy, entropy,
                     mutual_information, verify_markov)

__version__ = "0.1.0"
