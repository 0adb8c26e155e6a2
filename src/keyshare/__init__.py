"""Many-to-one secret-key generation: game analysis and protocol simulation.

The package splits into the source model (joint tables, entropies), the
induced coalitional game and its core, allocation solvers (Shapley value,
nucleolus), polar source-coding primitives, and the end-to-end protocol
simulator with leftover-hash secrecy accounting.
"""

from .allocate import (LinearProgram, NucleolusTrace, brute_force_nucleolus,
                       core_polytope_vertices, lexicographic_less, lp_solve,
                       nucleolus, shapley_closed_form, shapley_from_game)
from .errors import (CapacityError, ConsistencyError, SolverError,
                     ValidationError)
from .game import (CoalitionGame, CoreBounds, clearance_level_games,
                   core_bounds, core_contains, excess, is_superadditive,
                   is_supermodular, sorted_excess_vector, value_function,
                   value_function_conditional, w_is_submodular)
from .polar import (EntropyProfile, PolarIndexSets, build_index_sets,
                    construct_profile, entropy_profile_exact,
                    entropy_profile_mc, polar_transform, sc_decode)
from .protocol import (KeyMaterial, ProtocolConfig, ToeplitzHash, Transcript,
                       key_lengths_from_allocation, leakage_bound,
                       min_entropy_floor, privacy_amplify, reconcile,
                       run_protocol, sample_hash)
from .secrecy import empirical_secrecy_check, toeplitz_collision_rate
from .source import (DegradedSourceSpec, EntropyQuery, JointSource,
                     binary_entropy, build_degraded_source,
                     coalition_value_closed_form, conditional_mi, entropy,
                     f_value, mutual_information, verify_markov)

__version__ = "0.1.0"
