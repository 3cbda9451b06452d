"""cycseq: exact combinatorics of cyclic symbolic sequences.

Necklace enumeration, frequency-vector projection and raising, de Bruijn
graphs with exact Eulerian-cycle counts, the two-step lowering algorithm,
ultrametric cluster trees, and two-fold de Bruijn sequence counting.
"""

from .clustertree import (
    ClusterNode,
    ClusterTree,
    build_tree,
    export_tree,
    max_branching_level,
    predicted_max_branching_level,
    tree_from_json,
    tree_to_dot,
    tree_to_json,
    tree_to_newick,
)
from .debruijn import (
    Multigraph,
    contract_doubled_edges,
    count_debruijn_sequences,
    count_eulerian_cycles,
    count_multi_debruijn,
    count_sequences_with_frequency,
    enumerate_sequences_with_frequency,
    full_graph,
    integer_determinant,
    subgraph_from_frequency,
    subgraph_to_dot,
)
from .errors import CycseqError, DomainError, ResourceCapError
from .freqspace import (
    FrequencyVector,
    gamma_max,
    index_word,
    p_close,
    project,
    raise_level,
    ultrametric_distance,
    word_index,
)
from .lowering import (
    WaveletBasis,
    lower,
    lowering_incidence_action,
    raising_matrix_action,
    solve_step1,
    wavelet_basis,
)
from .seqcore import (
    CyclicSequence,
    canonicalize,
    divisors,
    enumerate_necklaces,
    euler_totient,
    level1_cluster_size,
    minimal_period,
    necklace_count,
    necklace_strings,
    sequence_from_string,
    sequence_to_string,
    shift,
)
from .twofold import (
    BlockChoice,
    configuration_minor,
    count_twofold,
    count_twofold_bruteforce,
    count_twofold_exact,
    expand_configuration,
    list_twofold_bruteforce,
    minor_adjacency,
    minor_cofactor,
    minor_cofactor_closed_form,
    permutation_count,
    phi,
    twofold_table,
)

__version__ = "0.1.0"
