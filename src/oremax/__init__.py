"""Maximum size of k-connected graphs of given order and diameter.

Closed-form counts (Ore, 1968), the backbone construction and the full
extremal family, diameter and connectivity invariants, and an
exhaustive brute-force oracle that re-derives everything independently
at desk scale.
"""

from .errors import CapacityError, Graph6ParseError, ParameterError
from .extremal import (BlockMap, FamilyMemberSpec, FormulaMode, Parameters,
                       Side, attachment_cap, backbone_order, backbone_size,
                       build_backbone, build_family_member, enumerate_family,
                       is_extremal, max_size_formula)
from .graphs import (CANONICAL_MAX_ORDER, MAX_ORDER, CanonicalForm, Graph,
                     bit_code, bits, canonical_form, from_bit_code,
                     from_edges, from_graph6, relabeling_codes, to_dot,
                     to_edge_list, to_graph6)
from .metrics import (DISCONNECTED, ConnectivityResult, Disconnected,
                      LayerProfile, bfs_layers, connectivity, diameter,
                      is_connected, is_k_connected, layer_structure_check,
                      local_connectivity, vertex_connectivity)
from .oracle import OracleReport, max_size_bruteforce, sweep, verify_theorem

__all__ = [
    "BlockMap", "CANONICAL_MAX_ORDER", "CanonicalForm",
    "CapacityError", "ConnectivityResult", "DISCONNECTED", "Disconnected",
    "FamilyMemberSpec", "FormulaMode", "Graph", "Graph6ParseError",
    "LayerProfile", "MAX_ORDER", "OracleReport", "ParameterError",
    "Parameters", "Side", "attachment_cap", "backbone_order",
    "backbone_size", "bfs_layers", "bit_code", "bits", "build_backbone",
    "build_family_member", "canonical_form", "connectivity", "diameter",
    "enumerate_family", "from_bit_code", "from_edges", "from_graph6",
    "is_connected", "is_extremal", "is_k_connected",
    "layer_structure_check", "local_connectivity", "max_size_bruteforce",
    "max_size_formula", "relabeling_codes", "sweep", "to_dot",
    "to_edge_list", "to_graph6", "verify_theorem", "vertex_connectivity",
]

__version__ = "0.3.0"
