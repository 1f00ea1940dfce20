"""Exact enumeration and bijections for pattern-avoiding rectangulations."""

from .drawing import (InvalidDrawing, RectDrawing, Segment, boundary_touch_counts,
                      canonical_drawing, contacts_of, from_json, heap_order,
                      is_diagonal, joints_of, l_labels, linear_extension,
                      make_drawing, order_labels, relations_of, reflect,
                      segments_of, size1, strong_key, validate, weak_key)
from .patterns import (PATTERNS, avoids_all, contains, is_guillotine,
                       occurrences)
from .universe import (count_class, count_strip_class, enumerate_class,
                       enumerate_strong, enumerate_weak)
from .gentree import (ClassError, count_by_tree, level_counts, replay_invseq,
                      replay_rect, t1_children_invseq, t1_children_rect,
                      t1_type_invseq, t1_type_rect, t2_children_invseq,
                      t2_children_rect, t2_type_invseq, t2_type_rect,
                      trace_of_invseq, trace_of_rect)
from .bijections import (all_trees, beta, composition_of, delta, delta_direct,
                         delta_inv, epsilon, epsilon_inv, k_class,
                         lambda_labels, nw_word, rect_of_composition,
                         rect_of_nw_word, rect_of_tree, seq_to_tree, sigma,
                         sigma_inv, tau, tau6, tau6_inv, tau7, tau7_inv, tau8,
                         tau8_inv, tau_inv, tree_T, tree_of, tree_to_seq)
from .paths import (catalan, catalan_series, dyck_paths, gk_series,
                    growth_rate, is_progressive, is_rushed, phi, phi_inv,
                    progressive_paths, q_poly, rushed_paths, strip_path_count)

__version__ = "0.1.0"
