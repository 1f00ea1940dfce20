"""
Strong classes and the two generating trees
===========================================

Strong equivalence also remembers rectangle-to-rectangle contacts, so one
weak class splits into several strong ones.  Two corner-insertion trees
grow these classes; their traces pair drawings with pattern-avoiding
inversion sequences, and a quadratic-size dynamic program counts levels.
"""

from rectlab import (count_by_tree, count_class, level_counts, replay_invseq,
                     sigma, t1_children_rect, t1_type_rect, tau7,
                     trace_of_rect)
from rectlab.gentree import trace_to_json
from rectlab.invseq import CLASS_PATTERNS, count_invseq
from rectlab.render import render_ascii
from rectlab.universe import enumerate_class

# Strong counts leave Catalan territory immediately:
for n in range(1, 7):
    print(f"n={n}: weak {count_class(n, 'weak', ('td',))}, "
          f"strong {count_class(n, 'strong', ('td',))}")

# The first tree's node type is (number of E-rects, left contacts of the
# NE-rect); children push E-rects aside or shelve the NE-rect downward.
d = enumerate_class(4, "strong", ("td",))[5]
print(render_ascii(d))
print("type:", t1_type_rect(d))
for step, child in t1_children_rect(d):
    print("  child via", step, "type", t1_type_rect(child))

# A trace identifies a drawing; replaying it on the sequence side gives the
# same object in inversion-sequence clothing.
tr = trace_of_rect(d, "t1")
print("trace:", trace_to_json(tr))
print("sequence twin:", replay_invseq(tr, "t1"), "= tau7:", tau7(d))

# The second tree works on the upside-down class and reads height labels:
du = enumerate_class(4, "strong", ("tu",))[5]
print("sigma:", sigma(du), "trace:", trace_to_json(trace_of_rect(du, "t2")))

# Level counts of both trees agree with each other and with four sequence
# classes; the dynamic program reaches n in the hundreds.
print("tree levels:", level_counts("t1", 10))
print("same via t2:", level_counts("t2", 10))
print("I(010,101,120,201) at n=7:", count_invseq(7, CLASS_PATTERNS["i7"]))
print("I(011,201)         at n=7:", count_invseq(7, ("011", "201")))
print("level 50 has", count_by_tree("t1", 50), "nodes")
