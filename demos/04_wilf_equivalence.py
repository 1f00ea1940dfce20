"""
A Wilf equivalence witnessed through drawings
=============================================

The classes I(010,101,120,201) and I(011,201) were conjectured to be
equinumerous.  Routing one class through drawings -- invert the contact
reading, flip the drawing upside down, read height labels -- lands
bijectively in the other class and carries four statistics along.
"""

from collections import Counter

from rectlab import reflect, sigma, tau7_inv
from rectlab.invseq import CLASS_PATTERNS, enumerate_invseq, stats


def witness(e):
    return sigma(reflect(tau7_inv(e), "horizontal"))


n = 6
i7 = list(enumerate_invseq(n, CLASS_PATTERNS["i7"]))
yl = list(enumerate_invseq(n, ("011", "201")))
print(f"n={n}: |I(010,101,120,201)| = {len(i7)}, |I(011,201)| = {len(yl)}")

image = [witness(e) for e in i7]
print("witness image equals the target class:", sorted(image) == sorted(yl))

# per-object statistics transfer: (zeros, maxima, bounce, highs) on the left
# becomes (highs, zeros, minima, bounce) on the right
for e in i7[:5]:
    f = witness(e)
    a, b = stats(e), stats(f)
    print(f"  {e} -> {f}   "
          f"({a.zeros},{a.ltr_maxima},{a.bounce},{a.highs}) = "
          f"({b.highs},{b.zeros},{b.rtl_minima},{b.bounce})")

quad_l = Counter((s.zeros, s.ltr_maxima, s.bounce, s.highs)
                 for s in map(stats, i7))
quad_r = Counter((s.highs, s.zeros, s.rtl_minima, s.bounce)
                 for s in map(stats, yl))
print("quadruple multisets equal:", quad_l == quad_r)

# and the first/third coordinates can be exchanged on both sides at once
swap_l = Counter((c, b, a, d) for (a, b, c, d) in quad_l.elements())
swap_r = Counter((z, y, x, t) for (x, y, z, t) in quad_r.elements())
print("swapped multisets equal:", swap_l == swap_r)
