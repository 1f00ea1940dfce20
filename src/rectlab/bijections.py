"""The explicit maps between rectangulation classes and their partner
structures: label readings onto inversion sequences and Dyck paths, the
Baxter-style permutation reading, the binary-tree construction, the three
strong-class sequence bijections and the contact-corrected direct form, the
height-label reading through the contact tree, and the small elementary-class
bijections.

Drawings returned by inverse maps are canonical strong representatives;
weak-level identities are compared through weak_key.
"""

from __future__ import annotations

from . import invseq
from .drawing import (RectDrawing, canonical_drawing, l_labels, make_drawing,
                      order_labels, size1)
from .gentree import ClassError, replay_rect, trace_of_invseq
from .patterns import contains

# ---------------------------------------------------------------------------
# weak side: tau, epsilon, delta, beta


def tau(d: RectDrawing, check=True):
    """Left-count labels read in SW-NE order."""
    if check and contains(d, "td"):
        raise ClassError("drawing has a vertical segment not reaching N")
    labels = l_labels(d)
    return tuple(labels[i] for i in order_labels(d, "sw-ne"))


def tau_inv(e) -> RectDrawing:
    """A representative of the weak class mapping to the non-decreasing
    sequence e."""
    e = invseq.check_invseq(e)
    if any(a > b for a, b in zip(e, e[1:])):
        raise ClassError(f"{e} is not non-decreasing")
    return replay_rect(trace_of_invseq(e, "t1", "i7"), "t1")


def epsilon(e) -> str:
    """Non-decreasing sequence to Dyck word (U per element, D per unit rise,
    closing D's at the end)."""
    e = invseq.check_invseq(e)
    prev, out = 0, []
    for v in e:
        if v < prev:
            raise ClassError(f"{e} is not non-decreasing")
        out.append("D" * (v - prev) + "U")
        prev = v
    out.append("D" * (len(e) - prev))
    return "".join(out)


def epsilon_inv(word: str):
    v, out = 0, []
    for ch in word:
        if ch == "U":
            out.append(v)
        else:
            v += 1
    e = tuple(out)
    if epsilon(e) != word:
        raise ClassError(f"{word} is not in the image of the staircase map")
    return e


def delta(d: RectDrawing) -> str:
    return epsilon(tau(d))


def delta_direct(d: RectDrawing) -> str:
    """Dyck word read off the drawing itself: up the left side and each
    vertical segment (one U per right neighbor, bottom to top), down with one
    D per left neighbor, finishing along the right side."""
    if contains(d, "td"):
        raise ClassError("drawing has a vertical segment not reaching N")
    out = ["U" * sum(b[0] == 0 for b in d.rects)]
    for x in range(1, d.width):
        out.append("D" * sum(b[2] == x for b in d.rects))
        out.append("U" * sum(b[0] == x for b in d.rects))
    out.append("D" * sum(b[2] == d.width for b in d.rects))
    return "".join(out)


def delta_inv(word: str) -> RectDrawing:
    return tau_inv(epsilon_inv(word))


def beta(d: RectDrawing):
    """Label rects 1..n in SE-NW order, read the labels in SW-NE order."""
    senw = order_labels(d, "se-nw")
    label = [0] * d.size
    for pos, r in enumerate(senw, 1):
        label[r] = pos
    return tuple(label[r] for r in order_labels(d, "sw-ne"))


# ---------------------------------------------------------------------------
# binary trees (node-counted: empty tree or (left, right))

BinaryTree = object  # None | tuple(left, right)


def tree_size(t) -> int:
    return 0 if t is None else 1 + tree_size(t[0]) + tree_size(t[1])


def all_trees(n):
    """All binary trees with n nodes."""
    if n == 0:
        yield None
        return
    for i in range(n):
        for left in all_trees(i):
            for right in all_trees(n - 1 - i):
                yield (left, right)


def tree_to_seq(t):
    """The non-decreasing sequence of the drawing grown from t, computed
    structurally: root contributes 0, the above-part keeps its values, the
    right-part is shifted past everything on the left."""
    if t is None:
        return ()
    left, right = t
    left_seq = tree_to_seq(left)
    shift = 1 + len(left_seq)
    return (0,) + left_seq + tuple(v + shift for v in tree_to_seq(right))


def seq_to_tree(e):
    """Inverse of tree_to_seq on non-decreasing inversion sequences."""
    e = tuple(e)
    if not e:
        return None
    if e[0] != 0 or any(a > b for a, b in zip(e, e[1:])):
        raise ClassError(f"{e} is not a non-decreasing inversion sequence")
    p = next((j for j in range(2, len(e) + 1) if e[j - 1] == j - 1), None)
    if p is None:
        return (seq_to_tree(e[1:]), None)
    return (seq_to_tree(e[1:p - 1]),
            seq_to_tree(tuple(v - (p - 1) for v in e[p - 1:])))


def rect_of_tree(t) -> RectDrawing:
    """Grow the drawing of a binary tree: the root rectangle sits at the SW
    corner, the left subtree stacks above it behind the same right edge, the
    right subtree fills a full-height block on the right."""
    n = tree_size(t)
    if n == 0:
        raise ValueError("empty tree has no drawing")
    if n == 1:
        return size1()
    left, right = t
    a, b = tree_size(left), tree_size(right)
    if b == 0:
        sub = rect_of_tree(left)
        boxes = [(0, 0, sub.width, 1)]
        boxes += [(x0, y0 + 1, x1, y1 + 1) for (x0, y0, x1, y1) in sub.rects]
        return make_drawing(sub.width, sub.height + 1, boxes)
    if a == 0:
        sub = rect_of_tree(right)
        boxes = [(0, 0, 1, sub.height)]
        boxes += [(x0 + 1, y0, x1 + 1, y1) for (x0, y0, x1, y1) in sub.rects]
        return make_drawing(sub.width + 1, sub.height, boxes)
    da, db = rect_of_tree(left), rect_of_tree(right)
    W, H = da.width + db.width, da.height + db.height

    def ya(y):
        return H if y == da.height else y + 1

    def yb(y):
        return 0 if y == 0 else y + da.height

    boxes = [(0, 0, da.width, 1)]
    boxes += [(x0, ya(y0), x1, ya(y1)) for (x0, y0, x1, y1) in da.rects]
    boxes += [(x0 + da.width, yb(y0), x1 + da.width, yb(y1))
              for (x0, y0, x1, y1) in db.rects]
    return make_drawing(W, H, boxes)


def tree_of(d: RectDrawing):
    """Binary tree of a drawing whose vertical segments all reach N."""
    return seq_to_tree(tau(d))


# ---------------------------------------------------------------------------
# strong side, tree t1: tau7 / tau8 / tau6


def tau7(d: RectDrawing):
    """Contact-corrected left-count reading: start from the weak reading and
    lower each plateau entry by the index of the left neighbor its SW corner
    touches."""
    if contains(d, "td"):
        raise ClassError("drawing has a vertical segment not reaching N")
    e = list(tau(d, check=False))
    pos = {r: p for p, r in enumerate(order_labels(d, "sw-ne"))}
    for x in range(1, d.width):
        rights = sorted((i for i, b in enumerate(d.rects) if b[0] == x),
                        key=lambda i: d.rects[i][1])
        lefts = sorted((i for i, b in enumerate(d.rects) if b[2] == x),
                       key=lambda i: d.rects[i][1])
        for r in rights:
            y = d.rects[r][1]
            j = next(idx for idx, l in enumerate(lefts, 1)
                     if d.rects[l][1] <= y < d.rects[l][3])
            e[pos[r]] -= j - 1
    return tuple(e)


def tau7_inv(e) -> RectDrawing:
    return replay_rect(trace_of_invseq(tuple(e), "t1", "i7"), "t1")


def tau8(d: RectDrawing):
    return invseq.transform_7_to_8(tau7(d))


def tau8_inv(e) -> RectDrawing:
    return tau7_inv(invseq.transform_8_to_7(tuple(e)))


def tau6(d: RectDrawing):
    return invseq.transform_8_to_6(tau8(d))


def tau6_inv(e) -> RectDrawing:
    return tau8_inv(invseq.transform_6_to_8(tuple(e)))


# ---------------------------------------------------------------------------
# strong side, tree t2: height labels, contact tree, sigma


def lambda_labels(d: RectDrawing):
    """(per-line, per-rect) counts of rectangles lying lower; computed on the
    canonical drawing, where the count below line y is simply the number of
    rects whose top is at height <= y."""
    d = canonical_drawing(d)
    below = {}
    for y in range(1, d.height):
        below[y] = sum(b[3] <= y for b in d.rects)
    rect_lam = [0 if b[1] == 0 else below[b[1]] for b in d.rects]
    return below, rect_lam


def tree_T(d: RectDrawing):
    """Contact tree: edge from X to Y when the SE corner of X lies on the
    left side of Y; the root is the unique E-rectangle, a virtual node when
    there are several.  Returns (root, parents, children) over rect indices,
    root = -1 for the virtual node."""
    if contains(d, "tu"):
        raise ClassError("drawing has a vertical segment not reaching S")
    d = canonical_drawing(d)
    erects = [i for i, b in enumerate(d.rects) if b[2] == d.width]
    root = erects[0] if len(erects) == 1 else -1
    parents = {}
    for i, (x0, y0, x1, y1) in enumerate(d.rects):
        if x1 == d.width:
            if root == -1:
                parents[i] = -1
            elif i != root:
                raise AssertionError("several E-rects without a virtual root")
            continue
        cands = [j for j, b in enumerate(d.rects)
                 if b[0] == x1 and b[1] <= y0 <= b[3]]
        if len(cands) != 1:
            raise AssertionError(f"SE corner of rect {i} touches {cands}")
        parents[i] = cands[0]
    children = {}
    for i, p in parents.items():
        children.setdefault(p, []).append(i)
    for p in children:
        children[p].sort(key=lambda i: d.rects[i][1])  # bottom to top
    return root, parents, children, d


def sigma(d: RectDrawing):
    """Height labels read along the contact tree: subtrees in bottom-to-top
    contact order, each node after its subtrees, the virtual root skipped."""
    root, parents, children, dc = tree_T(d)
    _, rect_lam = lambda_labels(dc)
    out = []

    def visit(node):
        for c in children.get(node, ()):
            visit(c)
        if node != -1:
            out.append(rect_lam[node])

    visit(root)
    return tuple(out)


def sigma_inv(f) -> RectDrawing:
    return replay_rect(trace_of_invseq(tuple(f), "t2"), "t2")


# ---------------------------------------------------------------------------
# elementary classes


def composition_of(d: RectDrawing):
    """Column sizes of a drawing whose vertical segments are all cuts."""
    if contains(d, "td") or contains(d, "tu"):
        raise ClassError("drawing has a vertical segment not spanning S to N")
    counts = [0] * d.width
    for (x0, y0, x1, y1) in d.rects:
        counts[x0] += 1
    return tuple(counts)


def rect_of_composition(parts) -> RectDrawing:
    parts = tuple(int(p) for p in parts)
    if not parts or any(p < 1 for p in parts):
        raise ValueError("composition parts must be positive")
    n = sum(parts)
    height = n - len(parts) + 1
    boxes, offset = [], 0
    for col, p in enumerate(parts):
        ys = [0] + [offset + r for r in range(1, p)] + [height]
        boxes += [(col, ys[t], col + 1, ys[t + 1]) for t in range(p)]
        offset += p - 1
    return make_drawing(len(parts), height, boxes)


def nw_word(d: RectDrawing) -> str:
    """For each rect after the first in NW-SE order, whether it touches the
    top or the left side of the box."""
    if contains(d, "td") or contains(d, "tr"):
        raise ClassError("drawing is outside the top-or-left class")
    out = []
    for r in order_labels(d, "nw-se")[1:]:
        x0, y0, x1, y1 = d.rects[r]
        if y1 == d.height:
            out.append("N")
        elif x0 == 0:
            out.append("W")
        else:
            raise AssertionError("rect touches neither N nor W")
    return "".join(out)


def rect_of_nw_word(word: str) -> RectDrawing:
    width, height = 1, 1
    boxes = [(0, 0, 1, 1)]
    for ch in word:
        if ch == "N":
            boxes.append((width, 0, width + 1, height))
            width += 1
        elif ch == "W":
            boxes = [(a, b + 1, c, dd + 1) for (a, b, c, dd) in boxes]
            boxes.append((0, 0, width, 1))
            height += 1
        else:
            raise ValueError(f"bad letter {ch!r}")
    return make_drawing(width, height, boxes)


def k_class(n: int, k: int) -> RectDrawing:
    """The unique member with k vertical segments when horizontals are
    confined to the leftmost column."""
    if not 0 <= k <= n - 1:
        raise ValueError("need 0 <= k <= n-1")
    height = n - k
    boxes = [(0, r, 1, r + 1) for r in range(height)]
    boxes += [(i, 0, i + 1, height) for i in range(1, k + 1)]
    return make_drawing(k + 1, height, boxes)


def trivial_class(n: int) -> list[RectDrawing]:
    """All members avoiding every T-joint: the column strip and the row
    stack (equal when n = 1)."""
    cols = make_drawing(n, 1, [(i, 0, i + 1, 1) for i in range(n)])
    if n == 1:
        return [cols]
    rows = make_drawing(1, n, [(0, i, 1, i + 1) for i in range(n)])
    return [cols, rows]
