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
from .drawing import (RectDrawing, _brief, canonical_drawing, l_labels,
                      make_drawing, order_labels)
from .gentree import (ClassError, _check_t1_rect, _check_t2_rect, replay_rect,
                      trace_of_invseq)
from .patterns import avoids_all

# ---------------------------------------------------------------------------
# weak side: tau, epsilon, delta, beta


def tau(d: RectDrawing, check=True):
    """Left-count labels read in SW-NE order."""
    if check:
        _check_t1_rect(d)
    labels = l_labels(d)
    return tuple(labels[i] for i in order_labels(d, "sw-ne"))


def tau_inv(e) -> RectDrawing:
    """A representative of the weak class mapping to the non-decreasing
    sequence e."""
    e = invseq.check_invseq(e)
    if any(a > b for a, b in zip(e, e[1:])):
        raise ClassError(f"{_brief(e)} is not non-decreasing")
    return tau7_inv(e)


def epsilon(e) -> str:
    """Non-decreasing sequence to Dyck word (U per element, D per unit rise,
    closing D's at the end)."""
    e = invseq.check_invseq(e)
    prev, out = 0, []
    for v in e:
        if v < prev:
            raise ClassError(f"{_brief(e)} is not non-decreasing")
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
        raise ClassError(f"{_brief(word)} is not in the image of the "
                         "staircase map")
    return e


def delta(d: RectDrawing) -> str:
    return epsilon(tau(d))


def delta_direct(d: RectDrawing) -> str:
    """Dyck word read off the drawing itself: up the left side and each
    vertical segment (one U per right neighbor, bottom to top), down with one
    D per left neighbor, finishing along the right side."""
    _check_t1_rect(d)
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


def all_trees(n):
    """All binary trees with n nodes: for each left size i in increasing
    order, every left tree with every right tree.  The trees of sizes below
    n are built once, level by level, and shared as subtrees; those of size
    n are yielded one at a time."""
    if n == 0:
        yield None
        return
    levels = [[None]]
    for m in range(1, n):
        levels.append([(left, right) for i in range(m)
                       for left in levels[i] for right in levels[m - 1 - i]])
    for i in range(n):
        for left in levels[i]:
            for right in levels[n - 1 - i]:
                yield (left, right)


def _spine_values(t, base, out):
    """Append the values of t, each raised by base, to out: walk the right
    spine, recursing only into left subtrees, which keep the base of their
    parent.  A right child's base is its parent's base plus the number of
    values its parent and the parent's left subtree appended."""
    while t is not None:
        start = len(out)
        out.append(base)
        left, t = t
        if left is not None:
            _spine_values(left, base, out)
        base += len(out) - start


def tree_to_seq(t):
    """The non-decreasing sequence of the drawing grown from t, computed
    structurally: root contributes 0, the above-part keeps its values, the
    right-part is shifted past everything on the left."""
    out = []
    _spine_values(t, 0, out)
    return tuple(out)


def tree_image_levels(n):
    """Yield [bytes(tree_to_seq(t)) for t in all_trees(m)] for m = 0..n in
    turn, each built from the images of the smaller sizes: for each split,
    the right-hand images are shifted once, and each image is one
    concatenation of a root-and-left head with a shifted tail.  The later
    levels are built from the lists yielded, so a caller that reorders a
    level reorders the later levels, not their images, and one that sorts
    each level before taking the next gets every later level as a few sorted
    runs (one per split, ordered by head, then tail); a caller must not add
    or remove items.

    Images are bytes, not tuples: a level of n = 12 holds 208,012 of them,
    and bytes take a fraction of a tuple's memory and compare in C.  bytes()
    is injective on sequences with entries in 0..255, so two images are
    equal as bytes iff they are equal as tuples.  A tail is shifted by up to
    n, which a byte table holds for n <= 255 only, so a larger n is
    refused."""
    if n > 255:
        raise ValueError(f"size {n} exceeds 255: images are bytes")
    levels = [[b""]]
    yield levels[0]
    for m in range(1, n + 1):
        level = []
        for i in range(m):  # i nodes on the left
            shift = bytes(range(i + 1, 256)) + bytes(range(i + 1))
            tails = [s.translate(shift) for s in levels[m - 1 - i]]
            for s in levels[i]:
                head = b"\0" + s
                level += [head + tail for tail in tails]
        levels.append(level)
        yield level


def seq_to_tree(e):
    """Inverse of tree_to_seq on non-decreasing inversion sequences."""
    e = tuple(e)
    if not e:
        return None
    if e[0] != 0 or any(a > b for a, b in zip(e, e[1:])):
        raise ClassError(f"{_brief(e)} is not a non-decreasing inversion "
                         "sequence")
    p = next((j for j in range(2, len(e) + 1) if e[j - 1] == j - 1), None)
    if p is None:
        return (seq_to_tree(e[1:]), None)
    return (seq_to_tree(e[1:p - 1]),
            seq_to_tree(tuple(v - (p - 1) for v in e[p - 1:])))


def rect_of_tree(t) -> RectDrawing:
    """Grow the drawing of a binary tree: the root rectangle sits at the SW
    corner, the left subtree stacks above it behind the same right edge, the
    right subtree fills a full-height block on the right."""
    if t is None:
        raise ValueError("empty tree has no drawing")
    return make_drawing(*_tree_boxes(t))


def _tree_boxes(t):
    """(width, height, boxes) of the drawing of the non-empty tree t; the
    subtrees' drawings are never built."""
    left, right = t
    if left is None and right is None:
        return 1, 1, [(0, 0, 1, 1)]
    if right is None:
        w, h, sub = _tree_boxes(left)
        return w, h + 1, [(0, 0, w, 1)] + [(x0, y0 + 1, x1, y1 + 1)
                                           for (x0, y0, x1, y1) in sub]
    if left is None:
        w, h, sub = _tree_boxes(right)
        return w + 1, h, [(0, 0, 1, h)] + [(x0 + 1, y0, x1 + 1, y1)
                                           for (x0, y0, x1, y1) in sub]
    wa, ha, da = _tree_boxes(left)
    wb, hb, db = _tree_boxes(right)
    H = ha + hb

    def ya(y):
        return H if y == ha else y + 1

    def yb(y):
        return 0 if y == 0 else y + ha

    boxes = [(0, 0, wa, 1)]
    boxes += [(x0, ya(y0), x1, ya(y1)) for (x0, y0, x1, y1) in da]
    boxes += [(x0 + wa, yb(y0), x1 + wa, yb(y1)) for (x0, y0, x1, y1) in db]
    return wa + wb, H, boxes


def tree_of(d: RectDrawing):
    """Binary tree of a drawing whose vertical segments all reach N."""
    return seq_to_tree(tau(d))


# ---------------------------------------------------------------------------
# strong side, tree t1: tau7 / tau8 / tau6


def tau7(d: RectDrawing):
    """Contact-corrected left-count reading: start from the weak reading and
    lower each plateau entry by the index of the left neighbor its SW corner
    touches."""
    _check_t1_rect(d)
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
    return replay_rect(trace_of_invseq(e, "t1", "i7"), "t1")


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
    there are several.  Returns (root, parents, children, canonical) over
    the rect indices of canonical, the canonical drawing of d; root = -1 for
    the virtual node."""
    _check_t2_rect(d)
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
    return replay_rect(trace_of_invseq(f, "t2"), "t2")


# ---------------------------------------------------------------------------
# elementary classes


def composition_of(d: RectDrawing):
    """Column sizes of a drawing whose vertical segments are all cuts."""
    if not avoids_all(d, ("td", "tu")):
        raise ClassError("drawing has a vertical segment not spanning S to N")
    counts = [0] * d.width
    for (x0, y0, x1, y1) in d.rects:
        counts[x0] += 1
    return tuple(counts)


# Largest sum rect_of_composition draws.  Drawing n rects costs time and
# memory quadratic in n: a sum of 2,000 takes 0.4 s (one part) to 0.9 s (all
# parts 1) and 5.5 MB on a 2-core Xeon, and each doubling about 4 times more.
COMPOSITION_CAP = 2000


def rect_of_composition(parts) -> RectDrawing:
    parts = tuple(int(p) for p in parts)
    if not parts or any(p < 1 for p in parts):
        raise ValueError("composition parts must be positive")
    n = sum(parts)
    if n > COMPOSITION_CAP:
        raise ValueError(f"composition sum {n} exceeds the cap "
                         f"{COMPOSITION_CAP}")
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
    if not avoids_all(d, ("td", "tr")):
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


# Longest word rect_of_nw_word draws.  Its cost is quadratic in the length,
# like rect_of_composition's: 2,000 letters take 0.6 to 0.75 s on a 2-core
# Xeon, 4,000 letters 3.3 to 3.9 s.
NW_WORD_CAP = 2000


def rect_of_nw_word(word: str) -> RectDrawing:
    if len(word) > NW_WORD_CAP:
        raise ValueError(f"word length {len(word)} exceeds the cap "
                         f"{NW_WORD_CAP}")
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
