"""Tour of the lattice layer: expressions, invariants, roots, 6-roots.

Run with: python demos/01_lattice_arithmetic.py
"""

from realcubic import (
    discriminant_form,
    enumerate_norm_vectors,
    gram,
    is_six_root,
    parse_lattice_expr,
    signature,
)

# The classification tables describe lattices in a compact notation:
# direct sums of root lattices, hyperbolic planes U, rank-1 forms <k>,
# with multiplicities and rescalings.
for text in ["U(2)+A2+E8(2)", "<-2>+10*A1", "U+E8(2)"]:
    expr = parse_lattice_expr(text)
    g = gram(expr)
    df = discriminant_form(g)
    print(f"{text}:")
    print(f"  rank {g.rank}, signature {signature(g)}, det {g.det()}")
    print(f"  discriminant group {df.group}, "
          f"q integer on 2-part: {df.two_part_integer}")

# Root systems: all vectors of square 2 in a definite lattice.
for name in ["A2", "D4", "E6", "E7", "E8"]:
    g = gram(parse_lattice_expr(name))
    print(f"{name} has {len(enumerate_norm_vectors(g, 2))} roots")

# 6-roots: square 6, pairing divisibly by 3 with everything. In A2 the
# six vectors of square 6 are exactly the 6-roots.
a2 = gram(parse_lattice_expr("A2"))
sixes = enumerate_norm_vectors(a2, 6)
print(f"A2 vectors of square 6: {sixes}")
print(f"all are 6-roots: {all(is_six_root(v, a2) for v in sixes)}")

