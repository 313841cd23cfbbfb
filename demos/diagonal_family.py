"""
The n = k+1 family and its diagonal splits
==========================================

When n = k+1, certain partitions are built from a strictly decreasing seed
lambda: part j equals lambda_j + j while lambda lasts, and the remaining
parts count how far the seed's columns reach.  For these, every region with
a diagonal can be split into the cells on-or-below it, p(G), and the cells
strictly above it, q(G); the (arm, leg) pairs of p(SQ) then match those of
p(R) and q(D) combined.

A finer picture emerges one cut index i at a time.  Shifting the rows of the
strip T that sit above the diagonal produces a smaller strip; comparing leg
multisets before and after the shift decomposes everything into ranges that
can be read off the seed directly.
"""

from hookpair import (
    alpha_from_strict,
    build_region,
    check_prop_techprop,
    diagonal_spec,
    is_class_B,
    m_decomposition,
    projective_report,
    render_ascii,
    split_pq,
    StrictPartition,
)

# Build the family member seeded by lambda = (4, 2) with k = 5.
b = alpha_from_strict(StrictPartition((4, 2), k=5))
alpha = b.alpha
print(f"lambda = {b.lam}, k = {b.k}, n = {b.n}")
print(f"alpha  = {alpha}   (m = {b.m} diagonal cells)")
print()

# The recognizer recovers the seed from the partition alone.
back = is_class_B(alpha)
print(f"is_class_B(alpha) recovers lambda = {back.lam}")
print()

# p-cells (on or below the diagonal) render filled, q-cells hollow.
for kind in ("D", "T", "SQ"):
    g = build_region(alpha, kind)
    spec = diagonal_spec(b, kind)
    p_cells, q_cells = split_pq(g, kind, b)
    print(f"{kind}: diagonal r + c <= {spec.total}, "
          f"|p| = {len(p_cells)}, |q| = {len(q_cells)}")
    print(render_ascii(g, diag=spec))
    print()

# Every cut index i with a shift row u gets four inequalities relating u to
# the parts, plus a battery of leg-multiset equalities.  The report gathers
# them across all i.
report = projective_report(b)
print(f"identity verdict for lambda = {b.lam}: {report['theorem']}")
for row in report["perI"]:
    if row["u"] is None:
        print(f"  i = {row['i']}: no row of T above the diagonal, skipped")
    else:
        print(f"  i = {row['i']}: u = {row['u']}, s = {row['s']}, "
              f"techprop = {row['techprop']}, mChecks = {row['mChecks']}")
print()

# A larger worked instance.
big = alpha_from_strict(StrictPartition((11, 9, 8, 5, 3, 2), k=12))
i = 5
tech = check_prop_techprop(big, i)
dec = m_decomposition(big, i)
print(f"lambda = {big.lam}, k = {big.k}, cut i = {i}:")
print(f"  first shifted row u = {dec.u}, first short column s = {dec.s}")
print(f"  inequalities: {tech['parts']}")
print(f"  leg multiset of the shifted strip : {dict(sorted(dec.m2.items()))}")
print(f"  leg multiset before the shift     : {dict(sorted(dec.m1.items()))}")
print(f"  decomposition checks all pass: {dec.passed}")
