"""Counting de Bruijn and two-fold de Bruijn sequences exactly.

Ordinary de Bruijn sequences are Eulerian circuits of the full graph, counted
by the matrix-tree cofactor. Two-fold sequences use every window exactly
twice; their candidate vectors decompose into independent two-by-two blocks,
and the count assembles per-block pattern choices with Eulerian-cycle counts
of contracted minors.
"""

from cycseq import (
    count_debruijn_sequences,
    count_eulerian_cycles,
    count_twofold,
    count_twofold_bruteforce,
    count_twofold_exact,
    full_graph,
    list_twofold_bruteforce,
    twofold_table,
)

for l, p in ((2, 3), (2, 4), (3, 2)):
    closed = count_debruijn_sequences(l, p)
    best = count_eulerian_cycles(full_graph(l, p - 1))
    print(f"de Bruijn sequences, alphabet {l}, order {p}: {closed} (BEST: {best})")

print("\nthe five two-fold sequences of order 2:")
for s in list_twofold_bruteforce(2):
    print("  ", s)

print("\nper-k table for order 3 (k = uniform blocks):")
print("  k  perm_no  phi  cofactor")
for row in twofold_table(3):
    print("  {k:<3}{perm_no:<9}{phi:<5}{cofactor}".format(**row))

# The generic-minor assembly reproduces the published totals, but from
# order 3 on it undercounts: some configurations have minors with more
# Eulerian cycles than the generic one. Per-configuration minors agree
# with exhaustive enumeration.
for p in (1, 2, 3):
    print(
        f"\norder {p}: assembly {count_twofold(p)}, "
        f"per-configuration {count_twofold_exact(p)}, "
        f"brute force {count_twofold_bruteforce(p)}"
    )
print("\norder 4: assembly", count_twofold(4), "per-configuration", count_twofold_exact(4))
print("order 5: assembly", count_twofold(5), "per-configuration", count_twofold_exact(5))
