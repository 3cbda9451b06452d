"""Refining clusters: the two-step lowering algorithm and the cluster tree.

A frequency vector at level p describes a cluster of sequences. Lowering
solves the integer flow equations for the level p+1 candidates (step I) and
keeps the ones whose de Bruijn subgraph is connected (step II). Iterating
from the root [n] builds the whole ultrametric tree.
"""

from cycseq import (
    FrequencyVector,
    build_tree,
    count_sequences_with_frequency,
    enumerate_sequences_with_frequency,
    lower,
    max_branching_level,
    solve_step1,
    tree_to_newick,
)

# Start from the composition [2, 2]: length-4 sequences with two 1s.
y = FrequencyVector.from_dense(1, 4, 2, [2, 2])
print("step I candidates for Y =", y.dense())
for z in solve_step1(y):
    print("  ", z.dense())

print("after the connectivity filter:")
for z in lower(y):
    print("  ", z.dense(), "->", [str(s) for s in enumerate_sequences_with_frequency(z)])

# Member counts of the refinements always partition the parent cluster.
print("\ncluster [8, 3] of length-11 sequences splits into:")
y = FrequencyVector.from_dense(1, 11, 2, [8, 3])
for z in lower(y):
    print("  ", z.dense(), "with", count_sequences_with_frequency(z), "members")

# The full half tree for n = 11 (compositions with at most five 1s).
tree = build_tree(11, 2, half_tree=True)
print("\nhalf tree for n = 11:", tree.root.count, "sequences")
print("level-1 cluster sizes:", [c.count for c in tree.root.children])
print("deepest branching level:", max_branching_level(tree))

# A small tree fits on one line in Newick form.
print("\nn = 5 tree:", tree_to_newick(build_tree(5, 2)))
