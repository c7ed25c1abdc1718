"""Count pertinent matrices three independent ways.

A square 0/1 matrix is *pertinent* for its family when its permanent equals
the family target: 0 for the fully-random family A and the almost-unit
family B, 1 for the unit-diagonal family C.  The count by number of ones is
what the probability polynomials are built from, so it is worth computing
it more than one way and insisting the answers agree bit for bit.
"""

from leastchange import (
    TypeSpec,
    ValueSet,
    attaining_patterns,
    count_dags_by_edges,
    count_pertinent,
    gf_deficiency_table,
    gf_edge_table,
    gf_reachability_table,
)

# ---------------------------------------------------------------------------
# Route 1: exhaustive enumeration.  Every assignment of the variable cells is
# an integer counter; a DP over the rows, whose states are the block
# permanents clipped at 2, replaces the permanent for every family.
# ---------------------------------------------------------------------------
for family in "ABC":
    spec = TypeSpec(family, 4)
    table = count_pertinent(spec)
    print(f"family {family}, n=4, m={spec.m} variable cells")
    print(f"  counts by ones: {table.coeffs}")
    print(f"  total pertinent: {table.total} of {1 << spec.m}")

# ---------------------------------------------------------------------------
# Route 2: the unit-diagonal family is in bijection with labeled acyclic
# digraphs (adjacency matrix = matrix minus identity), so a DAG census by
# edge count must reproduce the family-C row.
# ---------------------------------------------------------------------------
print("\nDAG census by edges, n=4:", count_dags_by_edges(4).coeffs)

# ---------------------------------------------------------------------------
# Route 3: generating function.  Robinson's recurrence over the set of
# sources builds the DAG-by-edges polynomial term by term in n, and the
# whole computation stays in integer polynomial arithmetic.
# ---------------------------------------------------------------------------
print("series route, n=4:   ", gf_edge_table(4).coeffs)

for n in range(1, 6):
    rows = {
        count_pertinent(TypeSpec("C", n)).coeffs,
        count_dags_by_edges(n).coeffs,
        gf_edge_table(n).coeffs,
    }
    assert len(rows) == 1, f"routes disagree at n={n}"
print("all three routes agree for n = 1..5")

# The series route keeps going after exhaustive enumeration stops being fun:
print("\nlabeled DAGs on 8 vertices by edge count has",
      len(gf_edge_table(8).coeffs), "entries; total =", gf_edge_table(8).total)

# ---------------------------------------------------------------------------
# Families A and B have series routes of their own: a Hall-deficiency split
# for A (the largest row set whose neighbours fall furthest short of it) and a
# reachability split for B (the vertices that vertex 1 reaches).  The
# probability curves read these series; enumeration is the oracle that pins
# them.
# ---------------------------------------------------------------------------
print()
for family, series in (("A", gf_deficiency_table), ("B", gf_reachability_table)):
    for n in range(1, 6):
        enumerated = count_pertinent(TypeSpec(family, n))
        table = series(n)
        assert table.coeffs == enumerated.coeffs, f"family {family} routes disagree at n={n}"
        print(f"family {family}, n={n}: enumeration {enumerated.total:>9}, series {table.total:>9}")
print("family A, n=4 by the series:", gf_deficiency_table(4).coeffs)
print("the series alone reach n=6: A total", gf_deficiency_table(6).total,
      "and B total", gf_reachability_table(6).total)

# ---------------------------------------------------------------------------
# Tightness of the extremes: no pertinent matrix has fewer zeros than the
# family bound, and some matrix meets it exactly.  Over an interval the
# attaining patterns are the pertinent ones, so the witnesses are their top
# stratum.  For the unit-diagonal family at n=3, six matrices meet the bound
# and four of them are in neither upper- nor lower-triangular form.
# ---------------------------------------------------------------------------
spec = TypeSpec("C", 3)
patterns = attaining_patterns(spec, ValueSet.continuous(0, 1))
witnesses = patterns.stratum(spec.i_max)
print(f"\nfamily C, n=3: bound met by {len(witnesses)} matrices, "
      f"ok={max(patterns.sizes()) == spec.i_max}")
for witness in witnesses:
    print(witness, end="\n\n")
