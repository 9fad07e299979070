"""The documents of the benchmark's ``ladder-small`` workload, shared by
the tests that run over them."""

from frobdiv import dual_hopf, group_algebra, named_group

# (group, "group-algebra" or "dual", conductor or None for the exponent)
LADDER = [("S3", "group-algebra", None), ("A4", "group-algebra", None),
          ("S3", "group-algebra", 24), ("Q8", "group-algebra", 24),
          ("D4", "group-algebra", 24), ("A4", "group-algebra", 12),
          ("S3", "dual", None), ("A4", "dual", 12), ("Q8", "dual", 24),
          ("D4", "dual", 8)]


def ladder_hopf(gname, kind, conductor):
    G = named_group(gname)
    H = group_algebra(G, conductor=conductor or G.exponent)
    return dual_hopf(H) if kind == "dual" else H


def ladder_algebra(gname, kind, conductor):
    return ladder_hopf(gname, kind, conductor).algebra
