"""Walkthrough: the semistable-stack series three ways.

Computes the two-variable series of the stack of semistable G-bundles for a
few small groups, checks the closed formula against the stratification
recursion and the classical composition sum, and prints a Hodge-number
table for rank-2 bundles of odd degree.
"""

from hodge_series import (
    enumerate_hn_types,
    hn_types_to_csv,
    hp_semistable_classical,
    hp_semistable_closed,
    parse_group,
    verify_recursion,
)

g = 2

print("=== closed formula for GL_2, degree 1, genus", g, "===")
spec = parse_group("GL2")
f = hp_semistable_closed(spec, (1,), g)
print("num:", f.num)
print("den:", f.den)

print()
print("=== the same series from the classical composition sum ===")
h = hp_semistable_classical("GL", 2, 1, g)
print("agree exactly:", f.rat_eq(h))

print()
print("=== Harder-Narasimhan strata of codimension <= 8 ===")
print(hn_types_to_csv(spec, enumerate_hn_types(spec, (1,), g, 8)))

print("=== recursion identity, order 16, several groups ===")
for name, d in [("GL2", (1,)), ("GL3", (2,)), ("SO5", (1,)), ("Sp2", (0,))]:
    rep = verify_recursion(parse_group(name), d, g, 16)
    print("%-4s d=%s  match=%s  contributing strata=%d"
          % (name, d, rep.match, rep.strata))

print()
print("=== Hodge numbers h^{p,q} of the GL_2 degree-1 stack, p+q <= 6 ===")
series = f.expand(6)
for total in range(7):
    row = ["h^{%d,%d}=%d" % (p, total - p, series.coeff(p, total - p))
           for p in range(total + 1) if series.coeff(p, total - p)]
    if row:
        print("degree %d:  %s" % (total, "  ".join(row)))
