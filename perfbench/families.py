"""Seeded finite bounded semilattices, built as union-closed set families.

A family of sets that contains the empty set and is closed under union
is a bounded semilattice under union, with the empty set as identity.
Chains and divisor lattices are families too (a divisor is the set of
prime powers dividing it), so one representation, bitmasks, serves all
inputs, and the oracles in `checks.py` read the order straight off it:
s <= t exactly when s is a subset of t.
"""

# Chance that a random generator contains a given bit of the universe.
GENERATOR_DENSITY = 0.3


def union_closed(rng, n, universe):
    """n distinct bitmasks, closed under OR, containing 0.

    Random generators are added while the closure stays within n
    members. When none fits, the family grows by a new top element
    (the union of everything plus one fresh bit), which adds exactly one
    member, so the size is always met.
    """
    family = {0}
    misses = 0
    while len(family) < n:
        x = sum(1 << b for b in range(universe) if rng.random() < GENERATOR_DENSITY)
        grown = family | {x | f for f in family}
        if len(grown) <= n:
            family = grown
            continue
        misses += 1
        if misses > 40:
            top = 0
            for f in family:
                top |= f
            family.add(top | 1 << top.bit_length())
    return sorted(family, key=lambda f: (bin(f).count("1"), f))


def chain(m):
    """The chain of m members 0 < 1 < 11 < 111 < ... (bitmasks)."""
    return [(1 << i) - 1 for i in range(m)]


def divisors(n):
    return [d for d in range(1, n + 1) if n % d == 0]


def divisor_family(n):
    """Divisors of n as (labels, bitmasks); lcm becomes union."""
    powers = []
    for p in range(2, n + 1):
        q = p
        if all(p % r for r in range(2, p)):
            while n % q == 0:
                powers.append(q)
                q *= p
    divs = divisors(n)
    masks = [sum(1 << i for i, q in enumerate(powers) if d % q == 0) for d in divs]
    return [str(d) for d in divs], masks


def numbers_with_divisors(count, limit=2000):
    return [n for n in range(2, limit) if len(divisors(n)) == count]


def slat_text(labels, masks):
    """The .slat file of a family: member i is labels[i], product is union."""
    index = {m: i for i, m in enumerate(masks)}
    lines = [f"elements: {' '.join(labels)}", f"identity: {labels[index[0]]}"]
    for i in range(len(masks)):
        for j in range(i + 1, len(masks)):
            lines.append(f"{labels[i]} * {labels[j]} = {labels[index[masks[i] | masks[j]]]}")
    return "\n".join(lines) + "\n"
