"""Classical product formulas for boxed plane partitions, used as oracles.

A hexagon with four sides n and two sides 2m tiles like plane partitions in
a 2m x n x n box, so the three box counts below pin the tiler externally:
the total count (MacMahon), the symmetric count (Andrews), and the
transpose-complementary count (Proctor).  Each product of fractions is
evaluated as one integer division of the numerators' product by the
denominators', which must leave no remainder; nothing is rounded.
"""

from __future__ import annotations


def _product(values: list[int]) -> int:
    """The product of values, taken pairwise level by level, so that the two
    sides of each product are about as long."""
    while len(values) > 1:
        if len(values) % 2:
            values.append(1)
        values = [a * b for a, b in zip(values[::2], values[1::2])]
    return values[0] if values else 1


def _exact_quotient(factors: list[tuple[int, int]], what: str) -> int:
    """prod(p) / prod(q) over the (p, q) factors, which must be an integer."""
    value, remainder = divmod(_product([p for p, _ in factors]), _product([q for _, q in factors]))
    if remainder:
        raise ArithmeticError(f"{what} did not reduce to an integer")
    return value


def box_tilings(a: int, b: int, c: int) -> int:
    """Plane partitions in an a x b x c box (MacMahon):
    prod (i+j+k-1)/(i+j+k-2) over the box."""
    if a < 0 or b < 0 or c < 0:
        raise ValueError("box dimensions must be non-negative")
    factors = [
        (i + j + k - 1, i + j + k - 2)
        for i in range(1, a + 1)
        for j in range(1, b + 1)
        for k in range(1, c + 1)
    ]
    return _exact_quotient(factors, f"box_tilings{(a, b, c)}")


def symmetric_box_tilings(r: int, c: int) -> int:
    """Symmetric plane partitions in an r x r x c box (Andrews):
    prod_i (2i+c-1)/(2i-1) * prod_{i<j} (i+j+c-1)/(i+j-1)."""
    if r < 0 or c < 0:
        raise ValueError("box dimensions must be non-negative")
    factors = [(2 * i + c - 1, 2 * i - 1) for i in range(1, r + 1)]
    factors += [(i + j + c - 1, i + j - 1) for i in range(1, r + 1) for j in range(i + 1, r + 1)]
    return _exact_quotient(factors, f"symmetric_box_tilings{(r, c)}")


def transpose_complement_box_tilings(a: int, b: int) -> int:
    """Transpose-complementary plane partitions in a 2a x b x b box
    (Proctor): prod_{1 <= i <= j <= b-1} (2a+i+j)/(i+j)."""
    if a < 0 or b < 0:
        raise ValueError("box dimensions must be non-negative")
    factors = [(2 * a + i + j, i + j) for i in range(1, b) for j in range(i, b)]
    return _exact_quotient(factors, f"transpose_complement_box_tilings{(a, b)}")
