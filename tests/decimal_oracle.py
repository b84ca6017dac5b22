"""Reference values in stdlib ``decimal`` at 60 digits, for accuracy tests.

Every input double is converted exactly (``Decimal(float)``), so each value
is the exact answer for the double inputs, to far below double precision.
"""

import math
from decimal import Context, Decimal, localcontext

PREC = 60


def _context():
    return localcontext(Context(prec=PREC, Emin=-(10**8), Emax=10**8))


def pi() -> Decimal:
    """Machin's formula, pi = 16 atan(1/5) - 4 atan(1/239)."""

    def atan_inv(x: int) -> Decimal:
        power = total = Decimal(1) / x
        k = 1
        while True:
            power /= -x * x
            k += 2
            if abs(power) < Decimal(10) ** -(PREC + 5):
                return total
            total += power / k

    with _context():
        return 16 * atan_inv(5) - 4 * atan_inv(239)


def gamma_plus_one(twice: int) -> Decimal:
    """Gamma(n + 1) at n = twice / 2 >= -1/2: a factorial, or for a half-integer
    n = k + 1/2, (2k + 2)! sqrt(pi) / (4**(k + 1) (k + 1)!)."""
    with _context():
        if twice % 2 == 0:
            return Decimal(math.factorial(twice // 2))
        k = twice // 2
        num = Decimal(math.factorial(2 * k + 2)) * pi().sqrt()
        return num / (Decimal(4) ** (k + 1) * math.factorial(k + 1))


def stirlerr(twice: int) -> Decimal:
    """ln n! - ln(sqrt(2 pi n) (n / e)**n) at n = twice / 2 > 0."""
    with _context():
        n = Decimal(twice) / 2
        return gamma_plus_one(twice).ln() - (n + Decimal("0.5")) * n.ln() + n - (2 * pi()).ln() / 2


def poisson_terms(mean: float, top: int) -> list[Decimal]:
    """P(X = k) for k = 0..top, X ~ Poisson(mean), by the exact recurrence."""
    with _context():
        m = Decimal(mean)
        term = (-m).exp()
        out = [term]
        for k in range(1, top + 1):
            term = term * m / k
            out.append(term)
        return out


def poisson_tails(mean: float, k: int) -> tuple[Decimal, Decimal]:
    """(P(X > k - 1), P(X > k)) for X ~ Poisson(mean) and k >= 16, with
    ln k! from Stirling's series (error below 1e-40 at k >= 16)."""
    with _context():
        m, kk = Decimal(mean), Decimal(k)
        ln_fact = (kk + Decimal("0.5")) * kk.ln() - kk + (2 * pi()).ln() / 2
        for coef, power in ((12, 1), (-360, 3), (1260, 5), (-1680, 7), (1188, 9)):
            ln_fact += 1 / (coef * kk**power)
        p_k = (-m + kk * m.ln() - ln_fact).exp()
        tail, term, j = Decimal(0), p_k, k
        while True:
            j += 1
            term = term * m / j
            tail += term
            if term < tail * Decimal(10) ** -45:
                return tail + p_k, tail


def binomial_pmf(n: int, p: float) -> list[Decimal]:
    with _context():
        p = Decimal(p)
        q = 1 - p

        def power(base, e):
            return Decimal(1) if e == 0 else base**e

        return [math.comb(n, k) * power(p, k) * power(q, n - k) for k in range(n + 1)]


def l1_error(table, exact: list[Decimal]) -> float:
    """Sum of |double - exact| over the cells, plus the exact mass the table omits."""
    with _context():
        err = sum(abs(Decimal(float(x)) - e) for x, e in zip(table, exact))
        return float(err + sum(exact[len(table):], Decimal(0)))


def max_error(table, exact: list[Decimal]) -> float:
    with _context():
        return float(max(abs(Decimal(float(x)) - e) for x, e in zip(table, exact)))


def chi2_lower_tail(dof: int, x: Decimal) -> Decimal:
    """P(dof/2, x/2) by its power series, which converges for every x."""
    with _context():
        s, y = Decimal(dof) / 2, x / 2
        term = (-y).exp() * (y.ln() * s).exp() / gamma_plus_one(dof)
        total, k = term, 0
        while True:
            k += 1
            term = term * y / (s + k)
            total += term
            if term < total * Decimal(10) ** -(PREC - 5):
                return total


def chi2_density(dof: int, x: Decimal) -> Decimal:
    with _context():
        s, y = Decimal(dof) / 2, x / 2
        return (-y).exp() * (y.ln() * (s - 1)).exp() / gamma_plus_one(dof - 2) / 2


def chi2_upper_quantile(alpha: float, dof: int, start: float) -> Decimal:
    """The x with Q(dof/2, x/2) = alpha, by Newton steps from a close start."""
    with _context():
        a, x = Decimal(alpha), Decimal(start)
        for _ in range(3):
            x += (1 - chi2_lower_tail(dof, x) - a) / chi2_density(dof, x)
        return x
