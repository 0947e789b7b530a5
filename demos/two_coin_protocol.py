"""The two-coin protocol: entangle, postselect, rotate, and read off 2p-1."""

from fractions import Fraction

from coinfield import expected_cost, run_numeric, run_symbolic, worked_example_program

# Two copies of the coin, a CNOT, and a postselection on |0> leave a single
# qubit whose amplitude ratio is p/(1-p). A Hadamard turns that into
# 1/(2p-1) and the final X flips it to 2p-1. The heads probability of the
# resulting coin is then (2p-1)^2 / (1 + (2p-1)^2).

prog = worked_example_program()
for k, ins in enumerate(prog.instructions):
    print(f"  {k}: {ins}")
print("symbolic ratio:", run_symbolic(prog))
print()

# Cost accounting is exact per attempt: at p0 = 3/10 the postselection
# succeeds with chance p^2 + (1-p)^2 = 0.58, so on average 1/0.58 attempts
# and 2/0.58 = 3.448 coins are spent.

rep = expected_cost(prog, Fraction(3, 10))
print(f"p0 = 0.3: success chance {rep.success_probability:.4f} per attempt")
print(f"          expected coins {rep.expected_coins:.4f}")
print()

# The Monte Carlo runner draws real trials from a seeded stream. The
# heads frequency should approach (1-2*0.3)^2/1.16 = 4/29 = 0.1379..., and
# the coin spend per trial should approach the analytic 3.448.

res = run_numeric(prog, 0.3, trials=50000, seed=1)
print(f"50000 seeded trials at p0 = 0.3:")
print(f"  heads frequency   {res.empirical_p0_prob:.5f}   (target {4/29:.5f})")
print(f"  coins per trial   {res.expected_coins_empirical:.4f}   (target {res.expected_coins_analytic:.4f})")

# Determinism: the same seed gives bit-identical totals, because every trial
# draws from a stream keyed by (seed, trial).
again = run_numeric(prog, 0.3, trials=50000, seed=1)
print("  identical on a second run:",
      (res.successes, res.coins_total) == (again.successes, again.coins_total))
