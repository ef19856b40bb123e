"""Monte Carlo showdown: the block-Markov code against three jammers.

Two codes face the same attacks: the deterministic code as built, and its
randomized twin that hides a shared time permutation from the jammer.  The
impostor attack -- replaying a fake codeword plus fake relay response as the
state -- wrecks the deterministic code once the jamming budget exceeds the
total signal power, but the permutation makes the fake signal incoherent.

Run:  python demos/jamming_showdown.py        (a few seconds)
"""

from avrc.adversary import StateStrategy
from avrc.codec import CodebookConfig
from avrc.gaussian import GaussianSfdParams, PowerSplit
from avrc.sim import SimConfig, run_monte_carlo

TRIALS = 400

# a deliberately overpowered jammer: Lambda > P1 + P + 2 sqrt(P P1) = 0.8
params = GaussianSfdParams(P=0.2, P1=0.2, Lambda=1.0, sigma2=1e-4)
config = CodebookConfig(n=128, num_blocks=3, rate_relayed=1.5 / 128,
                        rate_direct=1.5 / 128, params=params,
                        split=PowerSplit(0.5, 0.0), seed=5)

strategies = [
    StateStrategy("zero", Lambda=1.0),
    StateStrategy("iid_gaussian", Lambda=1.0, variance=1.0, seed=9),
    StateStrategy("impostor", Lambda=1.0, seed=9),
]

print(f"{'jammer':>14} {'plain code':>12} {'permuted code':>14}")
for strat in strategies:
    rates = []
    for permute in (False, True):
        sim = SimConfig(config, strat, trials=TRIALS, master_seed=2, permute=permute)
        rates.append(run_monte_carlo(sim).rate)
    print(f"{strat.kind:>14} {rates[0]:12.3f} {rates[1]:14.3f}")

print("""
What happened:
  * zero: nothing to defeat -- both codes are error free.
  * iid_gaussian: white jamming at full budget is just noise; these message
    loads sit far below the code's noise tolerance, so errors stay rare.
  * impostor: the fake transmission is indistinguishable from the real one
    for the deterministic code (the decoder faces two equally plausible
    codewords), but after the hidden permutation the fake signal no longer
    lines up with any codeword, and the attack collapses to weak noise.
""")
