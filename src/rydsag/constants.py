"""Physical constants in SI units, CODATA 2022, equal to scipy.constants of
scipy 1.17; written out so that no run loads scipy.constants."""

h = 6.62607015e-34
c = 299792458.0
e = 1.602176634e-19
k = 1.380649e-23
hbar = 1.0545718176461565e-34
epsilon_0 = 8.8541878188e-12
atomic_mass = 1.66053906892e-27
