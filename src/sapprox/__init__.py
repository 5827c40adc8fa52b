"""Simulation and verification toolkit for the Robbins-Monro recursion
X_{n+1} = X_n + b/(n+1) * (g(X_n) + U_{n+1}) with bounded martingale-difference
noise: exact weight products and normalizers, analytic exponential tail bounds,
and Monte Carlo / enumeration experiments for the moderate-deviation rate
-r^2 / (2 sigma^2).
"""

__version__ = "0.1.0"
