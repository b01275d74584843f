"""Symbolic + numeric engine for modular curvature on deformed tori.

Layered as: deformed Fourier algebra (theta_algebra) -> exact word calculus
for resolvent symbols (symbol_engine) -> fiberwise sphere averaging
(cosphere) -> modular rearrangement and closed-form curvature functions
(modular) -> independent numeric cross-checks (oracle) -> the table of
verification checks (verify) -> command line (cli).
"""

__version__ = "0.1.0"
