"""snpkit: exact integer matrix semantics for spiking neural P systems.

Modules: regex (guard compilation), model (parsing, validation),
matrices, engine (stepping with and without rule delays), reachability
(sum vectors), formulas (the paper's formula comparisons) and cli.
"""

__version__ = "0.1.0"
