"""Two-community directed edge-formation game: simulation and analysis.

The package root re-exports nothing; import each name from its submodule
(for example ``from edgegame.dynamics import run_protocol``).
"""
