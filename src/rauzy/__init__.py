"""Rauzy fractals of substitution sequences sharing one Pisot matrix.

Two independent constructions (stepped-line projection and iterated set
equations), exact combinatorial identities behind them, and the numeric
checks that tie everything together at finite resolution.
"""

__version__ = "0.1.0"
