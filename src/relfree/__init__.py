"""Desk-scale toolkit for relatively free group presentations.

Subpackages by concern:

- :mod:`relfree.words`    exact free-group word algebra (RLE, big exponents)
- :mod:`relfree.verbal`   the two defining identity words and their v-blocks
- :mod:`relfree.ledger`   exact-rational parameter chain and inequality catalog
- :mod:`relfree.graded`   periods, pair classification, relators, Dehn rewriting
- :mod:`relfree.endo`     substitution endomorphisms and the two witnesses
- :mod:`relfree.diagrams` verification of diagram certificates
- :mod:`relfree.report`   the acceptance criteria and their reference oracles
- :mod:`relfree.errors`   exception types and the shared input readers
- :mod:`relfree.cli`      command-line front end
"""

from .words import Alphabet, Word

__all__ = ["Alphabet", "Word"]
__version__ = "0.1.0"
