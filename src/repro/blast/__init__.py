"""A BLASTX-like translated protein search engine.

blast2cap3 consumes the *tabular output* of BLASTX (transcripts aligned
against a close-relative protein database). This package implements the
same algorithmic family from scratch:

* :mod:`repro.blast.database` — an indexed protein database,
* :mod:`repro.blast.seeds` — neighborhood-word seeding (two-hit heuristic),
* :mod:`repro.blast.extend` — ungapped X-drop and gapped extension,
* :mod:`repro.blast.blastx` — the six-frame translated search driver,
* :mod:`repro.blast.tabular` — BLAST ``-outfmt 6`` records and I/O.
"""
