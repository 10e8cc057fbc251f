"""A CAP3-like overlap–layout–consensus assembler.

blast2cap3 hands each cluster of transcripts to CAP3 and collects the
merged contigs plus the unmerged "singlets". This package implements the
same contract from scratch:

* :mod:`repro.cap3.overlap` — candidate detection (shared k-mers) and
  dovetail/containment overlap alignment,
* :mod:`repro.cap3.graph` — the overlap graph and greedy layout,
* :mod:`repro.cap3.consensus` — per-column majority consensus calling,
* :mod:`repro.cap3.assembler` — the public
  :func:`~repro.cap3.assembler.assemble` API.
"""
