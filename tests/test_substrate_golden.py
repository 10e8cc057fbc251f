"""Golden substrate outputs: what the BLASTX and CAP3 stand-ins and the
in-process blast2cap3 driver write, pinned byte for byte *across
commits*.

The other golden tables start at ``repro-plan``, whose payloads never
run the alignment kernels, so a change to ``repro.bio``, ``repro.blast``
or ``repro.cap3`` moves none of their bytes. This table is one sha256
per output of one small fixed workload (six random proteins, 26
transcripts):

* ``blastx.tsv`` — the tabular lines of five queries against the
  proteins: a plus-frame hit, a noise transcript with none, a
  minus-frame hit, a four-codon deletion (one gapped HSP) and a
  frameshift (two HSPs);
* ``assemble.txt`` — the contigs (id, sequence, members, placements)
  and singlets of one ``assemble`` over two genes' transcripts, the
  noise and a read with a three-base deletion;
* ``blast2cap3.fasta`` — the FASTA ``blast2cap3_parallel`` gives at
  ``jobs=1`` on the workload's alignments.

A change that should move no byte passes here on both trees: run this
file against a ``git archive`` copy of the parent as well. Regenerate
(after convincing yourself the move is intended) with
``PYTHONPATH=src python tests/test_substrate_golden.py``.
"""

from __future__ import annotations

import functools
import hashlib
import json

import pytest

from repro.bio.fasta import FastaRecord
from repro.blast.blastx import blastx_many
from repro.blast.database import ProteinDatabase
from repro.cap3.assembler import assemble
from repro.core.blast2cap3 import blast2cap3_parallel
from repro.datagen.transcripts import TranscriptomeSpec
from repro.datagen.workload import generate_blast2cap3_workload


def _deleted(record: FastaRecord, at: int, n: int) -> FastaRecord:
    """``record`` with ``n`` bases cut out at ``at``, under a new id."""
    return FastaRecord(
        id=f"{record.id}_del", seq=record.seq[:at] + record.seq[at + n:]
    )


@functools.lru_cache(maxsize=None)
def _outputs() -> dict[str, str]:
    """sha256 per output of the fixed workload."""
    workload = generate_blast2cap3_workload(
        n_proteins=6,
        spec=TranscriptomeSpec(
            mean_fragments_per_gene=4.0, sigma_fragments=0.05,
            error_rate=0.002, noise_transcripts=2,
        ),
        seed=5,
    )
    transcripts = workload.transcriptome.transcripts
    origin = workload.transcriptome.origin

    queries = [
        transcripts[0],
        transcripts[6],
        transcripts[7],
        _deleted(transcripts[3], 200, 12),
        _deleted(transcripts[5], 300, 2),
    ]
    hits = blastx_many(queries, ProteinDatabase(records=workload.proteins))

    reads = [
        t for t in transcripts
        if origin.get(t.id) in (None, "prot00001", "prot00002")
    ]
    reads.append(_deleted(reads[1], 150, 3))
    assembly = assemble(reads)

    merged = blast2cap3_parallel(transcripts, workload.hits, jobs=1)

    texts = {
        "blastx.tsv": "".join(hit.format() for hit in hits),
        "assemble.txt": "".join(
            json.dumps([c.id, c.seq, c.members, c.placements]) + "\n"
            for c in assembly.contigs
        ) + "".join(s.format() for s in assembly.singlets),
        "blast2cap3.fasta": "".join(
            r.format() for r in merged.output_records
        ),
    }
    return {
        name: hashlib.sha256(text.encode()).hexdigest()
        for name, text in texts.items()
    }


GOLDEN: dict[str, str] = {
    'blastx.tsv': '38e0cf620139cddeef42d52f7059e685ba806a2993d880df77b62fd2d2046f3a',
    'assemble.txt': '125b23bc206972ab7d584de8e2748d35a7dacc5024b4cf1ef829221ed05c142f',
    'blast2cap3.fasta': '93e94a19d698ef15de544232dfcdb500a59bb7e7ec1347ecf2ea1cc6554f641e',
}


def test_output_set_unchanged():
    assert sorted(_outputs()) == sorted(GOLDEN)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_output_bytes_unchanged(name):
    assert _outputs()[name] == GOLDEN[name]


if __name__ == "__main__":  # regenerate the table
    for name, digest in _outputs().items():
        print(f"    {name!r}: {digest!r},")
