"""DAX-pass lint findings on hand-built ADags plus extra bio property tests (ORF symmetry,
affine/linear relationships over random sequences)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.bio.orf import find_orfs
from repro.bio.seq import reverse_complement
from repro.core.workflow_factory import build_blast2cap3_adag
from repro.lint import lint
from repro.wms.dax import ADag, AbstractJob, File
from repro.wms.statistics import render_site_breakdown

dna = st.text(alphabet="ACGT", min_size=0, max_size=120)


def problems(adag):
    return [f.message for f in lint(adag).findings]


class TestAdagValidate:
    def test_blast2cap3_adag_is_clean(self):
        assert problems(build_blast2cap3_adag(10)) == []

    def test_job_without_files_flagged(self):
        adag = ADag(name="w")
        adag.add_job(AbstractJob(id="bare", transformation="t"))
        assert any("uses no files" in p for p in problems(adag))

    def test_size_disagreement_flagged(self):
        adag = ADag(name="w")
        adag.add_job(
            AbstractJob(id="a", transformation="t").add_output(
                File("x.dat", size=100)
            )
        )
        adag.add_job(
            AbstractJob(id="b", transformation="t").add_input(
                File("x.dat", size=999)
            )
        )
        assert any("sizes" in p for p in problems(adag))

    def test_duplicate_producer_flagged(self):
        adag = ADag(name="w")
        for jid in ("a", "b"):
            adag.add_job(
                AbstractJob(id=jid, transformation="t").add_output(
                    File("x.dat")
                )
            )
        assert any("produced by both" in p for p in problems(adag))

    def test_redundant_explicit_edge_flagged(self):
        adag = ADag(name="w")
        adag.add_job(
            AbstractJob(id="a", transformation="t").add_output(File("x.dat"))
        )
        adag.add_job(
            AbstractJob(id="b", transformation="t").add_input(File("x.dat"))
        )
        adag.add_dependency("a", "b")
        assert any("duplicates a data dependency" in p for p in problems(adag))


class TestOrfProperties:
    @given(dna)
    @settings(max_examples=60, deadline=None)
    def test_strand_symmetry(self, seq):
        """ORFs of the reverse complement are the mirror of the
        original's: same proteins, frames negated."""
        fwd = find_orfs(seq, min_length_aa=5, require_start=False)
        rev = find_orfs(reverse_complement(seq), min_length_aa=5,
                        require_start=False)
        assert sorted((o.protein, -o.frame) for o in fwd) == sorted(
            (o.protein, o.frame) for o in rev
        )

    @given(dna)
    @settings(max_examples=60, deadline=None)
    def test_orfs_never_contain_stop(self, seq):
        for orf in find_orfs(seq, min_length_aa=2, require_start=False):
            assert "*" not in orf.protein

    @given(dna, st.integers(min_value=2, max_value=40))
    @settings(max_examples=40, deadline=None)
    def test_longer_floor_is_subset(self, seq, floor):
        loose = {
            (o.frame, o.start, o.end)
            for o in find_orfs(seq, min_length_aa=floor, require_start=False)
        }
        strict = {
            (o.frame, o.start, o.end)
            for o in find_orfs(seq, min_length_aa=floor + 10,
                               require_start=False)
        }
        assert strict <= loose


class TestAffineProperties:
    @given(dna.filter(lambda s: len(s) >= 1), dna.filter(lambda s: len(s) >= 1))
    @settings(max_examples=40, deadline=None)
    def test_affine_score_monotone_in_extend_cost(self, a, b):
        from repro.bio.affine import affine_global
        from repro.bio.matrices import dna_matrix

        m = dna_matrix()
        cheap = affine_global(a, b, matrix=m, gap_open=-6, gap_extend=-1)
        dear = affine_global(a, b, matrix=m, gap_open=-6, gap_extend=-4)
        assert cheap.score >= dear.score

    @given(dna.filter(lambda s: len(s) >= 1))
    @settings(max_examples=40, deadline=None)
    def test_self_alignment_gap_free(self, seq):
        from repro.bio.affine import affine_global
        from repro.bio.matrices import dna_matrix

        res = affine_global(seq, seq, matrix=dna_matrix(match=2),
                            gap_open=-6, gap_extend=-1)
        assert res.gaps == 0
        assert res.score == 2 * len(seq)


class TestSiteBreakdownRender:
    def test_renders_multi_site(self):
        from repro.core.workflow_factory import simulate_paper_run

        result, _ = simulate_paper_run(50, "osg", seed=2)
        text = render_site_breakdown(result.trace)
        assert "Per-site breakdown" in text
        assert "total kickstart" in text
