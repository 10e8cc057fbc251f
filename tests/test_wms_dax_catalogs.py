"""Tests for the abstract workflow model (DAX) and the catalogs."""

import pytest

from repro.wms.catalogs import (
    ReplicaCatalog,
    SiteCatalog,
    TransformationCatalog,
    TransformationEntry,
    local_site,
    osg_site,
    sandhills_site,
)
from repro.wms.dax import ADag, AbstractJob, File, LinkType


def small_adag():
    adag = ADag(name="wf")
    raw = File("raw.txt", size=100)
    mid = File("mid.txt", size=50)
    out = File("out.txt", size=10)
    adag.add_job(
        AbstractJob(id="j1", transformation="first", runtime=5.0)
        .add_input(raw)
        .add_output(mid)
    )
    adag.add_job(
        AbstractJob(id="j2", transformation="second", args={"k": "v"},
                    runtime=7.0)
        .add_input(mid)
        .add_output(out)
    )
    return adag


class TestDaxModel:
    def test_file_validation(self):
        with pytest.raises(ValueError):
            File("")
        with pytest.raises(ValueError):
            File("a b")
        with pytest.raises(ValueError):
            File("x", size=-1)

    def test_job_validation(self):
        with pytest.raises(ValueError):
            AbstractJob(id="", transformation="t")
        with pytest.raises(ValueError):
            AbstractJob(id="x", transformation="t", runtime=-1)

    def test_duplicate_job_rejected(self):
        adag = ADag(name="wf")
        adag.add_job(AbstractJob(id="a", transformation="t"))
        with pytest.raises(ValueError, match="duplicate"):
            adag.add_job(AbstractJob(id="a", transformation="t"))

    def test_data_dependencies_inferred(self):
        assert small_adag().edges() == {("j1", "j2")}

    def test_explicit_dependency(self):
        adag = small_adag()
        adag.add_job(AbstractJob(id="j3", transformation="third"))
        adag.add_dependency("j2", "j3")
        assert ("j2", "j3") in adag.edges()

    def test_dependency_unknown_job(self):
        with pytest.raises(KeyError):
            small_adag().add_dependency("j1", "nope")

    def test_external_inputs_and_final_outputs(self):
        adag = small_adag()
        assert [f.name for f in adag.external_inputs()] == ["raw.txt"]
        assert [f.name for f in adag.final_outputs()] == ["out.txt"]

    def test_two_producers_rejected(self):
        adag = small_adag()
        adag.add_job(
            AbstractJob(id="j3", transformation="dup").add_output(
                File("mid.txt")
            )
        )
        with pytest.raises(ValueError, match="produced by both"):
            adag.producers()

    def test_xml_roundtrip(self):
        adag = small_adag()
        back = ADag.from_xml(adag.to_xml())
        assert set(back.jobs) == {"j1", "j2"}
        assert back.jobs["j2"].args == {"k": "v"}
        assert back.jobs["j2"].runtime == 7.0
        assert back.edges() == adag.edges()
        assert back.jobs["j1"].inputs()[0].size == 100

    def test_xml_file_roundtrip(self, tmp_path):
        adag = small_adag()
        path = tmp_path / "wf.dax"
        adag.write(path)
        assert ADag.read(path).name == "wf"
        assert "<adag" in path.read_text()

    def test_bad_xml_rejected(self):
        with pytest.raises(ValueError, match="not a DAX"):
            ADag.from_xml("<html></html>")

    def test_linktype_values(self):
        assert LinkType("input") is LinkType.INPUT
        assert LinkType("output") is LinkType.OUTPUT


class TestCatalogs:
    def test_replica_catalog(self):
        rc = ReplicaCatalog()
        rc.add("f.txt", "file:///data/f.txt")
        rc.add("f.txt", "gridftp://osg/f.txt", site="osg")
        assert rc.has("f.txt")
        assert len(rc.lookup("f.txt")) == 2
        assert rc.lookup("f.txt", site="osg") == ["gridftp://osg/f.txt"]
        assert rc.lookup("missing.txt") == []
        assert {lfn for lfn, _, _ in rc.entries()} == {"f.txt"}

    def test_replica_validation(self):
        with pytest.raises(ValueError):
            ReplicaCatalog().add("", "pfn")

    def test_transformation_catalog(self):
        tc = TransformationCatalog()
        entry = TransformationEntry(
            name="cap3", pfn="/usr/bin/cap3",
            installed_sites=frozenset({"sandhills"}),
        )
        tc.add(entry)
        assert "cap3" in tc
        assert tc.lookup("cap3").installed_at("sandhills")
        assert not tc.lookup("cap3").installed_at("osg")
        with pytest.raises(KeyError, match="not in catalog"):
            tc.lookup("blat")
        with pytest.raises(ValueError, match="duplicate"):
            tc.add(entry)

    def test_site_catalog(self):
        sc = SiteCatalog()
        sc.add(sandhills_site())
        sc.add(osg_site())
        assert "sandhills" in sc
        assert sc.lookup("sandhills").software_preinstalled
        assert not sc.lookup("osg").software_preinstalled
        assert sc.lookup("sandhills").shared_filesystem
        assert not sc.lookup("osg").shared_filesystem
        with pytest.raises(KeyError):
            sc.lookup("xsede")

    def test_site_network_speeds_differ(self):
        campus, grid = sandhills_site(), osg_site()
        size = 155_000_000  # alignments.out
        assert campus.network.transfer_time(size) < grid.network.transfer_time(size)

    def test_local_site(self):
        assert local_site().software_preinstalled
