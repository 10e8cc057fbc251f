"""``ADag.to_xml`` prints ``workflow.dax`` line by line; the ElementTree
writer it replaced (``tests/oracles/etree_dax.py``) is the reference.

For any workflow whose text XML 1.0 can carry, the two give the same
bytes. Text it cannot carry is refused by the printer, and a file that
is not a DAX is refused by the reader — with one line, which
``repro-lint --dax`` prints before it exits 2.
"""

from __future__ import annotations

from enum import IntEnum

import pytest
from hypothesis import given, settings, strategies as st

from repro.lint.cli import main as lint_main
from repro.wms.dax import ADag, AbstractJob, File, LinkType
from tests.oracles.etree_dax import etree_dax


class Level(IntEnum):
    LOW = 1


class Tag(str):
    pass


def legal(c: str) -> bool:
    return c in "\t\n\r" or (
        "\x20" <= c <= "\ud7ff" or "\ue000" <= c <= "\ufffd" or c >= "\U00010000"
    )


#: What the attribute escaper has a rule for (quote, ampersand, angle
#: brackets, the three whitespace controls), what it leaves alone
#: (apostrophe, DEL, non-ASCII, astral), and lookalikes of the
#: printer's own text.
NASTY = [
    '"', "&", "<", ">", "&amp;", "\r", "\n", "\t", "\r\n", "'", "\x7f",
    "é", "ß→", "\U0001f9ec", "a\U00010000b", "%s", "{}", "{0}", " />",
    '" />\n  <job', "</adag>", "\x85", " ",
]
texts = st.sampled_from(NASTY) | st.text(st.characters().filter(legal), max_size=10)
#: Ids and logical file names hold no whitespace.
names = (
    st.sampled_from([n for n in NASTY if n.split() == [n]])
    | st.text(st.characters().filter(lambda c: legal(c) and not c.isspace()),
              min_size=1, max_size=8)
)
arg_values = (
    texts
    | st.integers()
    | st.sampled_from([1.0, -0.0, 1e22, float("inf"), float("nan"), True,
                       Level.LOW, Tag("t&")])
)
runtimes = (
    st.floats(min_value=0, allow_infinity=True, allow_nan=False)
    | st.integers(min_value=0)
    | st.sampled_from([0, 0.0, -0.0])  # a NaN runtime is refused
)
files = st.builds(File, name=names, size=st.integers(min_value=0, max_value=10**20))


@st.composite
def workflows(draw) -> ADag:
    adag = ADag(draw(texts.filter(bool)))
    for job_id in draw(st.lists(names, unique=True, max_size=5)):
        job = AbstractJob(
            id=job_id,
            transformation=draw(texts),
            args=draw(st.dictionaries(texts, arg_values, max_size=3)),
            runtime=draw(runtimes),
        )
        for f, link in draw(st.lists(st.tuples(files, st.sampled_from(LinkType)),
                                     max_size=3)):
            job.uses.append((f, link))
        adag.add_job(job)
    ids = list(adag.jobs)
    if len(ids) > 1:
        for parent, child in draw(st.lists(st.tuples(st.sampled_from(ids),
                                                     st.sampled_from(ids)),
                                           max_size=4)):
            if parent != child:
                adag.add_dependency(parent, child)
    return adag


@given(workflows())
@settings(max_examples=150, deadline=None)
def test_text_is_the_elementtree_writers_byte_for_byte(adag):
    assert adag.to_xml() == etree_dax(adag)


class TestNamedCases:
    def check(self, adag):
        assert adag.to_xml() == etree_dax(adag)

    def test_empty_workflow(self):
        self.check(ADag("empty"))

    def test_job_without_arguments_uses_or_children(self):
        adag = ADag("w")
        adag.add_job(AbstractJob(id="a", transformation="t"))
        self.check(adag)

    def test_explicit_edges_grouped_by_child(self):
        adag = ADag("w")
        for job_id in "abc":
            adag.add_job(AbstractJob(id=job_id, transformation="t", runtime=2))
        adag.add_dependency("b", "c")
        adag.add_dependency("a", "c")
        adag.add_dependency("a", "b")
        self.check(adag)

    @pytest.mark.parametrize("text", NASTY)
    def test_escapes(self, text):
        adag = ADag(text)
        adag.add_job(AbstractJob(id="j", transformation=text,
                                 args={text: text}).add_input(File("f", 3)))
        self.check(adag)

    def test_paper_workflow(self):
        from repro.core.workflow_factory import build_blast2cap3_adag
        from repro.perfmodel.task_models import PaperTaskModel

        self.check(build_blast2cap3_adag(12, model=PaperTaskModel()))


class TestTextXmlCannotCarry:
    @pytest.mark.parametrize("bad", ["\x00", "a\x01b", "\x1f", "\ufffe", "\uffff", "\ud800"])
    def test_argument_value_is_refused_naming_job_and_key(self, bad):
        adag = ADag("w")
        adag.add_job(AbstractJob(id="split", transformation="t",
                                 args={"ok": "x", "fasta": bad}))
        with pytest.raises(ValueError, match="job 'split': argument 'fasta'"):
            adag.to_xml()

    def test_argument_key_is_refused(self):
        adag = ADag("w")
        adag.add_job(AbstractJob(id="split", transformation="t",
                                 args={"k\x00": "v"}))
        with pytest.raises(ValueError, match="job 'split': argument 'k\\\\x00'"):
            adag.to_xml()

    def test_other_text_is_refused_too(self):
        adag = ADag("w\x00")
        with pytest.raises(ValueError, match="XML 1.0 cannot carry"):
            adag.to_xml()


GOOD = (
    '<adag name="w" jobCount="1">\n'
    '  <job id="a" name="t" runtime="1.0">\n'
    '    <argument key="k" value="v" />\n'
    '  </job>\n'
    '</adag>\n'
)

#: Files ``repro-lint --dax`` must refuse with one line and exit 2.
#: Each was a traceback before the reader turned parse errors into
#: ``ValueError``.
BAD_DAX = {
    "truncated at byte 40": GOOD.encode()[:40],
    "NUL in an argument value": GOOD.replace('value="v"', 'value="a\x00b"').encode(),
    "other control character": GOOD.replace('name="t"', 'name="\x1b[31m"').encode(),
    "empty file": b"",
    "plain text": b"hello, world\n",
    "JSON": b'{"jobs": {}, "edges": []}\n',
    "unclosed root": b'<adag name="w">\n',
}


@pytest.mark.parametrize("case", sorted(BAD_DAX))
def test_lint_refuses_a_file_that_is_not_a_dax(case, tmp_path, capsys):
    path = tmp_path / "bad.dax"
    path.write_bytes(BAD_DAX[case])
    assert lint_main(["--dax", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert len(err.splitlines()) == 1, err
    assert err.startswith(f"cannot parse {path}: ")


def test_parse_error_names_line_and_column():
    with pytest.raises(ValueError, match=r"^line 3, column \d+: "):
        ADag.from_xml('<adag name="w">\n  <job id="a" name="t">\n  <job')


def test_good_file_still_reads():
    assert ADag.from_xml(GOOD).jobs["a"].args == {"k": "v"}
