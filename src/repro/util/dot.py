"""Graphviz DOT emission for workflow DAGs.

The paper's Figs. 2 and 3 draw the blast2cap3 workflow with squares for
files, ovals for tasks, and red rectangles for the OSG tasks that carry an
extra download/install step. :class:`DotGraph` reproduces exactly that
vocabulary so ``benchmarks/bench_fig2_fig3_dags.py`` can regenerate the
figures as ``.dot`` artifacts.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["DotGraph"]


def _quote(s: str) -> str:
    escaped = s.replace("\\", "\\\\").replace('"', '\\"')
    return f'"{escaped}"'


@dataclass
class DotGraph:
    """An append-only DOT digraph builder.

    Node shapes follow the paper's figure legend:

    * ``file``  -> ``box`` (squares: input and output files)
    * ``task``  -> ``ellipse`` (ovals: computational tasks)
    * ``setup_task`` -> red ``box`` (OSG tasks with download/install steps)
    """

    name: str = "workflow"
    rankdir: str = "TB"
    _nodes: dict[str, str] = field(default_factory=dict)
    _edges: list[tuple[str, str]] = field(default_factory=list)

    _SHAPES = {
        "file": 'shape=box, style=rounded',
        "task": "shape=ellipse",
        "setup_task": 'shape=box, color=red, fontcolor=red',
        "plain": "shape=plaintext",
    }

    def add_node(self, node_id: str, *, label: str | None = None,
                 kind: str = "task") -> None:
        """Register a node. Re-adding the same id with the same kind is a
        no-op; conflicting kinds raise ``ValueError``."""
        try:
            attrs = self._SHAPES[kind]
        except KeyError:
            raise ValueError(f"unknown node kind: {kind!r}") from None
        decl = f"label={_quote(label or node_id)}, {attrs}"
        existing = self._nodes.get(node_id)
        if existing is not None and existing != decl:
            raise ValueError(f"node {node_id!r} re-added with different attrs")
        self._nodes[node_id] = decl

    def add_edge(self, src: str, dst: str) -> None:
        """Register a dependency edge; endpoints must already be nodes."""
        for endpoint in (src, dst):
            if endpoint not in self._nodes:
                raise ValueError(f"edge endpoint {endpoint!r} not declared")
        edge = (src, dst)
        if edge not in self._edges:
            self._edges.append(edge)

    @property
    def node_count(self) -> int:
        return len(self._nodes)

    def render(self) -> str:
        """Emit DOT source text."""
        lines = [f"digraph {_quote(self.name)} {{", f"  rankdir={self.rankdir};"]
        for node_id, attrs in self._nodes.items():
            lines.append(f"  {_quote(node_id)} [{attrs}];")
        for src, dst in self._edges:
            lines.append(f"  {_quote(src)} -> {_quote(dst)};")
        lines.append("}")
        return "\n".join(lines)

    def write(self, path: str) -> None:
        """Write the DOT source to ``path`` atomically."""
        from repro.util.iolib import atomic_write

        atomic_write(path, self.render() + "\n")
