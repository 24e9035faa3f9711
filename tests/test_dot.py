"""Graphviz export of the three layers."""

from pathlib import Path

import pytest

from thimac import TmError
from thimac.dot import export_dot
from thimac.dsl import parse_file
from thimac.model import ModelBundle, StaticModel

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def assembly():
    return parse_file(FIXTURES / "assembly_line.tm").bundle


def test_static_layer_structure():
    text = export_dot(assembly(), "static")
    assert text.startswith("digraph assembly_line {")
    assert text.endswith("}\n")
    assert "subgraph cluster_" in text
    assert 'label="M1"' in text
    # flows stay solid, triggers go dashed
    assert '"env.release" -> "env.transfer";' in text
    assert "style=dashed" in text
    assert 'label="inc when not M1.block and B1.count < 3"' in text


def test_events_layer_colors_regions():
    text = export_dot(assembly(), "events")
    assert "fillcolor=lightblue" in text
    assert "style=filled" in text
    # the legend ties event ids to their colors
    assert "E1: lightblue" in text


def test_behavior_layer_draws_chronology():
    b = assembly()
    text = export_dot(b, "behavior")
    for event in b.events:
        assert f'"{event.id}"' in text
    assert '"E1" -> "E2";' in text
    assert text.count(" -> ") == len(b.behavior)
    # bookkeeping events show as boxes
    assert 'shape=box' in text


def test_empty_model_is_empty_digraph():
    empty = ModelBundle(StaticModel(), (), (), (), {}, ())
    assert export_dot(empty, "static") == "digraph model {\n}\n"
    assert export_dot(empty, "behavior") == "digraph model {\n}\n"


def test_export_is_deterministic():
    b = assembly()
    for layer in ("static", "events", "behavior"):
        assert export_dot(b, layer) == export_dot(b, layer)


def test_unknown_layer_rejected():
    with pytest.raises(TmError):
        export_dot(assembly(), "spaghetti")


def test_behavior_label_breaks_line_between_id_and_label():
    text = export_dot(parse_file(FIXTURES / "door.tm").bundle, "behavior")
    assert ('  "closed" [label="closed\\ndoor rests closed", shape=ellipse];\n'
            in text)


def test_events_legend_bytes_stay_pinned():
    # the legend still doubles its separators' backslash; the benchmark
    # digests pin these bytes until they are re-recorded
    text = export_dot(parse_file(FIXTURES / "door.tm").bundle, "events")
    assert ('  label="closed: lightblue\\\\nopened: palegreen\\\\n'
            'opening: lightgoldenrod\\\\nclosing: lightpink";\n' in text)
