"""Graphviz views of a bundle.

Three layers: `static` draws every thimac as a cluster of its action
nodes with solid flow edges and dashed trigger edges; `events` is the
same drawing with each action tinted by the first event whose region
claims it; `behavior` drops to the event level and draws the
chronology.  Output is deterministic for a given bundle.
"""

from __future__ import annotations

from .model import (
    ACTION_ORDER,
    ActionRef,
    E_SYNTAX,
    ModelBundle,
    TmError,
)

LAYERS = ("static", "events", "behavior")

_PALETTE = (
    "lightblue", "palegreen", "lightgoldenrod", "lightpink", "plum",
    "lightsalmon", "khaki", "aquamarine", "lavender", "mistyrose",
    "powderblue", "wheat", "honeydew",
)


def _quote(text: str) -> str:
    """A DOT string; a newline becomes DOT's centered line break `\\n`."""
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') \
        .replace("\n", "\\n") + '"'


def _name(bundle: ModelBundle) -> str:
    name = bundle.model.name or "model"
    safe = "".join(ch if ch.isalnum() or ch == "_" else "_" for ch in name)
    return safe or "model"


def _trigger_label(trigger) -> str:
    """The effect and guard texts of the trigger's `sort_key`."""
    _src, _dst, effect, guard = trigger.sort_key
    parts = []
    if effect:
        parts.append(effect)
    if guard:
        parts.append(f"when {guard}")
    return " ".join(parts)


def _structure(bundle: ModelBundle, fills) -> list:
    lines = []
    for i, t in enumerate(sorted(bundle.model.thimacs, key=lambda t: t.id)):
        lines.append(f"  subgraph cluster_{i} {{")
        lines.append(f"    label={_quote(t.id)};")
        for action in ACTION_ORDER:
            if action not in t.effective_actions:
                continue
            ref = ActionRef(t.id, action)
            attrs = [f"label={_quote(action.value)}"]
            fill = fills.get(ref)
            if fill:
                attrs.append("style=filled")
                attrs.append(f"fillcolor={fill}")
            lines.append(f"    {_quote(str(ref))} [{', '.join(attrs)}];")
        lines.append("  }")
    for f in bundle.model.flows:
        lines.append(f"  {_quote(str(f.src))} -> {_quote(str(f.dst))};")
    for t in bundle.model.triggers:
        label = _trigger_label(t)
        attrs = "style=dashed"
        if label:
            attrs += f", label={_quote(label)}"
        lines.append(f"  {_quote(str(t.src))} -> {_quote(str(t.dst))} "
                     f"[{attrs}];")
    return lines


def export_dot(bundle: ModelBundle, layer: str = "static") -> str:
    """Render one layer of the bundle as a DOT digraph."""
    if layer not in LAYERS:
        raise TmError(E_SYNTAX, f"unknown layer {layer!r}; "
                                f"expected one of {', '.join(LAYERS)}")
    lines = [f"digraph {_name(bundle)} {{"]
    if layer == "behavior":
        for event in bundle.events:
            text = event.id if not event.label \
                else f"{event.id}\n{event.label}"
            shape = "box" if event.bookkeeping else "ellipse"
            lines.append(f"  {_quote(event.id)} [label={_quote(text)}, "
                         f"shape={shape}];")
        for src, dst in bundle.behavior:
            lines.append(f"  {_quote(src)} -> {_quote(dst)};")
    else:
        fills = {}
        if layer == "events":
            order = bundle.priority_order()
            colors = {eid: _PALETTE[i % len(_PALETTE)]
                      for i, eid in enumerate(order)}
            emap = bundle.event_map()
            for eid in order:
                for ref in emap[eid].region:
                    fills.setdefault(ref, colors[eid])
            legend = "\\n".join(f"{eid}: {colors[eid]}" for eid in order)
            if legend:
                lines.append(f"  label={_quote(legend)};")
                lines.append("  labelloc=b;")
        lines.extend(_structure(bundle, fills))
    lines.append("}")
    return "\n".join(lines) + "\n"
