"""SPICE-like netlist parser.

The parser accepts a practical subset of SPICE syntax sufficient to describe
the small-signal circuits used in symbolic analysis:

* primitive elements ``R``, ``C``, ``L``, ``V``, ``I``, ``G`` (VCCS), ``E``
  (VCVS), ``F`` (CCCS), ``H`` (CCVS),
* small-signal transistor instances ``M`` (MOSFET) and ``Q`` (BJT) and diodes
  ``D``, expanded into their hybrid-π / level-1 small-signal equivalents using
  ``.model`` cards plus per-instance operating-point parameters,
* ``.subckt`` / ``.ends`` definitions and ``X`` instances (flattened),
* ``*`` comments, ``;`` trailing comments and ``+`` continuation lines,
* ``.model``, ``.end`` and ``.title`` cards (other dot-cards are ignored with a
  warning list returned on request).

Example
-------
::

    * single-pole amplifier
    .model nch nmos (gm=1m gds=20u cgs=50f cgd=5f)
    Vin in 0 ac 1
    M1 out in 0 0 nch
    RL out 0 100k
    CL out 0 1p
    .end
"""

from __future__ import annotations

import dataclasses
import re
from typing import Dict, List, Optional, Tuple

from ..errors import ParseError
from ..units import parse_value
from .circuit import Circuit

__all__ = ["parse_netlist", "parse_netlist_file", "ModelCard", "SubcktDef"]


@dataclasses.dataclass
class ModelCard:
    """A ``.model`` card: a named bag of device parameters."""

    name: str
    kind: str
    params: Dict[str, float]


@dataclasses.dataclass
class SubcktDef:
    """A ``.subckt`` definition: interface nodes plus body lines."""

    name: str
    ports: List[str]
    lines: List[Tuple[int, str]]


def parse_netlist_file(path):
    """Parse a netlist file from disk; see :func:`parse_netlist`."""
    with open(path, "r", encoding="utf-8") as handle:
        return parse_netlist(handle.read(), name=str(path))


def parse_netlist(text, name="netlist"):
    """Parse netlist ``text`` and return a flattened :class:`Circuit`.

    Parameters
    ----------
    text:
        The netlist source.
    name:
        Name given to the resulting circuit (the ``.title`` card, or the first
        comment-like title line, overrides it).

    Raises
    ------
    ParseError
        On any syntax error; the exception carries the offending line number.
    """
    parser = _NetlistParser(name)
    return parser.parse(text)


_PARAM_RE = re.compile(r"([A-Za-z_][A-Za-z_0-9]*)\s*=\s*([^\s()=]+)")


def _split_params(tokens):
    """Split a token list into (positional tokens, {param: value})."""
    positional: List[str] = []
    params: Dict[str, float] = {}
    text = " ".join(tokens)
    # Extract name=value pairs anywhere on the line.
    consumed_spans = []
    for match in _PARAM_RE.finditer(text):
        params[match.group(1).lower()] = parse_value(match.group(2))
        consumed_spans.append(match.span())
    # Remaining text (outside parameter assignments) forms the positional part.
    remainder = []
    last = 0
    for start, end in consumed_spans:
        remainder.append(text[last:start])
        last = end
    remainder.append(text[last:])
    for token in " ".join(remainder).replace("(", " ").replace(")", " ").split():
        positional.append(token)
    return positional, params


class _NetlistParser:
    """Stateful parser; one instance per :func:`parse_netlist` call."""

    def __init__(self, name):
        self.name = name
        self.models: Dict[str, ModelCard] = {}
        self.subckts: Dict[str, SubcktDef] = {}
        self.ignored_cards: List[str] = []
        self.title: Optional[str] = None

    # -- line preprocessing ------------------------------------------------

    @staticmethod
    def _physical_lines(text):
        for i, raw in enumerate(text.splitlines(), start=1):
            yield i, raw

    @staticmethod
    def _strip_comment(line):
        # ';' and '$' start trailing comments.
        for marker in (";", "$ "):
            index = line.find(marker)
            if index >= 0:
                line = line[:index]
        return line.rstrip()

    def _logical_lines(self, text):
        """Join '+' continuations, drop comments and blank lines."""
        logical: List[Tuple[int, str]] = []
        for number, raw in self._physical_lines(text):
            line = self._strip_comment(raw)
            stripped = line.strip()
            if not stripped:
                continue
            if stripped.startswith("*"):
                if self.title is None and number <= 2 and len(stripped) > 1:
                    self.title = stripped[1:].strip()
                continue
            if stripped.startswith("+"):
                if not logical:
                    raise ParseError("continuation line with no previous line",
                                     line_number=number, line=raw)
                prev_number, prev_text = logical[-1]
                logical[-1] = (prev_number, prev_text + " " + stripped[1:].strip())
            else:
                logical.append((number, stripped))
        return logical

    # -- main entry ---------------------------------------------------------

    def parse(self, text):
        logical = self._logical_lines(text)
        body: List[Tuple[int, str]] = []
        # First pass: collect .model and .subckt cards; everything else is body.
        iterator = iter(logical)
        for number, line in iterator:
            lower = line.lower()
            if lower.startswith(".model"):
                self._parse_model(number, line)
            elif lower.startswith(".subckt"):
                self._parse_subckt(number, line, iterator)
            elif lower.startswith(".title"):
                self.title = line[len(".title"):].strip()
            elif lower.startswith(".end") and not lower.startswith(".ends"):
                break
            elif lower.startswith("."):
                self.ignored_cards.append(line.split()[0].lower())
            else:
                body.append((number, line))

        circuit = Circuit(self.name, self.title or self.name)
        for number, line in body:
            self._add_line(circuit, number, line, prefix="", node_map={})
        return circuit

    # -- dot cards ----------------------------------------------------------

    def _parse_model(self, number, line):
        tokens = line.split()
        if len(tokens) < 3:
            raise ParseError(".model needs a name and a type",
                             line_number=number, line=line)
        name = tokens[1].lower()
        kind = tokens[2].split("(")[0].lower()
        __, params = _split_params(tokens[2:])
        self.models[name] = ModelCard(name=name, kind=kind, params=params)

    def _parse_subckt(self, number, line, iterator):
        tokens = line.split()
        if len(tokens) < 2:
            raise ParseError(".subckt needs a name", line_number=number, line=line)
        name = tokens[1].lower()
        ports = tokens[2:]
        lines: List[Tuple[int, str]] = []
        for sub_number, sub_line in iterator:
            lower = sub_line.lower()
            if lower.startswith(".ends"):
                self.subckts[name] = SubcktDef(name=name, ports=ports, lines=lines)
                return
            if lower.startswith(".model"):
                self._parse_model(sub_number, sub_line)
                continue
            lines.append((sub_number, sub_line))
        raise ParseError(f"unterminated .subckt {name!r}", line_number=number, line=line)

    # -- element lines ------------------------------------------------------

    def _add_line(self, circuit, number, line, prefix, node_map):
        letter = line[0].lower()
        tokens = line.split()
        handler = {
            "r": self._add_resistor,
            "c": self._add_capacitor,
            "l": self._add_inductor,
            "v": self._add_vsource,
            "i": self._add_isource,
            "g": self._add_vccs,
            "e": self._add_vcvs,
            "f": self._add_cccs,
            "h": self._add_ccvs,
            "m": self._add_mosfet,
            "q": self._add_bjt,
            "d": self._add_diode,
            "x": self._add_subckt_instance,
        }.get(letter)
        if handler is None:
            raise ParseError(f"unknown element type {line[0]!r}",
                             line_number=number, line=line)
        try:
            handler(circuit, number, tokens, prefix, node_map)
        except ParseError:
            raise
        except Exception as exc:  # surface element construction errors with context
            raise ParseError(str(exc), line_number=number, line=line) from exc

    @staticmethod
    def _map_node(node, node_map, prefix):
        node = str(node)
        if node.lower() in ("0", "gnd", "ground"):
            return "0"
        if node in node_map:
            return node_map[node]
        if prefix:
            return f"{prefix}{node}"
        return node

    def _name(self, token, prefix):
        return f"{prefix}{token}" if prefix else token

    def _require(self, tokens, count, number):
        if len(tokens) < count:
            raise ParseError(
                f"element line needs at least {count} fields, got {len(tokens)}",
                line_number=number, line=" ".join(tokens))

    # individual element handlers ------------------------------------------

    def _add_resistor(self, circuit, number, tokens, prefix, node_map):
        self._require(tokens, 4, number)
        name = self._name(tokens[0], prefix)
        a = self._map_node(tokens[1], node_map, prefix)
        b = self._map_node(tokens[2], node_map, prefix)
        circuit.add_resistor(name, a, b, parse_value(tokens[3]))

    def _add_capacitor(self, circuit, number, tokens, prefix, node_map):
        self._require(tokens, 4, number)
        name = self._name(tokens[0], prefix)
        a = self._map_node(tokens[1], node_map, prefix)
        b = self._map_node(tokens[2], node_map, prefix)
        circuit.add_capacitor(name, a, b, parse_value(tokens[3]))

    def _add_inductor(self, circuit, number, tokens, prefix, node_map):
        self._require(tokens, 4, number)
        name = self._name(tokens[0], prefix)
        a = self._map_node(tokens[1], node_map, prefix)
        b = self._map_node(tokens[2], node_map, prefix)
        circuit.add_inductor(name, a, b, parse_value(tokens[3]))

    @staticmethod
    def _source_value(tokens):
        """Extract the AC magnitude from a source line (``ac <mag>`` or plain value)."""
        lowered = [t.lower() for t in tokens]
        if "ac" in lowered:
            index = lowered.index("ac")
            if index + 1 < len(tokens):
                return parse_value(tokens[index + 1])
            return 1.0
        if len(tokens) > 3:
            try:
                return parse_value(tokens[3])
            except ParseError:
                return 0.0
        return 0.0

    def _add_vsource(self, circuit, number, tokens, prefix, node_map):
        self._require(tokens, 3, number)
        name = self._name(tokens[0], prefix)
        a = self._map_node(tokens[1], node_map, prefix)
        b = self._map_node(tokens[2], node_map, prefix)
        circuit.add_voltage_source(name, a, b, self._source_value(tokens))

    def _add_isource(self, circuit, number, tokens, prefix, node_map):
        self._require(tokens, 3, number)
        name = self._name(tokens[0], prefix)
        a = self._map_node(tokens[1], node_map, prefix)
        b = self._map_node(tokens[2], node_map, prefix)
        circuit.add_current_source(name, a, b, self._source_value(tokens))

    def _add_vccs(self, circuit, number, tokens, prefix, node_map):
        self._require(tokens, 6, number)
        name = self._name(tokens[0], prefix)
        nodes = [self._map_node(t, node_map, prefix) for t in tokens[1:5]]
        circuit.add_vccs(name, nodes[0], nodes[1], nodes[2], nodes[3],
                         parse_value(tokens[5]))

    def _add_vcvs(self, circuit, number, tokens, prefix, node_map):
        self._require(tokens, 6, number)
        name = self._name(tokens[0], prefix)
        nodes = [self._map_node(t, node_map, prefix) for t in tokens[1:5]]
        circuit.add_vcvs(name, nodes[0], nodes[1], nodes[2], nodes[3],
                         parse_value(tokens[5]))

    def _add_cccs(self, circuit, number, tokens, prefix, node_map):
        self._require(tokens, 5, number)
        name = self._name(tokens[0], prefix)
        a = self._map_node(tokens[1], node_map, prefix)
        b = self._map_node(tokens[2], node_map, prefix)
        circuit.add_cccs(name, a, b, self._name(tokens[3], prefix),
                         parse_value(tokens[4]))

    def _add_ccvs(self, circuit, number, tokens, prefix, node_map):
        self._require(tokens, 5, number)
        name = self._name(tokens[0], prefix)
        a = self._map_node(tokens[1], node_map, prefix)
        b = self._map_node(tokens[2], node_map, prefix)
        circuit.add_ccvs(name, a, b, self._name(tokens[3], prefix),
                         parse_value(tokens[4]))

    # devices ----------------------------------------------------------------

    def _lookup_model(self, model_name, number, line_tokens):
        model = self.models.get(model_name.lower())
        if model is None:
            raise ParseError(f"unknown model {model_name!r}",
                             line_number=number, line=" ".join(line_tokens))
        return model

    def _add_mosfet(self, circuit, number, tokens, prefix, node_map):
        # Mname drain gate source bulk model [param=value ...]
        from ..devices.expand import expand_mosfet
        from ..devices.mosfet import MosfetSmallSignal

        positional, params = _split_params(tokens)
        self._require(positional, 6, number)
        name = self._name(positional[0], prefix)
        drain, gate, source, bulk = (
            self._map_node(t, node_map, prefix) for t in positional[1:5]
        )
        model = self._lookup_model(positional[5], number, tokens)
        merged = dict(model.params)
        merged.update(params)
        small_signal = MosfetSmallSignal.from_params(merged, polarity=model.kind)
        expand_mosfet(circuit, name, drain, gate, source, bulk, small_signal)

    def _add_bjt(self, circuit, number, tokens, prefix, node_map):
        # Qname collector base emitter model [param=value ...]
        from ..devices.bjt import BjtSmallSignal
        from ..devices.expand import expand_bjt

        positional, params = _split_params(tokens)
        self._require(positional, 5, number)
        name = self._name(positional[0], prefix)
        collector, base, emitter = (
            self._map_node(t, node_map, prefix) for t in positional[1:4]
        )
        model = self._lookup_model(positional[4], number, tokens)
        merged = dict(model.params)
        merged.update(params)
        small_signal = BjtSmallSignal.from_params(merged, polarity=model.kind)
        expand_bjt(circuit, name, collector, base, emitter, small_signal)

    def _add_diode(self, circuit, number, tokens, prefix, node_map):
        # Dname anode cathode model [param=value ...]
        from ..devices.diode import DiodeSmallSignal
        from ..devices.expand import expand_diode

        positional, params = _split_params(tokens)
        self._require(positional, 4, number)
        name = self._name(positional[0], prefix)
        anode = self._map_node(positional[1], node_map, prefix)
        cathode = self._map_node(positional[2], node_map, prefix)
        model = self._lookup_model(positional[3], number, tokens)
        merged = dict(model.params)
        merged.update(params)
        small_signal = DiodeSmallSignal.from_params(merged)
        expand_diode(circuit, name, anode, cathode, small_signal)

    # subcircuits -------------------------------------------------------------

    def _add_subckt_instance(self, circuit, number, tokens, prefix, node_map):
        # Xname node1 node2 ... subcktname
        self._require(tokens, 3, number)
        instance = tokens[0]
        subckt_name = tokens[-1].lower()
        subckt = self.subckts.get(subckt_name)
        if subckt is None:
            raise ParseError(f"unknown subcircuit {subckt_name!r}",
                             line_number=number, line=" ".join(tokens))
        actual_nodes = [self._map_node(t, node_map, prefix) for t in tokens[1:-1]]
        if len(actual_nodes) != len(subckt.ports):
            raise ParseError(
                f"subcircuit {subckt_name!r} expects {len(subckt.ports)} nodes, "
                f"got {len(actual_nodes)}",
                line_number=number, line=" ".join(tokens))
        inner_prefix = f"{prefix}{instance}."
        inner_map = dict(zip(subckt.ports, actual_nodes))
        for sub_number, sub_line in subckt.lines:
            self._add_line(circuit, sub_number, sub_line, inner_prefix, inner_map)
