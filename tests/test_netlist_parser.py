"""Tests for the SPICE-like netlist parser."""

import pytest

from repro.errors import ParseError
from repro.netlist.elements import (
    CCCS,
    Conductor,
    CurrentSource,
    Inductor,
    Resistor,
    VCCS,
    VCVS,
)
from repro.netlist.parser import parse_netlist


class TestPrimitives:
    def test_basic_rc(self):
        circuit = parse_netlist("""
        * simple RC
        Vin in 0 ac 1
        R1 in out 1k
        C1 out 0 1n
        .end
        """)
        assert len(circuit) == 3
        assert isinstance(circuit["R1"], Resistor)
        assert circuit["R1"].value == pytest.approx(1e3)
        assert circuit["C1"].value == pytest.approx(1e-9)
        assert circuit["Vin"].value == pytest.approx(1.0)

    def test_all_source_types(self):
        circuit = parse_netlist("""
        V1 a 0 ac 2
        I1 a 0 ac 1m
        G1 b 0 a 0 2m
        E1 c 0 a 0 10
        F1 d 0 V1 5
        H1 e 0 V1 100
        R1 a b 1k
        R2 c d 1k
        R3 e 0 1k
        R4 b 0 1k
        R5 d 0 1k
        """)
        assert isinstance(circuit["I1"], CurrentSource)
        assert circuit["I1"].value == pytest.approx(1e-3)
        assert isinstance(circuit["G1"], VCCS)
        assert circuit["G1"].gm == pytest.approx(2e-3)
        assert isinstance(circuit["E1"], VCVS)
        assert isinstance(circuit["F1"], CCCS)
        assert circuit["H1"].gain == pytest.approx(100.0)

    def test_inductor(self):
        circuit = parse_netlist("L1 a 0 10u\nR1 a 0 50")
        assert isinstance(circuit["L1"], Inductor)
        assert circuit["L1"].value == pytest.approx(10e-6)

    def test_title_and_comments(self):
        circuit = parse_netlist("""* my amplifier
        R1 a 0 1k  ; load
        * another comment
        C1 a 0 1p
        """)
        assert circuit.title == "my amplifier"
        assert len(circuit) == 2

    def test_continuation_lines(self):
        circuit = parse_netlist("""
        G1 out 0
        + in 0
        + 5m
        R1 out 0 1k
        Rin in 0 1k
        """)
        assert circuit["G1"].gm == pytest.approx(5e-3)

    def test_end_card_stops_parsing(self):
        circuit = parse_netlist("R1 a 0 1k\n.end\nR2 b 0 1k")
        assert "R1" in circuit
        assert "R2" not in circuit

    def test_ground_aliases(self):
        circuit = parse_netlist("R1 a GND 1k\nR2 a 0 2k")
        assert circuit["R1"].node_neg == "0"


class TestErrors:
    def test_unknown_element_letter(self):
        with pytest.raises(ParseError):
            parse_netlist("Z1 a b 1k")

    def test_missing_fields(self):
        with pytest.raises(ParseError) as excinfo:
            parse_netlist("R1 a 1k")
        assert excinfo.value.line_number is not None

    def test_continuation_without_previous_line(self):
        with pytest.raises(ParseError):
            parse_netlist("+ R1 a b 1k")

    def test_unknown_model(self):
        with pytest.raises(ParseError):
            parse_netlist("M1 d g s 0 nodef")

    def test_unterminated_subckt(self):
        with pytest.raises(ParseError):
            parse_netlist(".subckt foo a b\nR1 a b 1k")

    def test_unknown_subckt_instance(self):
        with pytest.raises(ParseError):
            parse_netlist("X1 a b missing")

    def test_bad_value(self):
        with pytest.raises(ParseError):
            parse_netlist("R1 a b notanumber")


class TestDevices:
    def test_mosfet_expansion_from_model(self):
        circuit = parse_netlist("""
        .model nch nmos (gm=1m gds=20u cgs=50f cgd=5f cdb=10f)
        Vin in 0 ac 1
        M1 out in 0 0 nch
        RL out 0 100k
        """)
        assert "M1.gm" in circuit
        assert isinstance(circuit["M1.gm"], VCCS)
        assert circuit["M1.gm"].gm == pytest.approx(1e-3)
        assert isinstance(circuit["M1.gds"], Conductor)
        assert circuit["M1.cgs"].value == pytest.approx(50e-15)
        # Zero-valued parameters are not instantiated.
        assert "M1.gmb" not in circuit
        assert "M1.cgb" not in circuit

    def test_mosfet_instance_params_override_model(self):
        circuit = parse_netlist("""
        .model nch nmos (gm=1m gds=20u cgs=50f cgd=5f)
        M1 d g 0 0 nch gm=2m
        Rg g 0 1k
        Rd d 0 10k
        """)
        assert circuit["M1.gm"].gm == pytest.approx(2e-3)

    def test_mosfet_operating_point_model(self):
        circuit = parse_netlist("""
        .model nch nmos (id=100u vov=0.2 lambda=0.1 cgs=20f cgd=2f)
        M1 d g 0 0 nch
        Rg g 0 1k
        Rd d 0 10k
        """)
        assert circuit["M1.gm"].gm == pytest.approx(2 * 100e-6 / 0.2)
        assert circuit["M1.gds"].value == pytest.approx(0.1 * 100e-6)

    def test_bjt_expansion(self):
        circuit = parse_netlist("""
        .model qn npn (beta=100 va=50 tf=0.3n cje=1p cmu=0.5p rb=100 ccs=2p)
        Q1 c b 0 qn ic=1m
        Rb b 0 10k
        Rc c 0 5k
        """)
        gm = 1e-3 / 0.02585
        assert circuit["Q1.gm"].gm == pytest.approx(gm, rel=1e-6)
        assert circuit["Q1.gpi"].value == pytest.approx(gm / 100, rel=1e-6)
        assert circuit["Q1.go"].value == pytest.approx(1e-3 / 50, rel=1e-6)
        # Base resistance creates the internal node Q1.b
        assert "Q1.gb" in circuit
        assert "Q1.b" in circuit.nodes
        assert circuit["Q1.ccs"].value == pytest.approx(2e-12)

    def test_diode_expansion(self):
        circuit = parse_netlist("""
        .model dd d (id=1m cj=2p)
        D1 a 0 dd
        Ra a 0 1k
        """)
        assert circuit["D1.gd"].value == pytest.approx(1e-3 / 0.02585, rel=1e-6)
        assert circuit["D1.cd"].value == pytest.approx(2e-12)


class TestSubcircuits:
    NETLIST = """
    .subckt divider top bottom
    R1 top mid 1k
    R2 mid bottom 1k
    C1 mid bottom 1p
    .ends
    Vin in 0 ac 1
    X1 in 0 divider
    X2 in out divider
    RL out 0 10k
    """

    def test_flattening_names_and_nodes(self):
        circuit = parse_netlist(self.NETLIST)
        assert "X1.R1" in circuit
        assert "X2.R2" in circuit
        # Internal node gets the instance prefix, ports map to actual nodes.
        assert circuit["X1.R1"].node_pos == "in"
        assert circuit["X1.R1"].node_neg == "X1.mid"
        assert circuit["X2.R2"].node_neg == "out"
        assert circuit["X1.R2"].node_neg == "0"

    def test_port_count_mismatch(self):
        with pytest.raises(ParseError):
            parse_netlist("""
            .subckt divider a b
            R1 a b 1k
            .ends
            X1 in divider
            """)

    def test_flattened_element_count(self):
        circuit = parse_netlist(self.NETLIST)
        # 2 instances x 3 elements + Vin + RL
        assert len(circuit) == 8
