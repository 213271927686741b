import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subsetphase.circuit import (
    DECOMPOSED,
    MCX,
    SIGNED_MCZ,
    UNIT,
    Circuit,
    ControlTerm,
    Gate,
    Layer,
    ccx_equivalent_count,
    ccx_ladder_count,
    circuit_from_obj,
    circuit_to_obj,
    depth,
    dumps_canonical,
    load_circuit,
    save_circuit,
    validate,
)


def ccx(c1, c2, target, v1=1, v2=1):
    return Gate(MCX, (ControlTerm(c1, v1), ControlTerm(c2, v2)), target)


def mcx(controls, target):
    return Gate(MCX, tuple(ControlTerm(p, 1) for p in controls), target)


class TestGateConstruction:
    def test_target_in_controls_rejected(self):
        with pytest.raises(ValueError):
            Gate(MCX, (ControlTerm(3, 1),), 3)

    def test_duplicate_controls_rejected(self):
        with pytest.raises(ValueError):
            Gate(MCX, (ControlTerm(2, 1), ControlTerm(2, 0)), 5)

    def test_mcz_needs_target_value(self):
        with pytest.raises(ValueError):
            Gate(SIGNED_MCZ, (ControlTerm(1, 1),), 2)

    def test_mcx_rejects_target_value(self):
        with pytest.raises(ValueError):
            Gate(MCX, (ControlTerm(1, 1),), 2, target_value=1)

    def test_condition_size_counts_mcz_target(self):
        g = Gate(SIGNED_MCZ, (ControlTerm(1, 1), ControlTerm(2, 0)), 3, target_value=1)
        assert g.condition_size == 3
        assert mcx([1, 2], 3).condition_size == 2


class TestLadderCosts:
    def test_ccx_class_costs_one(self):
        assert ccx_ladder_count(1) == 1
        assert ccx_ladder_count(2) == 1

    def test_five_controls(self):
        assert ccx_ladder_count(5) == 7  # 2*5-3

    def test_eight_controls(self):
        assert ccx_ladder_count(8) == 13


class TestDepth:
    def test_empty_circuit(self):
        c = Circuit(n=4, layers=())
        assert depth(c, UNIT) == 0
        assert depth(c, DECOMPOSED) == 0

    def test_parallel_ccx_layer(self):
        gates = [ccx(3 * i + 1, 3 * i + 2, 3 * i + 3) for i in range(5)]
        c = Circuit(n=15, layers=(Layer(gates),))
        assert depth(c, UNIT) == 1
        assert depth(c, DECOMPOSED) == 1

    def test_five_control_gate(self):
        c = Circuit(n=6, layers=(Layer([mcx([1, 2, 3, 4, 5], 6)]),))
        assert depth(c, DECOMPOSED) == 7

    def test_empty_layer_costs_one_in_both_models(self):
        c = Circuit(n=4, layers=(Layer(()), Layer([ccx(1, 2, 3)])))
        assert depth(c, UNIT) == 2
        assert depth(c, DECOMPOSED) == 2

    def test_unknown_model_rejected(self):
        with pytest.raises(ValueError):
            depth(Circuit(n=2, layers=()), "bogus")


class TestCcxEquivalents:
    def test_ten_ccx(self):
        layers = tuple(Layer([ccx(1, 2, 3)]) for _ in range(10))
        assert ccx_equivalent_count(Circuit(n=3, layers=layers)) == 10

    def test_eight_control_gate(self):
        c = Circuit(n=9, layers=(Layer([mcx(list(range(1, 9)), 9)]),))
        assert ccx_equivalent_count(c) == 13

    def test_empty(self):
        assert ccx_equivalent_count(Circuit(n=2, layers=())) == 0

    def test_additive_over_concatenation(self):
        a = Circuit(n=9, layers=(Layer([mcx([1, 2, 3], 4)]),))
        b = Circuit(n=9, layers=(Layer([mcx(list(range(1, 9)), 9)]), Layer([ccx(1, 2, 3)])))
        joined = Circuit(n=9, layers=a.layers + b.layers)
        assert ccx_equivalent_count(joined) == ccx_equivalent_count(a) + ccx_equivalent_count(b)


class TestValidate:
    def test_overlapping_support_in_layer(self):
        # shared control site between two gates of one layer
        layer = Layer([ccx(1, 2, 3), ccx(1, 4, 5)], check=False)
        problems = validate(Circuit(n=5, layers=(layer,)))
        assert any("overlaps" in p for p in problems)

    def test_layer_constructor_rejects_overlap(self):
        with pytest.raises(ValueError):
            Layer([ccx(1, 2, 3), ccx(3, 4, 5)])

    def test_out_of_range_site(self):
        problems = validate(Circuit(n=4, layers=(Layer([ccx(1, 2, 5)], check=False),)))
        assert any("outside" in p for p in problems)

    def test_target_equal_control_reported(self):
        g = ccx(1, 2, 3)
        g.target = 2  # corrupt a structurally valid gate
        problems = validate(Circuit(n=4, layers=(Layer([g], check=False),)))
        assert any("also a control" in p for p in problems)

    def test_duplicate_controls_reported(self):
        g = ccx(1, 2, 3)
        g.controls = (ControlTerm(1, 1), ControlTerm(1, 0))
        problems = validate(Circuit(n=4, layers=(Layer([g], check=False),)))
        assert any("duplicate" in p for p in problems)

    def test_clean_circuit(self):
        c = Circuit(n=6, layers=(Layer([ccx(1, 2, 3), ccx(4, 5, 6)]),))
        assert validate(c) == []


def random_circuit(rng, n, n_layers, allow_mcz=True):
    layers = []
    for _ in range(n_layers):
        taken: set[int] = set()
        gates = []
        for _ in range(int(rng.integers(0, 4))):
            avail = [s for s in range(1, n + 1) if s not in taken]
            size = int(rng.integers(2, min(4, len(avail)) + 1)) if len(avail) >= 2 else 0
            if size < 2:
                break
            sites = [int(s) for s in rng.choice(avail, size=size, replace=False)]
            vals = [int(v) for v in rng.integers(0, 2, size=size)]
            kind = SIGNED_MCZ if allow_mcz and rng.integers(0, 2) else MCX
            controls = tuple(ControlTerm(s, v) for s, v in zip(sites[:-1], vals[:-1]))
            if kind == SIGNED_MCZ:
                gates.append(Gate(kind, controls, sites[-1], target_value=vals[-1]))
            else:
                gates.append(Gate(kind, controls, sites[-1]))
            taken.update(sites)
        layers.append(Layer(gates))
    return Circuit(n=n, layers=tuple(layers), generator="test", params={"n": n}, seed=0)


class TestJsonRoundTrip:
    def test_roundtrip_identity(self):
        from subsetphase.rng import stream

        rng = stream(4, "roundtrip")
        for trial in range(20):
            c = random_circuit(rng, 10, 6)
            obj = circuit_to_obj(c)
            again = circuit_to_obj(circuit_from_obj(obj))
            assert dumps_canonical(obj) == dumps_canonical(again)

    def test_canonical_bytes_stable(self):
        c = Circuit(
            n=3,
            layers=(Layer([ccx(1, 2, 3)]),),
            generator="manual",
            params={"b": 1, "a": 2},
            seed=9,
        )
        one = dumps_canonical(circuit_to_obj(c))
        two = dumps_canonical(circuit_to_obj(c))
        assert one == two
        assert json.loads(one)["seed"] == 9

    def test_file_io(self, tmp_path):
        c = Circuit(n=4, layers=(Layer([ccx(1, 2, 4)]), Layer(())), seed=3)
        path = tmp_path / "c.json"
        save_circuit(str(path), c, {"name": "subsetphase"})
        loaded = load_circuit(str(path))
        assert loaded.n == 4
        assert loaded.seed == 3
        assert len(loaded.layers) == 2
        assert loaded.layers[0].gates[0].target == 4

    def test_mcz_roundtrip(self):
        g = Gate(SIGNED_MCZ, (ControlTerm(1, 0),), 3, target_value=1)
        c = Circuit(n=3, layers=(Layer([g]),))
        back = circuit_from_obj(circuit_to_obj(c))
        got = back.layers[0].gates[0]
        assert got.kind == SIGNED_MCZ
        assert got.target_value == 1


class TestMalformedJson:
    def gate_obj(self):
        return circuit_to_obj(Circuit(n=4, layers=(Layer(()), Layer([ccx(1, 2, 4)]))))

    def test_missing_gate_key_names_layer_gate_and_key(self):
        obj = self.gate_obj()
        del obj["layers"][1][0]["controls"]
        with pytest.raises(ValueError, match="layer 1 gate 0: missing key 'controls'"):
            circuit_from_obj(obj)

    def test_missing_circuit_key(self):
        obj = self.gate_obj()
        del obj["n"]
        with pytest.raises(ValueError, match="missing key 'n'"):
            circuit_from_obj(obj)

    @pytest.mark.parametrize(
        "obj",
        [
            [1, 2],
            {"n": 4, "layers": 3},
            {"n": 4, "layers": [5]},
            {"n": 4, "layers": [[["not", "a", "gate"]]]},
            {"n": 4, "layers": [[{"kind": "mcx", "controls": [{"pos": "x", "val": 1}], "target": 2}]]},
            {"n": 4, "layers": [[{"kind": "cnot", "controls": [], "target": 2}]]},
        ],
    )
    def test_wrong_types_raise_value_error(self, obj):
        with pytest.raises(ValueError):
            circuit_from_obj(obj)

    @pytest.mark.parametrize("key", ["n", "pos", "val", "target"])
    def test_non_integral_number_names_its_key(self, key):
        obj = self.gate_obj()
        gate = obj["layers"][1][0]
        where = {"n": obj, "pos": gate["controls"][0], "val": gate["controls"][0], "target": gate}[key]
        integral = where[key]
        where[key] = integral + 0.5
        with pytest.raises(ValueError, match=f"{key} must be an integer, got {integral + 0.5}"):
            circuit_from_obj(obj)
        # an integral float reads as its int
        where[key] = float(integral)
        assert circuit_from_obj(obj) == circuit_from_obj(self.gate_obj())


class TestDepthModelInvariant:
    def test_decomposed_at_least_unit(self):
        from subsetphase.rng import stream

        rng = stream(77, "depth-inv")
        for trial in range(30):
            c = random_circuit(rng, 12, int(rng.integers(0, 8)))
            assert depth(c, DECOMPOSED) >= depth(c, UNIT)

    @given(st.integers(1, 12))
    @settings(max_examples=20, deadline=None)
    def test_single_gate_costs(self, m):
        g = Gate(MCX, tuple(ControlTerm(i, 1) for i in range(1, m + 1)), m + 1)
        c = Circuit(n=m + 1, layers=(Layer([g]),))
        assert depth(c, DECOMPOSED) == max(1, 2 * m - 3)
        assert ccx_equivalent_count(c) == max(1, 2 * m - 3)
