"""Gate, layer, and circuit model with two depth cost models.

Gates are multi-controlled X (bit flip, kind ``mcx``) and signed
multi-controlled Z (sign flip, kind ``mcz``) with polarized controls:
every control carries the bit value it requires.  Sites are 1-based in
[1, n].  A layer groups gates with pairwise disjoint site support; a
circuit is an ordered list of layers plus generator metadata.

Cost accounting offers a unit model (one time step per layer) and a
decomposed model where a gate conditioned on m sites costs the classic
ancilla-ladder expansion of 2m-3 CCX gates (m-2 virtual ancillas, never
materialized: basis-state simulation does not need the decomposition).
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Iterator

MCX = "mcx"
SIGNED_MCZ = "mcz"

UNIT = "unit"
DECOMPOSED = "decomposed"


@dataclass(slots=True)
class ControlTerm:
    """A control site and the bit value it requires.

    Treated as immutable by convention; gates share term tuples freely.
    """

    position: int
    required_value: int

    def __post_init__(self):
        if self.position < 1:
            raise ValueError("control positions are 1-based")
        if self.required_value not in (0, 1):
            raise ValueError("required_value must be 0 or 1")


@dataclass(slots=True)
class Gate:
    """A single multi-controlled gate.

    For ``mcx`` the target bit is flipped when every control matches.
    For ``mcz`` the state's sign is flipped when every control matches
    and the target site holds ``target_value``; the target condition
    behaves like one more control on a virtual sign bit, which is how it
    is counted in the CCX cost model.
    """

    kind: str
    controls: tuple[ControlTerm, ...]
    target: int
    target_value: int | None = None

    def __post_init__(self):
        if self.kind not in (MCX, SIGNED_MCZ):
            raise ValueError(f"unknown gate kind {self.kind!r}")
        if self.target < 1:
            raise ValueError("target positions are 1-based")
        # allocation-free scan; generators emit controls sorted by
        # position, so the strictly-ascending fast path almost always wins
        prev = 0
        ascending = True
        for c in self.controls:
            if c.position == self.target:
                raise ValueError("target must not coincide with a control")
            if c.position <= prev:
                ascending = False
            prev = c.position
        if not ascending:
            positions = [c.position for c in self.controls]
            if len(set(positions)) != len(positions):
                raise ValueError("control positions must be distinct")
        if self.kind == SIGNED_MCZ:
            if self.target_value not in (0, 1):
                raise ValueError("mcz gates need target_value in {0, 1}")
        elif self.target_value is not None:
            raise ValueError("mcx gates take no target_value")

    @property
    def support(self) -> frozenset[int]:
        return frozenset(c.position for c in self.controls) | {self.target}

    @property
    def condition_size(self) -> int:
        """Number of sites that must match for the gate to act.

        The mcz target-value condition counts: the gate is equivalent to
        an MCX with one more control targeting the sign bit.
        """
        return len(self.controls) + (1 if self.kind == SIGNED_MCZ else 0)


def ccx_ladder_count(condition_size: int) -> int:
    """CCX-equivalents of a gate conditioned on the given number of sites.

    Gates with at most 2 conditions are already CCX-class and cost 1; an
    m-condition gate expands to 2m-3 CCX via the ancilla ladder.
    """
    return max(1, 2 * condition_size - 3)


class Layer:
    """Gates with pairwise disjoint site support, applicable in parallel.

    Generators that construct layers disjoint by design may pass
    ``check=False``; ``validate`` still re-verifies everything on demand.
    """

    __slots__ = ("gates",)

    def __init__(self, gates: Iterable[Gate] = (), *, check: bool = True):
        self.gates: tuple[Gate, ...] = tuple(gates)
        if check:
            seen: set[int] = set()
            for g in self.gates:
                sup = g.support
                if seen & sup:
                    raise ValueError("gates within a layer must have disjoint support")
                seen |= sup

    def __len__(self) -> int:
        return len(self.gates)

    def __iter__(self) -> Iterator[Gate]:
        return iter(self.gates)

    def __eq__(self, other) -> bool:
        return isinstance(other, Layer) and self.gates == other.gates

    def __repr__(self) -> str:
        return f"Layer({len(self.gates)} gates)"


@dataclass(frozen=True)
class Circuit:
    """Immutable circuit: system size, ordered layers, generator metadata.

    Empty layers are legal and represent scheduling slots whose gate was
    not emitted (e.g. a mask bit came up 0); both cost models charge them
    one time step, which keeps layer counts seed-independent.
    """

    n: int
    layers: tuple[Layer, ...]
    generator: str = "manual"
    params: dict = field(default_factory=dict)
    seed: int = 0
    extra: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be positive")

    def gates(self) -> Iterator[Gate]:
        for layer in self.layers:
            yield from layer

    @cached_property
    def gate_count(self) -> int:
        return sum(len(layer.gates) for layer in self.layers)


def depth(c: Circuit, model: str = UNIT) -> int:
    """Circuit depth under the unit or decomposed cost model."""
    if model == UNIT:
        return len(c.layers)
    if model == DECOMPOSED:
        # an empty layer still costs one time step
        return sum(
            max((ccx_ladder_count(g.condition_size) for g in layer.gates), default=1)
            for layer in c.layers
        )
    raise ValueError(f"unknown depth model {model!r}")


def ccx_equivalent_count(c: Circuit) -> int:
    """Total CCX-equivalents over all gates (additive over concatenation)."""
    return sum(ccx_ladder_count(g.condition_size) for g in c.gates())


def validate(c: Circuit) -> list[str]:
    """Diagnostics for malformed circuits; empty list means ok.

    Reports out-of-range sites, duplicate control positions, targets
    colliding with controls, and overlapping supports within a layer.
    Gate construction already rejects most of these, so this mainly
    guards circuits loaded from files or built with ``check=False``.
    """
    problems: list[str] = []
    for li, layer in enumerate(c.layers):
        seen: set[int] = set()
        for gi, g in enumerate(layer):
            where = f"layer {li} gate {gi}"
            positions = [t.position for t in g.controls]
            for pos in positions + [g.target]:
                if not 1 <= pos <= c.n:
                    problems.append(f"{where}: site {pos} outside [1, {c.n}]")
            if len(set(positions)) != len(positions):
                problems.append(f"{where}: duplicate control positions")
            if g.target in positions:
                problems.append(f"{where}: target {g.target} is also a control")
            overlap = seen & g.support
            if overlap:
                problems.append(f"{where}: support overlaps earlier gate at sites {sorted(overlap)}")
            seen |= g.support
    return problems


# --- JSON circuit files -------------------------------------------------
#
# {"n":..., "seed":..., "generator":..., "params":{...},
#  "layers":[[{"kind":"mcx","controls":[{"pos":...,"val":...}],"target":...},
#             {"kind":"mcz","controls":[...],"target":...,"target_val":...}], ...],
#  "tool":{...}, "metadata":{...}}


def _gate_to_obj(g: Gate) -> dict:
    obj = {
        "kind": g.kind,
        "controls": [{"pos": t.position, "val": t.required_value} for t in g.controls],
        "target": g.target,
    }
    if g.kind == SIGNED_MCZ:
        obj["target_val"] = g.target_value
    return obj


def int_value(obj: dict, key: str, default: int | None = None) -> int:
    """``obj[key]``, or ``default`` when the key is absent, as an int.  A
    value that no int holds, such as a JSON 1e400 (infinity), 2.7 or a
    word, raises ValueError naming the key; 3.0 reads as 3."""
    value = obj[key] if default is None or key in obj else default
    try:
        if isinstance(value, float) and not value.is_integer():
            raise ValueError
        return int(value)
    except (TypeError, ValueError, OverflowError):
        raise ValueError(f"{key} must be an integer, got {value!r}") from None


def _gate_from_obj(obj: dict) -> Gate:
    controls = tuple(ControlTerm(int_value(t, "pos"), int_value(t, "val")) for t in obj["controls"])
    kind = obj["kind"]
    target_value = int_value(obj, "target_val") if kind == SIGNED_MCZ else None
    return Gate(kind=kind, controls=controls, target=int_value(obj, "target"), target_value=target_value)


def circuit_to_obj(c: Circuit, tool_info: dict | None = None) -> dict:
    obj = {
        "n": c.n,
        "seed": c.seed,
        "generator": c.generator,
        "params": c.params,
        "layers": [[_gate_to_obj(g) for g in layer] for layer in c.layers],
        "metadata": c.extra,
    }
    if tool_info is not None:
        obj["tool"] = tool_info
    return obj


def circuit_from_obj(obj: dict) -> Circuit:
    """Circuit from its JSON object; malformed input raises ValueError
    naming the layer, gate and key at fault."""
    try:
        n, layer_objs = int_value(obj, "n"), obj["layers"]
    except KeyError as e:
        raise ValueError(f"circuit is missing key {e.args[0]!r}") from None
    except TypeError:
        raise ValueError("circuit must be a JSON object") from None
    if not isinstance(layer_objs, list):
        raise ValueError("circuit layers must be a list")
    layers = []
    for li, layer in enumerate(layer_objs):
        if not isinstance(layer, list):
            raise ValueError(f"layer {li} is not a list of gates")
        gates = []
        for gi, g in enumerate(layer):
            try:
                gates.append(_gate_from_obj(g))
            except KeyError as e:
                raise ValueError(f"layer {li} gate {gi}: missing key {e.args[0]!r}") from None
            except (TypeError, ValueError) as e:
                raise ValueError(f"layer {li} gate {gi}: {e}") from None
        layers.append(Layer(gates, check=False))
    params, extra = obj.get("params", {}), obj.get("metadata", {})
    for key, value in (("params", params), ("metadata", extra)):
        if not isinstance(value, dict):
            raise ValueError(f"circuit {key} must be a JSON object")
    return Circuit(
        n=n,
        layers=tuple(layers),
        generator=obj.get("generator", "unknown"),
        params=params,
        seed=int_value(obj, "seed", 0),
        extra=extra,
    )


def dumps_canonical(obj: dict) -> str:
    """Canonical JSON: sorted keys, no whitespace, trailing newline.

    Byte-identical output for identical inputs is what makes fixed-seed
    artifact reproducibility checkable with a plain file compare.
    """
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def write_text_atomic(path: str, text: str) -> None:
    """Write text via a temp file + rename in the target dir."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_json_atomic(path: str, obj: dict) -> None:
    """Write canonical JSON atomically."""
    write_text_atomic(path, dumps_canonical(obj))


def save_circuit(path: str, c: Circuit, tool_info: dict | None = None) -> None:
    write_json_atomic(path, circuit_to_obj(c, tool_info))


def load_circuit(path: str) -> Circuit:
    with open(path) as fh:
        return circuit_from_obj(json.load(fh))
