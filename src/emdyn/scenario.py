"""Scenario files: a small YAML schema describing a system, a dissipative
coupling, an optional sweep, and one analysis task.

Operators are written either as Pauli-string expressions with coefficients
(``"sz"``, ``"0.5*sx⊗id + 0.5*id⊗sx"``) or as inline dense matrices (nested
lists; entries may be numbers or complex-number strings like ``"1+2j"``).
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import yaml

from .errors import NotHermitian, ParseError, ValidationError
from .liouville import DissipativeCoupling

__all__ = ["Scenario", "VALID_TASKS", "parse_scenario", "load_scenario",
           "emit_scenario", "parse_operator", "parse_state", "check_margin"]

VALID_TASKS = ("simulate", "equivalence", "controllability", "bounds",
               "circuit-validate", "tones")

_PAULI = {
    "id": np.eye(2, dtype=complex),
    "sx": np.array([[0, 1], [1, 0]], dtype=complex),
    "sy": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "sz": np.array([[1, 0], [0, -1]], dtype=complex),
}

_TOP_LEVEL_KEYS = {"name", "task", "seed", "system", "coupling", "sweep",
                   "initial", "output", "margin", "circuit", "tones"}


@dataclass
class Scenario:
    """Parsed and validated scenario document.

    Sections are kept as the raw (defaulted) mapping values so that
    ``parse_scenario(emit_scenario(s)) == s``; resolved operator matrices are
    available through :meth:`operator` and friends.
    """

    name: str
    task: str
    seed: int
    system: dict | None = None
    coupling: dict | None = None
    sweep: dict | None = None
    initial: dict | None = None
    output: dict | None = None
    margin: float | None = None
    circuit: dict | None = None
    tones: dict | None = None
    _ops: dict = field(default_factory=dict, compare=False, repr=False)

    def operator(self, name: str) -> np.ndarray:
        if name not in self._ops:
            raise ValidationError(f"scenario declares no operator {name!r}")
        return self._ops[name].copy()

    def control_operators(self) -> list[np.ndarray]:
        specs = (self.system or {}).get("controls", [])
        return [parse_operator(s, f"system.controls[{i}]", hermitian=True)
                for i, s in enumerate(specs)]

    def build_coupling(self) -> DissipativeCoupling:
        if self.coupling is None:
            raise ValidationError("scenario has no coupling section")
        c = self.coupling
        return DissipativeCoupling(
            A=self.operator("A"), B=self.operator("B"),
            gamma=float(c["gamma"]), eta=float(c.get("eta", 0.0)),
            phi=float(c.get("phi", 0.0)), g=float(c.get("g", 0.0)))

    def initial_state(self, key: str, dim: int) -> np.ndarray:
        spec = (self.initial or {}).get(key, "0")
        return parse_state(spec, dim, f"initial.{key}")

    def emit(self) -> str:
        return emit_scenario(self)


# --------------------------------------------------------------------------
# operator and state expressions
# --------------------------------------------------------------------------

def _parse_entry(value, where: str) -> complex:
    if isinstance(value, (int, float, complex)):
        return complex(value)
    if isinstance(value, str):
        try:
            return complex(value.replace(" ", ""))
        except ValueError:
            raise ParseError(f"bad matrix entry {value!r}", field=where) from None
    raise ParseError(f"bad matrix entry {value!r}", field=where)


def _parse_dense(rows, where: str) -> np.ndarray:
    mat = np.array([[_parse_entry(v, where) for v in row] for row in rows],
                   dtype=complex)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ParseError(f"dense operator must be square, got shape {mat.shape}",
                         field=where)
    return mat


def _split_terms(s: str, where: str) -> list[str]:
    """Split at ``+``/``-`` outside parentheses, keeping each sign with its
    term.  A sign right after ``e``/``E`` (exponent), ``*``, ``⊗`` or another
    sign is not a split."""
    pieces, depth, start = [], 0, 0
    for k, ch in enumerate(s):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif (ch in "+-" and depth == 0 and k > 0
              and s[k - 1] not in "eE*⊗+-"):
            pieces.append(s[start:k])
            start = k
        if depth < 0:
            break
    if depth != 0:
        raise ParseError(f"unbalanced parentheses in {s!r}", field=where)
    pieces.append(s[start:])
    return pieces


def _parse_pauli_string(text: str, where: str) -> np.ndarray:
    s = text.replace("−", "-").replace(" ", "")
    if not s:
        raise ParseError("empty operator expression", field=where)
    result = None
    for term in _split_terms(s, where):
        sign = -1.0 if term[0] == "-" else 1.0
        term = term[1:] if term[0] in "+-" else term
        coeff = sign
        if "*" in term:
            coeff_txt, _, term = term.partition("*")
            try:
                c = complex(coeff_txt)
            except ValueError:
                raise ParseError(f"bad coefficient {coeff_txt!r}",
                                 field=where) from None
            # a real coefficient stays a float, so real operators keep the
            # exact arithmetic (and signed zeros) of a float product
            coeff = sign * (c if c.imag else c.real)
        factors = term.split("⊗")
        mats = []
        for f in factors:
            key = f.lower()
            if key not in _PAULI:
                raise ParseError(
                    f"unknown operator token {f!r} (expected one of "
                    f"{sorted(_PAULI)})", field=where)
            mats.append(_PAULI[key])
        mat = mats[0]
        for m in mats[1:]:
            mat = np.kron(mat, m)
        term_mat = coeff * mat
        if result is None:
            result = term_mat
        elif result.shape != term_mat.shape:
            raise ParseError("terms act on different numbers of qubits",
                             field=where)
        else:
            result = result + term_mat
    return result


def parse_operator(spec, where: str, hermitian: bool = True) -> np.ndarray:
    """Resolve an operator spec (Pauli string or nested list) to a matrix."""
    if isinstance(spec, str):
        mat = _parse_pauli_string(spec, where)
    elif isinstance(spec, list):
        mat = _parse_dense(spec, where)
    else:
        raise ParseError(f"operator spec must be a string or matrix, got "
                         f"{type(spec).__name__}", field=where)
    if hermitian and not np.allclose(mat, mat.conj().T, atol=1e-12):
        raise NotHermitian(f"operator {where} is not Hermitian")
    return mat


def parse_state(spec, dim: int, where: str) -> np.ndarray:
    """Resolve a state spec to a density matrix on ``dim`` levels.

    Accepts a basis index string (``"0"``, ``"1"``, ...), ``"+"``/``"-"``
    for the qubit superpositions, a flat list (ket), or a nested list
    (density matrix).
    """
    if isinstance(spec, str):
        if spec in ("+", "-") and dim == 2:
            k = np.array([1.0, 1.0 if spec == "+" else -1.0],
                         dtype=complex) / np.sqrt(2)
            return np.outer(k, k.conj())
        try:
            idx = int(spec)
        except ValueError:
            raise ParseError(f"bad state label {spec!r}", field=where) from None
        if not 0 <= idx < dim:
            raise ValidationError(f"state index {idx} out of range for "
                                  f"dimension {dim}")
        rho = np.zeros((dim, dim), dtype=complex)
        rho[idx, idx] = 1.0
        return rho
    if isinstance(spec, list):
        if spec and isinstance(spec[0], list):
            rho = _parse_dense(spec, where)
            if rho.shape[0] != dim:
                raise ValidationError(f"state {where} has dimension "
                                      f"{rho.shape[0]}, expected {dim}")
            return rho
        ket = np.array([_parse_entry(v, where) for v in spec], dtype=complex)
        if ket.shape[0] != dim:
            raise ValidationError(f"state {where} has dimension "
                                  f"{ket.shape[0]}, expected {dim}")
        norm = np.linalg.norm(ket)
        if norm == 0:
            raise ValidationError(f"state {where} is the zero vector")
        ket = ket / norm
        return np.outer(ket, ket.conj())
    raise ParseError(f"state spec must be a label or list, got "
                     f"{type(spec).__name__}", field=where)


# --------------------------------------------------------------------------
# document parsing
# --------------------------------------------------------------------------

def _require_mapping(doc: dict, key: str):
    val = doc.get(key)
    if val is not None and not isinstance(val, dict):
        raise ParseError(f"section {key!r} must be a mapping", field=key)
    return val


def _number(value, where: str) -> float:
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ParseError(f"{where} must be a number, got {value!r}", field=where)
    return float(value)


def check_margin(margin: float) -> float:
    """The threshold margin must be a positive finite number."""
    if not (np.isfinite(margin) and margin > 0):
        raise ValidationError(
            f"margin must be positive and finite, got {margin}")
    return float(margin)


def parse_scenario(text: str) -> Scenario:
    """Parse and validate a scenario document."""
    try:
        doc = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        line = mark.line + 1 if mark is not None else None
        problem = getattr(exc, "problem", None) or str(exc)
        raise ParseError(f"invalid YAML: {problem}", line=line) from None
    if not isinstance(doc, dict):
        raise ParseError("scenario must be a mapping at top level")
    unknown = set(doc) - _TOP_LEVEL_KEYS
    if unknown:
        raise ParseError(f"unknown top-level keys: {sorted(unknown)}")

    task = doc.get("task")
    if task is None:
        raise ParseError("missing required key 'task'", field="task")
    if not isinstance(task, str) or isinstance(task, bool):
        raise ParseError("exactly one task must be given as a string",
                         field="task")
    if task not in VALID_TASKS:
        raise ParseError(
            f"unknown task {task!r}; valid tasks: {', '.join(VALID_TASKS)}",
            field="task")

    seed = doc.get("seed", 0)
    if not isinstance(seed, int) or isinstance(seed, bool):
        raise ParseError(f"seed must be an integer, got {seed!r}", field="seed")

    name = doc.get("name", "scenario")
    if not isinstance(name, str):
        raise ParseError("name must be a string", field="name")

    margin = doc.get("margin")
    if margin is not None:
        check_margin(_number(margin, "margin"))
        margin = doc["margin"]  # keep the raw value for round-tripping

    system = _require_mapping(doc, "system")
    coupling = _require_mapping(doc, "coupling")
    sweep = _require_mapping(doc, "sweep")
    initial = _require_mapping(doc, "initial")
    output = _require_mapping(doc, "output")
    circuit = _require_mapping(doc, "circuit")
    tones = _require_mapping(doc, "tones")

    ops: dict[str, np.ndarray] = {}
    if system is not None:
        for op_name, spec in (system.get("operators") or {}).items():
            ops[op_name] = parse_operator(spec, f"system.operators.{op_name}",
                                          hermitian=True)
        for i, spec in enumerate(system.get("controls") or []):
            parse_operator(spec, f"system.controls[{i}]", hermitian=True)

    if coupling is not None:
        gamma = coupling.get("gamma")
        if gamma is None:
            raise ParseError("coupling requires 'gamma'", field="coupling.gamma")
        gamma = _number(gamma, "coupling.gamma")
        if gamma <= 0:
            raise ValidationError(f"gamma must be positive, got {gamma}")
        for key in ("eta", "phi", "g"):
            if key in coupling:
                _number(coupling[key], f"coupling.{key}")
        if float(coupling.get("eta", 0.0)) < 0:
            raise ValidationError("eta must be nonnegative")

    if sweep is not None:
        for key in ("gamma", "t"):
            values = sweep.get(key)
            if values is None:
                continue
            if not isinstance(values, list) or not values:
                raise ParseError(f"sweep.{key} must be a nonempty list",
                                 field=f"sweep.{key}")
            for v in values:
                x = _number(v, f"sweep.{key}")
                if key == "gamma" and x <= 0:
                    raise ValidationError(f"sweep gamma must be positive, got {x}")
                if key == "t" and x < 0:
                    raise ValidationError(f"sweep t must be nonnegative, got {x}")

    return Scenario(name=name, task=task, seed=seed, system=system,
                    coupling=coupling, sweep=sweep, initial=initial,
                    output=output, margin=margin, circuit=circuit,
                    tones=tones, _ops=ops)


def load_scenario(path) -> Scenario:
    with open(path, encoding="utf-8") as fh:
        return parse_scenario(fh.read())


def emit_scenario(scenario: Scenario) -> str:
    """Serialize back to canonical YAML; inverse of :func:`parse_scenario`."""
    doc = {"name": scenario.name, "task": scenario.task,
           "seed": scenario.seed}
    for key in ("system", "coupling", "sweep", "initial", "output", "margin",
                "circuit", "tones"):
        val = getattr(scenario, key)
        if val is not None:
            doc[key] = val
    return yaml.safe_dump(doc, sort_keys=True, default_flow_style=False,
                          allow_unicode=True)
