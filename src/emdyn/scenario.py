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

from . import circuit as _circuit
from .bounds import check_margin
from .errors import NotHermitian, ParseError, ValidationError
from .liouville import DissipativeCoupling
from .opcore import check_density, is_hermitian, tensor

__all__ = ["Scenario", "VALID_TASKS", "parse_scenario", "load_scenario",
           "emit_scenario", "parse_operator", "parse_state",
           "MAX_PAULI_FACTORS"]

VALID_TASKS = ("simulate", "equivalence", "controllability", "bounds",
               "circuit-validate", "tones")

_PAULI = {
    "id": np.eye(2, dtype=complex),
    "sx": np.array([[0, 1], [1, 0]], dtype=complex),
    "sy": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "sz": np.array([[1, 0], [0, -1]], dtype=complex),
}

#: Most ``⊗`` factors in one Pauli-string term (a 2ⁿ-wide matrix for n):
#: the cheapest task route, ``simulate``'s closed form, took 12 s at D = 2048
#: (11 factors beside a one-level partner) on a 2-core host, and each further
#: factor multiplies its time by about 8 and its memory by 4.
MAX_PAULI_FACTORS = 11

# libyaml's safe loader builds the same documents several times faster
_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


class _Dumper(yaml.SafeDumper):
    """PyYAML writes NEL (U+0085) raw into plain and single-quoted scalars,
    where loading folds it into a space; strings holding it go double-quoted,
    where it is escaped."""


_Dumper.add_representer(str, lambda dumper, s: dumper.represent_scalar(
    "tag:yaml.org,2002:str", s, style='"' if "\x85" in s else None))

_SECTIONS = ("system", "coupling", "sweep", "initial", "output", "circuit",
             "tones")
_TOP_LEVEL_KEYS = {"name", "task", "seed", "margin", *_SECTIONS}


@dataclass
class Scenario:
    """Parsed and validated scenario document.

    Sections are kept as the raw mapping values so that
    ``parse_scenario(emit_scenario(s)) == s``.  :func:`parse_scenario` also
    checks and converts each field of ``system``, ``coupling``, ``sweep``,
    ``output``, ``circuit`` and ``tones`` once, with its default filled in;
    :meth:`value`, :meth:`operator` and the builders read those typed values.
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
    _typed: dict = field(default_factory=dict, compare=False, repr=False)

    def value(self, key: str):
        """The typed field ``key`` (``"sweep.t"``, ``"system.controls"``...),
        or with a bare section name (``"coupling"``) all of its fields."""
        section, _, name = key.partition(".")
        if section not in self._typed:
            raise ValidationError(f"scenario has no {section} section")
        return self._typed[section][name] if name else self._typed[section]

    def operator(self, name: str) -> np.ndarray:
        ops = self.value("system.operators")
        if name not in ops:
            raise ValidationError(f"scenario declares no operator {name!r}")
        return ops[name].copy()

    def build_coupling(self) -> DissipativeCoupling:
        return DissipativeCoupling(**self.value("coupling"),
                                   A=self.operator("A"), B=self.operator("B"))

    def circuit_params(self) -> tuple[_circuit.CircuitParams, float]:
        """The ``circuit`` section's parameters and its phase ``phi``."""
        v = dict(self.value("circuit"))
        mode = _circuit.BosonicMode(*v.pop("mode"))
        phi = v.pop("phi")
        return _circuit.CircuitParams(**v, mode=mode), phi

    def tone_plan(self) -> _circuit.ToneSet:
        """The pump-tone plan that the ``tones`` section asks for."""
        v = self.value("tones")
        if v["plan"] == "coherent":
            return _circuit.plan_coherent_tones(v["Omega"], v["phi_y"])
        return _circuit.plan_dissipative_tones(
            v["Omega"], v["omega_z"], v["phi_x1"], v["phi_y"],
            collisions=v["collisions"])

    def initial_state(self, key: str, dim: int) -> np.ndarray:
        """The state ``initial.key`` (default ``"0"``); ``psi0``, the start
        of a gate, must be pure: ``tr rho² >= 1 − 1e-9``."""
        spec = (self.initial or {}).get(key, "0")
        rho = parse_state(spec, dim, f"initial.{key}")
        purity = np.vdot(rho, rho).real
        if key == "psi0" and purity < 1 - 1e-9:
            raise ValidationError(f"initial.psi0 must be a pure state, got "
                                  f"purity {purity:.6g}")
        return rho


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
        if len(factors) > MAX_PAULI_FACTORS:    # before any product is formed
            raise ParseError(f"a term has {len(factors)} tensor factors; at "
                             f"most {MAX_PAULI_FACTORS} are supported",
                             field=where)
        mats = []
        for f in factors:
            key = f.lower()
            if key not in _PAULI:
                raise ParseError(
                    f"unknown operator token {f!r} (expected one of "
                    f"{sorted(_PAULI)})", field=where)
            mats.append(_PAULI[key])
        term_mat = coeff * tensor(mats)
        if result is None:
            result = term_mat
        elif result.shape != term_mat.shape:
            raise ParseError("terms act on different numbers of qubits",
                             field=where)
        else:
            result = result + term_mat
    return result


def parse_operator(spec, where: str) -> np.ndarray:
    """Resolve an operator spec (Pauli string or nested list) to a Hermitian
    matrix, by the rule of :func:`opcore.is_hermitian`."""
    # a non-finite coefficient, or a term or sum that overflows, is reported
    # below as a ParseError instead of a RuntimeWarning
    with np.errstate(over="ignore", invalid="ignore"):
        if isinstance(spec, str):
            mat = _parse_pauli_string(spec, where)
        elif isinstance(spec, list):
            mat = _parse_dense(spec, where)
        else:
            raise ParseError(f"operator spec must be a string or matrix, got "
                             f"{type(spec).__name__}", field=where)
        if not np.isfinite(mat).all():
            raise ParseError(f"operator {where} has non-finite entries",
                             field=where)
        if not is_hermitian(mat):
            raise NotHermitian(f"operator {where} is not Hermitian")
    return mat


def parse_state(spec, dim: int, where: str) -> np.ndarray:
    """Resolve a state spec to a density matrix on ``dim`` levels.

    Accepts a basis index string (``"0"``, ``"1"``, ...), ``"+"``/``"-"``
    for the qubit superpositions, a flat list (ket), or a nested list
    (density matrix, checked by :func:`opcore.check_density`).
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
        dense = bool(spec) and isinstance(spec[0], list)
        arr = (_parse_dense(spec, where) if dense else np.array(
            [_parse_entry(v, where) for v in spec], dtype=complex))
        if not np.isfinite(arr).all():
            raise ValidationError(f"{where} must be finite, got {spec!r}")
        if arr.shape[0] != dim:
            raise ValidationError(f"state {where} has dimension "
                                  f"{arr.shape[0]}, expected {dim}")
        if dense:
            return check_density(arr, where)
        # scaled by the largest real or imaginary part (as reals: a complex
        # division overflows on subnormals), so the norm cannot overflow
        parts = arr.view(float)
        scale = np.abs(parts).max()
        if scale == 0:
            raise ValidationError(f"state {where} is the zero vector")
        ket = (parts / scale).view(complex)
        ket /= np.linalg.norm(ket)
        return np.outer(ket, ket.conj())
    raise ParseError(f"state spec must be a label or list, got "
                     f"{type(spec).__name__}", field=where)


# --------------------------------------------------------------------------
# document parsing
# --------------------------------------------------------------------------

_KINDS = {dict: "a mapping", list: "a list", str: "a string"}


def _optional(sec: dict, key: str, kind: type, where: str = ""):
    """``sec[key]``, which must be a ``kind`` unless absent or null;
    ``where`` prefixes the field name in the message."""
    val = sec.get(key)
    if val is not None and not isinstance(val, kind):
        raise ParseError(f"{where}{key} must be {_KINDS[kind]}, got "
                         f"{type(val).__name__}", field=where + key)
    return val


def _number(value, where: str) -> float:
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ParseError(f"{where} must be a number, got {value!r}", field=where)
    x = float(value)
    if not np.isfinite(x):
        raise ValidationError(f"{where} must be finite, got {x}")
    return x


def _numbers(values, where: str, length: int | None = None) -> tuple:
    if not isinstance(values, list) or (length is not None
                                        and len(values) != length):
        size = "" if length is None else f"{length} "
        raise ParseError(f"{where} must be a list of {size}numbers, got "
                         f"{values!r}", field=where)
    return tuple(_number(v, f"{where}[{i}]") for i, v in enumerate(values))


def _known(sec: dict, keys, where: str) -> dict:
    """``sec``, which may hold no key outside ``keys``."""
    for key in sec:
        if key not in keys:
            raise ParseError(f"unknown key {where}.{key}; valid keys: "
                             f"{', '.join(keys)}", field=f"{where}.{key}")
    return sec


def _field(sec: dict, key: str, where: str, default=None) -> float:
    """``sec[key]`` as a finite number; required when ``default`` is None."""
    if key in sec:
        return _number(sec[key], f"{where}.{key}")
    if default is None:
        raise ParseError(f"{where} requires {key!r}", field=f"{where}.{key}")
    return default


def _system_values(sec: dict) -> dict:
    """Typed ``system`` fields: the operator matrices by name, the control
    matrices (default none) and ``lambda_a`` (default 1)."""
    _known(sec, ("operators", "controls", "lambda_a"), "system")
    ops = _optional(sec, "operators", dict, "system.") or {}
    controls = _optional(sec, "controls", list, "system.") or []
    return {"operators": {name: parse_operator(spec, f"system.operators.{name}")
                          for name, spec in ops.items()},
            "controls": tuple(parse_operator(spec, f"system.controls[{i}]")
                              for i, spec in enumerate(controls)),
            "lambda_a": _field(sec, "lambda_a", "system", 1.0)}


def _coupling_values(sec: dict) -> dict:
    """Typed ``coupling`` rates: ``gamma`` > 0 is required, ``eta`` ≥ 0,
    ``phi`` and ``g`` default to 0."""
    _known(sec, ("gamma", "eta", "phi", "g"), "coupling")
    v = {"gamma": _field(sec, "gamma", "coupling")}
    v.update({key: _field(sec, key, "coupling", 0.0)
              for key in ("eta", "phi", "g")})
    if v["gamma"] <= 0:
        raise ValidationError(f"coupling.gamma must be positive, got "
                              f"{v['gamma']}")
    if v["eta"] < 0:
        raise ValidationError(f"coupling.eta must be nonnegative, got "
                              f"{v['eta']}")
    return v


def _sweep_values(sec: dict, gamma: float | None) -> dict:
    """Typed ``sweep`` lists: ``t`` ≥ 0 (default ``[1.0]``) and ``gamma`` > 0
    (default the coupling's ``gamma``; None without a coupling)."""
    _known(sec, ("t", "gamma"), "sweep")
    v = {"t": (1.0,), "gamma": None if gamma is None else (gamma,)}
    for key in ("t", "gamma"):
        if sec.get(key) is not None:
            v[key] = _numbers(sec[key], f"sweep.{key}")
            if not v[key]:
                raise ParseError(f"sweep.{key} must be a nonempty list",
                                 field=f"sweep.{key}")
    if min(v["t"]) < 0:
        raise ValidationError(f"sweep.t must be nonnegative, got {min(v['t'])}")
    if v["gamma"] is not None and min(v["gamma"]) <= 0:
        raise ValidationError(f"sweep.gamma must be positive, got "
                              f"{min(v['gamma'])}")
    return v


def _output_values(sec: dict) -> dict:
    """The typed ``output.path`` (default ``emdyn-out``), a string with no
    NUL, which no file system takes."""
    path = _optional(_known(sec, ("path",), "output"), "path", str, "output.")
    if path is not None and "\0" in path:
        raise ParseError("output.path must not hold a NUL character",
                         field="output.path")
    return {"path": "emdyn-out" if path is None else path}


_CIRCUIT_REQUIRED = ("E_J", "phi_ext", "lambda_1z", "lambda_2z", "lambda_3z")
_CIRCUIT_UNIT = ("phi0", "phi_z0", "alpha_x", "alpha_y")    # default 1


def _circuit_values(sec: dict) -> dict:
    """Typed values of a ``circuit`` section: finite numbers, three
    ``Omega``, and ``mode`` as ``(n_max, omega_z, gamma_z)`` with an integer
    ``n_max``.  Malformed fields raise :class:`ParseError` or
    :class:`ValidationError` naming the field."""
    _known(sec, (*_CIRCUIT_REQUIRED, *_CIRCUIT_UNIT, "Omega", "mode", "phi"),
           "circuit")
    mode = sec.get("mode")
    if not isinstance(mode, dict):
        raise ParseError("circuit requires a mode mapping",
                         field="circuit.mode")
    _known(mode, ("n_max", "omega_z", "gamma_z"), "circuit.mode")
    n_max = mode.get("n_max")
    if not isinstance(n_max, int) or isinstance(n_max, bool):
        raise ParseError(f"circuit.mode.n_max must be an integer, got "
                         f"{n_max!r}", field="circuit.mode.n_max")
    v = {key: _field(sec, key, "circuit") for key in _CIRCUIT_REQUIRED}
    v.update({key: _field(sec, key, "circuit", 1.0) for key in _CIRCUIT_UNIT})
    v["Omega"] = _numbers(sec.get("Omega"), "circuit.Omega", 3)
    v["mode"] = (n_max, _field(mode, "omega_z", "circuit.mode"),
                 _field(mode, "gamma_z", "circuit.mode"))
    v["phi"] = _field(sec, "phi", "circuit", np.pi / 2)
    return v


def _tone_values(sec: dict) -> dict:
    """Typed values of a ``tones`` section, checked like
    :func:`_circuit_values`; ``omega_z`` is required by the dissipative
    plan only."""
    _known(sec, ("plan", "Omega", "phi_y", "phi_x1", "collisions", "omega_z"),
           "tones")
    plan = sec.get("plan", "dissipative")
    if plan not in ("dissipative", "coherent"):
        raise ValidationError(f"unknown tones.plan {plan!r}; valid plans: "
                              "dissipative, coherent")
    v = {"plan": plan,
         "Omega": _numbers(sec.get("Omega"), "tones.Omega", 3),
         "phi_y": (_numbers(sec["phi_y"], "tones.phi_y", 3)
                   if "phi_y" in sec else (0.0, 0.0, 0.0)),
         "phi_x1": _field(sec, "phi_x1", "tones", 0.0),
         "collisions": (None if sec.get("collisions") is None else
                        _numbers(sec["collisions"], "tones.collisions"))}
    if plan == "dissipative" or "omega_z" in sec:
        v["omega_z"] = _field(sec, "omega_z", "tones")
    return v


def parse_scenario(text: str) -> Scenario:
    """Parse and validate a scenario document."""
    try:
        doc = yaml.load(text, Loader=_LOADER)
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
    if not isinstance(task, str):
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
        check_margin(_number(margin, "margin"))   # kept raw for round trips

    raw = {key: _optional(doc, key, dict) for key in _SECTIONS}
    _known(raw["initial"] or {}, ("rho1", "rho2", "psi0"), "initial")
    typed = {"system": _system_values(raw["system"] or {})}
    if raw["coupling"] is not None:
        typed["coupling"] = _coupling_values(raw["coupling"])
    typed["sweep"] = _sweep_values(raw["sweep"] or {},
                                   typed.get("coupling", {}).get("gamma"))
    typed["output"] = _output_values(raw["output"] or {})
    for key, reader in (("circuit", _circuit_values), ("tones", _tone_values)):
        if raw[key] is not None:
            typed[key] = reader(raw[key])
    return Scenario(name=name, task=task, seed=seed, margin=margin,
                    _typed=typed, **raw)


def load_scenario(path) -> Scenario:
    with open(path, encoding="utf-8") as fh:
        return parse_scenario(fh.read())


def emit_scenario(scenario: Scenario) -> str:
    """Serialize back to canonical YAML; inverse of :func:`parse_scenario`."""
    doc = {"name": scenario.name, "task": scenario.task,
           "seed": scenario.seed}
    for key in (*_SECTIONS, "margin"):
        val = getattr(scenario, key)
        if val is not None:
            doc[key] = val
    return yaml.dump(doc, Dumper=_Dumper, sort_keys=True,
                     default_flow_style=False, allow_unicode=True)
