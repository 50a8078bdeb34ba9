"""Experiment configuration: one JSON document per run.

Schema (all keys optional, defaults shown):

    {
      "problem": "lshape",            // lshape | square | smooth
      "algorithm": "regsolve",        // regsolve | baseline | plain
      "curve_segments": 16384,
      "initial_divisions": null,      // grid squares per unit length
      "output_dir": "out",
      "deterministic": false,
      "params": {
        "theta": 0.7, "theta_data": 0.7, "lambda": 0.3333333333333333,
        "mu": 0.5, "beta": 0.8, "tau0": 0.6, "j_max": 6,
        "single_shot": false, "kernel_family": "radial_c1",
        "extra_final_step": true
      }
    }

`parse -> serialize -> parse` is the identity on every field.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field, fields, replace

from .afem import ALGORITHMS, AfemParams, is_int
from .problems import DEFAULT_SEGMENTS, PROBLEM_NAMES

# JSON key -> AfemParams field; "lambda" is a Python keyword
_PARAM_KEYS = {"lambda" if f.name == "lam" else f.name: f.name
               for f in fields(AfemParams)}


@dataclass(frozen=True)
class ExperimentConfig:
    problem: str = "lshape"
    algorithm: str = "regsolve"
    curve_segments: int = DEFAULT_SEGMENTS
    initial_divisions: int | None = None
    output_dir: str = "out"
    deterministic: bool = False
    params: AfemParams = field(default_factory=AfemParams)

    def issues(self) -> list[str]:
        bad = []
        if self.problem not in PROBLEM_NAMES:
            bad.append(f"problem={self.problem!r} not one of {PROBLEM_NAMES}")
        if self.algorithm not in ALGORITHMS:
            bad.append(f"algorithm={self.algorithm!r} not one of {ALGORITHMS}")
        if self.problem == "smooth" and self.algorithm != "plain":
            bad.append("problem 'smooth' has no curve; use algorithm 'plain'")
        if self.problem != "smooth" and self.algorithm == "plain":
            bad.append(f"algorithm 'plain' only fits problem 'smooth', "
                       f"not {self.problem!r}")
        if not (is_int(self.curve_segments) and self.curve_segments >= 3):
            bad.append(f"curve_segments={self.curve_segments!r} must be an "
                       "integer >= 3")
        if self.initial_divisions is not None and not (
                is_int(self.initial_divisions) and self.initial_divisions >= 1):
            bad.append(f"initial_divisions={self.initial_divisions!r} must be "
                       "a positive integer or null")
        if not isinstance(self.output_dir, str) or not self.output_dir:
            bad.append("output_dir must be a non-empty string")
        if not isinstance(self.deterministic, bool):
            bad.append(f"deterministic={self.deterministic!r} not true or "
                       "false")
        bad.extend(self.params.issues())
        return bad

    def to_dict(self) -> dict:
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        out["params"] = {k: getattr(self.params, attr)
                         for k, attr in _PARAM_KEYS.items()}
        return out

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        if not isinstance(raw, dict):
            raise ValueError("config root must be a JSON object")
        unknown = set(raw) - {f.name for f in fields(cls)}
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        pdict = raw.get("params", {})
        if not isinstance(pdict, dict):
            raise ValueError("config key 'params' must be an object")
        unknown_p = set(pdict) - set(_PARAM_KEYS)
        if unknown_p:
            raise ValueError(f"unknown params keys: {sorted(unknown_p)}")
        params = AfemParams(**{_PARAM_KEYS[k]: v for k, v in pdict.items()})
        return cls(**{**raw, "params": params})

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "ExperimentConfig":
        try:
            raw = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValueError(f"config is not valid JSON: {exc}") from exc
        return cls.from_dict(raw)

    @classmethod
    def load(cls, path) -> "ExperimentConfig":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_json(fh.read())


def preset(name: str) -> ExperimentConfig:
    """Built-in experiment configurations."""
    if name == "lshape":
        return ExperimentConfig(
            problem="lshape", algorithm="regsolve",
            params=AfemParams(theta=0.7, theta_data=0.7, lam=1.0 / 3.0,
                              beta=0.8, tau0=0.6, j_max=6,
                              kernel_family="radial_c1"))
    if name == "lshape-single":
        base = preset("lshape")
        return replace(base, params=replace(base.params, single_shot=True,
                                            j_max=14))
    if name == "square":
        return ExperimentConfig(
            problem="square", algorithm="regsolve",
            params=AfemParams(theta=0.55, theta_data=0.55, lam=1.0 / 3.0,
                              beta=0.7, tau0=0.3, j_max=8,
                              kernel_family="tensor_linf"))
    if name == "square-baseline":
        return replace(preset("square"), algorithm="baseline")
    if name == "smooth":
        return ExperimentConfig(
            problem="smooth", algorithm="plain",
            params=AfemParams(theta=0.5, theta_data=0.5, lam=1.0, tau0=0.1,
                              beta=0.5, j_max=0, extra_final_step=False))
    raise ValueError(f"unknown preset {name!r}; available: {PRESET_NAMES}")


PRESET_NAMES = ("lshape", "lshape-single", "square", "square-baseline",
                "smooth")
