"""Benchmark run configuration.

Config files are line-oriented `key = value` text with `#`/`;` comments.
Keys are kebab-case in files and map onto the snake_case fields of
`RunConfig`. A `[MethodName]` section holds per-method parameter
overrides; a key the method does not read (see `registry.PARAMS`) is an
error. CLI `--set key=value` (or `--set Method.key=value`) pairs are
applied on top of the file; `fuse --set` uses the same grammar.

The reference scene comes either from `input` (a raster path) or from the
synthetic-scene fields. Noise is specified as an SNR in dB (`snr-db`,
converted to per-band standard deviations at degradation time), as
explicit per-image standard deviations, or omitted for noiseless runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace

from .registry import method_names, resolve_params

__all__ = ["RunConfig", "parse_config", "apply_overrides"]

_TIMING_MODES = ("wall", "off")
_LIST_KEYS = ("methods", "percentiles", "pan_window", "pan_weights")


@dataclass(frozen=True)
class RunConfig:
    input: str | None = None
    height: int = 100
    width: int = 100
    bands: int = 40
    endmembers: int = 3
    seed: int = 0
    ratio: int = 5
    gnyq: float = 0.3
    pan_window: tuple[float, float] | None = None
    pan_weights: tuple[float, ...] | None = None
    snr_db: float | None = None
    hs_noise_std: float | None = None
    pan_noise_std: float | None = None
    timing: str = "wall"
    methods: tuple[str, ...] | None = None
    subspace_dim: int | None = None
    percentiles: tuple[float, ...] = (10.0, 50.0, 90.0)
    output_dir: str = "bench-out"
    method_params: dict = field(default_factory=dict)

    def validate(self) -> "RunConfig":
        if self.input is None and min(self.height, self.width, self.bands) < 1:
            raise ValueError("scene dims must be positive")
        if self.ratio < 2:
            raise ValueError("ratio must be at least 2 for fusion runs")
        if self.input is None and (self.height % self.ratio or self.width % self.ratio):
            raise ValueError("scene dims must be divisible by the ratio")
        if not 0.0 < self.gnyq < 1.0:
            raise ValueError("gnyq must lie strictly between 0 and 1")
        if self.snr_db is not None and self.snr_db <= 0:
            raise ValueError("snr-db must be positive when set")
        for key in ("hs_noise_std", "pan_noise_std"):
            value = getattr(self, key)
            if value is not None and value < 0:
                raise ValueError(f"{key} must be nonnegative")
        if self.pan_window is not None and len(self.pan_window) != 2:
            raise ValueError("pan-window needs exactly two wavelengths")
        if self.timing not in _TIMING_MODES:
            raise ValueError(f"timing must be one of {_TIMING_MODES}")
        known = method_names()
        for name in self.selected_methods():
            if name not in known:
                raise ValueError(f"unknown method {name!r} in config")
        for name, given in self.method_params.items():
            if name not in known:
                raise ValueError(f"unknown method section [{name}] in config")
            resolve_params(name, given)
        for q in self.percentiles:
            if not 0.0 < q <= 100.0:
                raise ValueError("percentiles must lie in (0, 100]")
        return self

    def selected_methods(self) -> tuple[str, ...]:
        return method_names() if self.methods is None else self.methods

    def to_dict(self) -> dict:
        out = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, tuple):
                value = list(value)
            out[f.name] = value
        return out

    @classmethod
    def from_dict(cls, raw: dict) -> "RunConfig":
        known = {f.name for f in fields(cls)}
        unknown = set(raw) - known
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        kwargs = dict(raw)
        for key in _LIST_KEYS:
            if key in kwargs and kwargs[key] is not None:
                kwargs[key] = tuple(kwargs[key])
        return cls(**kwargs)


def _coerce(text: str):
    low = text.lower()
    if low in ("true", "yes", "on"):
        return True
    if low in ("false", "no"):
        return False
    if low in ("none", "null", ""):
        return None
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        pass
    return text


def _split_list(text: str) -> list:
    return [part.strip() for part in text.split(",") if part.strip()]


def _parse_base_value(key: str, value: str):
    if key == "methods":
        return _split_list(value)
    if key == "percentiles":
        return [float(v) for v in _split_list(value)]
    if key in ("pan_window", "pan_weights"):
        parts = _split_list(value)
        return [float(v) for v in parts] if parts else None
    if key == "timing":
        return value.lower()
    if key in ("input", "output_dir"):
        return value or None
    return _coerce(value)


def parse_config(text: str) -> RunConfig:
    """Parse config text into a validated RunConfig."""
    base: dict = {}
    sections: dict = {}
    current = None
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.strip()
        if not line or line.startswith("#") or line.startswith(";"):
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1].strip()
            sections.setdefault(current, {})
            continue
        if "=" not in line:
            raise ValueError(f"config line {lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        key = key.strip().lower().replace("-", "_")
        value = value.strip()
        if current is None:
            base[key] = _parse_base_value(key, value)
        else:
            sections[current][key] = _coerce(value)
    if sections:
        base["method_params"] = sections
    if base.get("output_dir") is None:
        base.pop("output_dir", None)
    return RunConfig.from_dict(base).validate()


def apply_overrides(config: RunConfig, pairs: list[str]) -> RunConfig:
    """Apply CLI `key=value` / `Method.key=value` pairs on top of a config."""
    updates: dict = {}
    params = {name: dict(vals) for name, vals in config.method_params.items()}
    names = {f.name for f in fields(RunConfig)}
    for pair in pairs:
        if "=" not in pair:
            raise ValueError(f"override {pair!r} is not of the form key=value")
        key, _, value = pair.partition("=")
        key = key.strip()
        value = value.strip()
        if "." in key:
            method, _, sub = key.partition(".")
            params.setdefault(method, {})[sub.lower().replace("-", "_")] = _coerce(value)
            continue
        key = key.lower().replace("-", "_")
        if key not in names:
            raise ValueError(f"unknown config key {key!r} in override")
        parsed = _parse_base_value(key, value)
        if isinstance(parsed, list):
            parsed = tuple(parsed)
        updates[key] = parsed
    return replace(config, method_params=params, **updates).validate()
