"""Experiment configuration: a sectioned key-value file, named presets for
the shipped hyperparameter defaults, and a content fingerprint that tags
every artifact an experiment writes.
"""

from __future__ import annotations

import configparser
import zlib
from dataclasses import dataclass, fields

from .cate import LEARNERS, BaseSpec, check_kinds
from .dgp import gen_dgp, sample
from .errors import ConfigError
from .nce import TrainConfig
from .numerics import check_int

# defaults per synthetic setup: (b, k, hidden widths, rho)
PRESETS = {
    "synth_d50_n100": dict(d=50, n=100, b=10, k=3, hidden=(20, 20, 20), rho=0.20),
    "synth_d100_n250": dict(d=100, n=250, b=10, k=4, hidden=(20, 20, 20), rho=0.50),
    "synth_d150_n500": dict(d=150, n=500, b=5, k=3, hidden=(20, 20), rho=0.20),
    "synth_d200_n1000": dict(d=200, n=1000, b=3, k=15, hidden=(20, 20, 20, 20), rho=0.50),
    "synth_d250_n1500": dict(d=250, n=1500, b=3, k=20, hidden=(20, 20, 20), rho=0.50),
    "desk": dict(d=20, n=500, b=5, k=3, hidden=(20, 20), rho=0.50),
}

# INI section -> {key: ExperimentConfig attribute}; the only list of file keys
SECTIONS = {
    "dgp": {"d": "d", "n": "n", "seed": "seed", "test_size": "test_size"},
    "ebm": {"k": "k", "b": "b", "rho": "rho", "hidden": "hidden", "epochs": "epochs",
            "lr": "lr", "batch": "batch_size", "b_seed": "b_seed", "patience": "patience"},
    "learners": {"kinds": "learners", "base": "base_kind", "lam": "base_lam",
                 "cv": "base_cv"},
    "eval": {"runs": "runs"},
    "io": {"out_dir": "out_dir"},
}


@dataclass
class ExperimentConfig(TrainConfig):
    # the [ebm] settings and seed are TrainConfig's; a learner setting takes BaseSpec's default
    # dgp sizes
    d: int = 20
    n: int = 500
    test_size: int = 2000
    # learners
    learners: tuple = LEARNERS
    base_kind: str = BaseSpec.kind
    base_lam: float = BaseSpec.lam
    base_cv: bool = BaseSpec.cv
    # eval
    runs: int = 3
    # io
    out_dir: str = "results"

    def __post_init__(self):
        """TrainConfig's checks, base_spec() and check_kinds(), then the sizes
        and runs, stored as TrainConfig stores its settings. Each setting is
        checked alone: k against a matrix's width and rows is checked by the
        trainers on the data they fit, since d and n shape only synthetic data."""
        super().__post_init__()
        self.base_lam = self.base_spec().lam
        for name, least in (("d", 1), ("n", 2), ("test_size", 2), ("runs", 1)):
            setattr(self, name, check_int(getattr(self, name), name, least))
        self.learners = check_kinds(self.learners)

    def base_spec(self) -> BaseSpec:
        """The learners' base regression settings; BaseSpec checks them."""
        return BaseSpec(kind=self.base_kind, lam=self.base_lam, cv=self.base_cv)

    def datasets(self) -> tuple:
        """(train, test) of gen_dgp(seed, d), drawn from seed + 1 and seed + 2."""
        dgp = gen_dgp(self.seed, self.d)
        return sample(dgp, self.n, self.seed + 1), sample(dgp, self.test_size, self.seed + 2)

    def init_seeds(self) -> list:
        """Run r's init seed, seed + 101 (r + 1), for each of the runs."""
        return [self.seed + 101 * (r + 1) for r in range(self.runs)]

    def canonical(self) -> str:
        """Every setting but out_dir, in SECTIONS' order: where results go changes none."""
        items = []
        for attr in (a for keys in SECTIONS.values() for a in keys.values()):
            if attr == "out_dir":
                continue
            value = getattr(self, attr)
            if isinstance(value, tuple):
                value = ",".join(map(str, value))
            items.append(f"{attr}={value}")
        return ";".join(items)

    def fingerprint(self) -> str:
        return format(zlib.crc32(self.canonical().encode()), "08x")


def _parse_hidden(raw) -> tuple:
    return tuple(int(w) for w in str(raw).split(",") if w.strip())


# a field is parsed by the type of its default, except for the two tuples;
# a bool takes configparser's eight words (1/yes/true/on, 0/no/false/off)
_TYPE_PARSERS = {int: int, float: float, str: str,
                 bool: lambda s: configparser.ConfigParser.BOOLEAN_STATES[s.lower()]}
_PARSERS = {
    **{f.name: _TYPE_PARSERS.get(type(f.default)) for f in fields(ExperimentConfig)},
    "hidden": _parse_hidden,
    "learners": lambda s: tuple(x.strip() for x in s.split(",") if x.strip()),
}


def _apply_preset(values: dict, name) -> None:
    if name not in PRESETS:
        raise ConfigError(
            f"unknown preset {name!r}; available: {', '.join(sorted(PRESETS))}"
        )
    values.update(PRESETS[name])


def _unknown_keys(parser) -> list:
    # configparser copies each [DEFAULT] key into every section; only preset may be there
    inherited = set(parser.defaults())
    unknown = [f"[DEFAULT] {key}" for key in sorted(inherited - {"preset"})]
    for section in parser.sections():
        if section not in SECTIONS:
            unknown.append(f"[{section}]")
            continue
        accepted = set(SECTIONS[section]) | inherited | ({"preset"} if section == "ebm" else set())
        unknown += [f"[{section}] {key}" for key in parser.options(section) if key not in accepted]
    return unknown


def _apply_file(values: dict, path) -> None:
    parser = configparser.ConfigParser()
    read = parser.read(str(path), encoding="utf-8-sig")  # utf-8-sig skips a leading BOM
    if not read:
        raise ConfigError(f"config file not found: {path}")
    unknown = _unknown_keys(parser)
    if unknown:
        raise ConfigError(f"{path}: unknown section or key: {', '.join(unknown)}")
    name = parser.get("ebm", "preset", fallback=parser.defaults().get("preset"))
    if name is not None:
        _apply_preset(values, name)
    for section, keys in SECTIONS.items():
        for key, attr in keys.items():
            if parser.has_option(section, key):
                raw = parser.get(section, key)
                try:
                    values[attr] = _PARSERS[attr](raw)
                except (ValueError, TypeError, KeyError):
                    raise ConfigError(f"[{section}] {key}: cannot parse {raw!r}") from None


def load_config(path=None, preset=None, seed_override=None,
                out_override=None) -> ExperimentConfig:
    values = {}
    if preset is not None:
        _apply_preset(values, preset)
    if path is not None:
        try:
            _apply_file(values, path)
        except (configparser.Error, UnicodeDecodeError) as exc:
            # a missing header, a repeated key, a stray '%' (interpolation), or
            # bytes that are not text
            raise ConfigError(f"{path}: {exc}") from None
    if seed_override is not None:
        values["seed"] = int(seed_override)
    if out_override is not None:
        values["out_dir"] = str(out_override)
    return ExperimentConfig(**values)
