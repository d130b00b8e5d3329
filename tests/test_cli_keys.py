"""The command line's interface, pinned: each subcommand's flags, their
types, choices and help texts, and the config ``_merge_config`` returns for
a bare subcommand.  The tables below were recorded from the parser as it was
before ``cli._KEYS`` declared every key once."""

import argparse

import pytest

from solitonlab import cli

_CHOICES = {
    "--scalar": ["rational", "gaussian-rational", "gf-p"],
    "--mode": ["nls", "heat"],
}
# each flag's kind: an argparse type's name, "store_true", "help", or choices
_KIND = {
    "-h": "help", "--help": "help", "--config": None, "--report": None,
    "--n": "int", "--N": "int", "--r": "int", "--cap": "int", "--seed": "int",
    "--dump-degree": "int", "--max-resample": "int", "--window": "int",
    "--trials": "int", "--dump-series": "store_true", "--timings": "store_true",
    "--with-lemmas": "store_true", "--scalar-form": "store_true", **_CHOICES,
}
_HELP = {
    "--config": "JSON config file",
    "--report": "report file path",
    "--scalar-form": "also check the scalar closed form by its exact series identity",
}
_FAMILY = ["--N", "--cap", "--config", "--dump-degree", "--dump-series",
           "--help", "--max-resample", "--r", "--report", "--scalar", "--seed",
           "--timings", "-h"]
_OPTIONS = {
    "toda": sorted(_FAMILY + ["--n", "--with-lemmas"]),
    "sine-gordon": sorted(_FAMILY + ["--with-lemmas"]),
    "langmuir": sorted(_FAMILY + ["--window", "--with-lemmas"]),
    "nls": sorted(_FAMILY + ["--mode", "--scalar-form"]),
    "quasidet-selftest": ["--config", "--help", "--report", "--seed",
                          "--timings", "--trials", "-h"],
}
_SUBCOMMAND_HELP = {
    "toda": "n-periodic lattice field system",
    "sine-gordon": "2-periodic alternating system",
    "langmuir": "lattice system on a site window",
    "nls": "cubic matrix equation",
    "quasidet-selftest": "commutative determinant oracle over random rational matrices",
}
_BARE = {
    "n": 3, "N": 1, "r": 1, "cap": None, "seed": 0, "scalar": "rational",
    "window": 5, "mode": "nls", "params": None, "report": None,
    "dump_series": False, "dump_degree": None, "with_lemmas": False,
    "timings": False, "max_resample": 8, "trials": 100, "scalar_form": False,
}
# the per-system defaults: r = 2 and Gaussian scalars for nls
_BARE_NLS = {"r": 2, "scalar": "gaussian-rational"}


def _subparsers():
    [sub] = [a for a in cli._build_parser()._actions
             if isinstance(a, argparse._SubParsersAction)]
    return sub


def _kind(action):
    if isinstance(action, argparse._HelpAction):
        return "help"
    if isinstance(action, argparse._StoreTrueAction):
        return "store_true"
    if action.choices is not None:
        return list(action.choices)
    return getattr(action.type, "__name__", None)


def test_subcommands_and_their_help():
    sub = _subparsers()
    assert list(sub.choices) == list(_OPTIONS)
    assert {a.dest: a.help for a in sub._choices_actions} == _SUBCOMMAND_HELP


@pytest.mark.parametrize("system", list(_OPTIONS))
def test_each_flag_keeps_its_type_choices_and_help(system):
    parser = _subparsers().choices[system]
    options = sorted(s for a in parser._actions for s in a.option_strings)
    assert options == _OPTIONS[system]
    for action in parser._actions:
        for option in action.option_strings:
            assert _kind(action) == _KIND[option], option
            if option not in ("-h", "--help"):
                assert action.help == _HELP.get(option), option
                assert action.dest == option.lstrip("-").replace("-", "_")
                # a flag left out leaves the key to the config or its default
                assert action.default is None, option


@pytest.mark.parametrize("system", list(_OPTIONS))
def test_bare_subcommand_merges_to_the_defaults(system):
    cfg = cli._merge_config(cli._build_parser().parse_args([system]))
    expected = {**_BARE, **(_BARE_NLS if system == "nls" else {}), "system": system}
    assert cfg == expected


def test_every_subcommand_named_in_keys_exists():
    subcommands = set(_subparsers().choices)
    for name, key in cli._KEYS.items():
        assert key.systems and set(key.systems) <= subcommands, name
