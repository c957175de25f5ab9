"""Golden corpus for the JSON config boundary.

``tests/data/config_corpus.jsonl`` holds one mutated config per line and
what each of the two config entry points made of it: ``parse_experiment``
on the whole config, and ``parse_train(config.get("train", {}),
allow_auto_groups=False)`` on its train section. An outcome is either the
exact ``ConfigurationError`` text, or the rendered config
(``experiment_to_dict`` / ``train_to_dict``) written as its difference
from the rendered base: ``{"changed": {dotted path: leaf}, "removed":
[dotted path, ...]}``, empty members left out. Leaves are compared through
``json.dumps``, so the difference pins the same bytes as
``json.dumps(rendered, sort_keys=True)`` (``1`` and ``1.0`` differ).

The base merges the README's two example configs and sets every optional
key but ``train.seed`` and ``noise.seed``, which an experiment config
rejects unless 0. Single-fault cases are, for every key path of the base:
delete the key, add an unknown sibling, and set the key to each of ``VALUES``.
Multi-fault cases chain one to three such mutations, drawn with a seeded
``random.Random`` from the key paths present after each step. The first
line holds the two rendered base configs in full.

The outcomes were recorded before the parser was rewritten as tables, so
the corpus pins the accepted schema, the defaults, the error texts and
the order in which checks run. No case raises anything but
``ConfigurationError``. To re-record after a deliberate schema change::

    PYTHONPATH=src python tests/test_config_corpus.py --record
"""

from __future__ import annotations

import copy
import json
import random
import sys
from pathlib import Path

import pytest

from labelnoise import ConfigurationError
from labelnoise.config import experiment_to_dict, parse_experiment, parse_train, train_to_dict

CORPUS = Path(__file__).parent / "data" / "config_corpus.jsonl"
UNKNOWN = "unexpected_key"
MULTI_FAULT_CASES = 1500
MULTI_FAULT_SEED = 20191027

BASE = {
    "dataset": {
        "classes": 4,
        "clips_per_class": 50,
        "patches_per_clip": 3,
        "dims": 8,
        "spread": 0.25,
        "test_clips_per_class": 100,
    },
    "train": {
        "loss": {"kind": "lq", "q": 0.7},
        "max_epochs": 200,
        "batch_size": 64,
        "initial_lr": 0.01,
        "lr_halving_patience": 10,
        "early_stop_patience": 40,
        "val_fraction": 0.3,
        "architecture": "linear",
        "hidden_units": 32,
        "stage": {
            "strategy": "prune",
            "start_epoch": 10,
            "rule": {"kind": "patch_count", "count": 16},
            "prune_count": 28,
            "prune_rounds": 2,
        },
        "smoothing": {
            "epsilon": 0.15,
            "delta_epsilon": 0.05,
            "groups": {"0": "low", "1": "low", "2": "high", "3": "high"},
        },
        "mixup": {"alpha": 0.3, "warmup_epochs": 10, "pairing": "intra"},
    },
    "noise": {
        "kind": "symmetric",
        "rate": 0.4,
        "rate_by_class": {"0": 0.2, "1": 0.4, "2": 0.4, "3": 0.6},
    },
    "runs": 7,
    "base_seed": 2,
}

VALUES = [
    None, True, False, "x", "auto", 1.5, -1, 0, 2, 100, {}, [], {"0": "low"},
    "percentile", "prune", "cce", "lq", 0.0, 1.0,
]


def key_paths(config: dict, prefix: tuple = ()) -> list[tuple]:
    paths = []
    for key, value in config.items():
        paths.append(prefix + (key,))
        if isinstance(value, dict):
            paths += key_paths(value, prefix + (key,))
    return paths


def mutations_of(path: tuple) -> list[list]:
    dotted = ".".join(path)
    return (
        [["delete", dotted], ["unknown", dotted]]
        + [["set", dotted, value] for value in VALUES]
    )


def apply(config: dict, mutation: list) -> None:
    op, dotted = mutation[0], mutation[1]
    *parents, last = dotted.split(".")
    holder = config
    for key in parents:
        holder = holder[key]
    if op == "delete":
        del holder[last]
    elif op == "unknown":
        holder[UNKNOWN] = 1
    else:
        holder[last] = copy.deepcopy(mutation[2])


def mutated(mutations: list) -> dict:
    config = copy.deepcopy(BASE)
    for mutation in mutations:
        apply(config, mutation)
    return config


def single_fault_mutations() -> list[list]:
    return [[m] for path in key_paths(BASE) for m in mutations_of(path)]


def multi_fault_mutations() -> list[list]:
    rng = random.Random(MULTI_FAULT_SEED)
    cases = []
    for _ in range(MULTI_FAULT_CASES):
        config, chain = copy.deepcopy(BASE), []
        for _ in range(rng.randint(1, 3)):
            paths = key_paths(config)
            if not paths:
                break
            mutation = rng.choice(mutations_of(rng.choice(paths)))
            apply(config, mutation)
            chain.append(mutation)
        cases.append(chain)
    return cases


def flatten(tree: dict, prefix: str = "") -> dict:
    leaves = {}
    for key, value in tree.items():
        path = f"{prefix}{key}"
        if isinstance(value, dict) and value:
            leaves.update(flatten(value, path + "."))
        else:
            leaves[path] = json.dumps(value, sort_keys=True)
    return leaves


def difference(rendered: dict, base: dict) -> dict:
    now, before = flatten(rendered), flatten(base)
    changed = {p: json.loads(v) for p, v in now.items() if before.get(p) != v}
    removed = sorted(p for p in before if p not in now)
    return {
        name: part
        for name, part in (("changed", changed), ("removed", removed))
        if part
    }


def run_experiment_entry(config: dict) -> dict:
    return experiment_to_dict(parse_experiment(config))


def run_train_entry(config: dict) -> dict:
    cfg, auto = parse_train(config.get("train", {}), allow_auto_groups=False)
    return train_to_dict(cfg, auto)


ENTRIES = {"experiment": run_experiment_entry, "train": run_train_entry}


def outcome(entry: str, config: dict, base_rendered: dict):
    """The error text, or the rendered config as a difference from the base."""
    try:
        rendered = ENTRIES[entry](config)
    except ConfigurationError as exc:
        return str(exc)
    return difference(rendered, base_rendered)


def base_renders() -> dict:
    return {entry: run(copy.deepcopy(BASE)) for entry, run in ENTRIES.items()}


def record() -> None:
    bases = base_renders()
    CORPUS.parent.mkdir(exist_ok=True)
    with CORPUS.open("w", encoding="utf-8") as handle:
        handle.write(json.dumps({"group": "base", **bases}, sort_keys=True) + "\n")
        for group, cases in (
            ("single", single_fault_mutations()),
            ("multi", multi_fault_mutations()),
        ):
            for mutations in cases:
                row = {"group": group, "mutations": mutations}
                for entry in ENTRIES:
                    row[entry] = outcome(entry, mutated(mutations), bases[entry])
                handle.write(json.dumps(row, sort_keys=True) + "\n")


def load_corpus() -> list[dict]:
    with CORPUS.open(encoding="utf-8") as handle:
        return [json.loads(line) for line in handle]


@pytest.fixture(scope="module")
def corpus():
    return load_corpus()


@pytest.fixture(scope="module")
def bases(corpus):
    return corpus[0]


def test_base_renders_as_recorded(bases):
    for entry, rendered in base_renders().items():
        assert json.dumps(rendered, sort_keys=True) == json.dumps(bases[entry], sort_keys=True)


def test_single_fault_cases_cover_every_key_path(corpus):
    assert corpus[0]["group"] == "base"
    recorded = [row["mutations"] for row in corpus if row["group"] == "single"]
    assert recorded == single_fault_mutations()
    assert len(key_paths(BASE)) == 49


def test_multi_fault_cases_are_the_seeded_chains(corpus):
    recorded = [row["mutations"] for row in corpus if row["group"] == "multi"]
    assert len(recorded) == MULTI_FAULT_CASES
    assert recorded == multi_fault_mutations()


def test_corpus_holds_both_kinds_of_outcome(corpus):
    for entry in ENTRIES:
        outcomes = [row[entry] for row in corpus]
        assert any(isinstance(o, str) for o in outcomes)
        assert any(isinstance(o, dict) and o for o in outcomes)


@pytest.mark.parametrize("group", ["single", "multi"])
@pytest.mark.parametrize("entry", sorted(ENTRIES))
def test_outcomes_match_the_recording(corpus, bases, group, entry):
    mismatches = []
    for row in corpus:
        if row["group"] != group:
            continue
        got = outcome(entry, mutated(row["mutations"]), bases[entry])
        if json.dumps(got, sort_keys=True) != json.dumps(row[entry], sort_keys=True):
            mismatches.append((row["mutations"], row[entry], got))
    assert not mismatches, f"{len(mismatches)} cases differ, first: {mismatches[0]}"


# Every leaf of BASE is checked by its field's rule, where its JSON key is read: a value of the
# wrong JSON type, or one outside the field's unconditional bound, is refused with the key as
# written, a class map's entry as ``map[class]``.
WRONG_TYPES = {int: ["x", True, 1.5, [1]], float: ["x", False, {}], str: [1, True, [1]]}
OUT_OF_BOUND = {
    "dataset.classes": 1, "dataset.clips_per_class": 0, "dataset.patches_per_clip": 0,
    "dataset.dims": 0, "dataset.spread": -1, "dataset.test_clips_per_class": 0,
    "train.max_epochs": -1, "train.batch_size": 0, "train.initial_lr": 0,
    "train.lr_halving_patience": 0, "train.early_stop_patience": 0, "train.val_fraction": 1,
    "train.stage.start_epoch": -1, "train.stage.rule.count": 0, "train.stage.prune_count": -1,
    "train.stage.prune_rounds": 0, "train.smoothing.epsilon": 1,
    "train.smoothing.delta_epsilon": -0.5, "train.mixup.alpha": 0, "train.mixup.warmup_epochs": -1,
    "noise.rate": 1.5, **{f"noise.rate_by_class.{cls}": 1.5 for cls in range(4)}, "runs": 0,
}
# Leaves whose bound, if any, depends on another key: q on the loss kind, hidden_units on the
# architecture; the rest are enums and a seed.
NO_UNCONDITIONAL_BOUND = {
    "train.loss.kind", "train.loss.q", "train.architecture", "train.hidden_units",
    "train.stage.strategy", "train.stage.rule.kind", "train.mixup.pairing", "noise.kind",
    "base_seed", *(f"train.smoothing.groups.{cls}" for cls in range(4)),
}

def leaves() -> dict:
    """The value of each leaf of BASE, by its dotted key path."""
    values = {}
    for path in key_paths(BASE):
        value = BASE
        for key in path:
            value = value[key]
        if not isinstance(value, dict):
            values[".".join(path)] = value
    return values


def written(dotted: str) -> str:
    """How an error names the key at ``dotted``: as written, a class map's entry as map[class]."""
    holder, _, last = dotted.rpartition(".")
    return f"{holder}[{last}]" if last.isdigit() else dotted


def refusals(dotted: str, value) -> list[str]:
    """What each entry point that reads the key ``dotted`` says when it holds ``value``."""
    config = mutated([["set", dotted, value]])
    entries = ENTRIES if dotted.startswith("train.") else {"experiment": ENTRIES["experiment"]}
    said = []
    for run in entries.values():
        with pytest.raises(ConfigurationError) as excinfo:
            run(config)
        said.append(str(excinfo.value))
    return said


def test_leaf_bounds_tables_cover_every_leaf():
    assert set(OUT_OF_BOUND) | NO_UNCONDITIONAL_BOUND == set(leaves())
    assert not set(OUT_OF_BOUND) & NO_UNCONDITIONAL_BOUND


@pytest.mark.parametrize("dotted, leaf", leaves().items())
def test_wrong_type_refused_naming_the_key_as_written(dotted, leaf):
    for value in WRONG_TYPES[type(leaf)]:
        for message in refusals(dotted, value):
            assert message.startswith(f"{written(dotted)} must be "), (value, message)


@pytest.mark.parametrize("dotted", sorted(OUT_OF_BOUND))
def test_out_of_bound_value_refused_naming_the_key_as_written(dotted):
    for message in refusals(dotted, OUT_OF_BOUND[dotted]):
        assert message.startswith(f"{written(dotted)} must lie in "), message


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit(__doc__)
    record()
