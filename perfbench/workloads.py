"""Benchmark workloads: fixed multisets of scenarios, drawn into a list by seed.

Each workload is a fixed multiset of (preset, experiment, fixed parameters)
items.  The seed draws only the order of the presets, each scenario's
`seed` field and the free parameter values (`t_grid`, `t`, `eps`) inside
the ranges the CLI documents through its defaults, so numbers from
different seeds run the same presets at the same sizes.
"""

from __future__ import annotations

import random
import re

GOLDEN_SEED = 0

CORE_EXPERIMENTS = ("kazhdan", "axioms", "action_suite", "v_matrices", "semigroup")
WINDOW_EXPERIMENTS = ("axioms", "semigroup", "v_matrices", "lemma74")
SMALL_QG = ([f"dual-Z({n})" for n in range(2, 9)]
            + [f"fn-Z({n})" for n in (2, 3, 4, 6, 8)]
            + ["fn-S3", "grp-S3", "kac-paljutkin"])
SMALL_WINDOWS = ["free(1) r=6", "free(2) r=4", "free(2) r=6", "free(3) r=4",
                 "Z(1) r=20", "Z(1) r=40", "Z(1)^2 r=6"]

# Experiments that load presets of their own; their scenarios run after every
# preset group, so those builds stay with the presets' own scenarios.
LATE_EXPERIMENTS = ("dense_image",)


def _qg_fock():
    # The large objects: corep validation and null spaces on dual-Z(16..48)
    # and the small quantum groups, and dense Fock operators with lifted
    # actions.  dual-Z(64) and dual-Z(48) kazhdan (~15 s and ~4 s) and
    # fock_suite over dual-Z(16) (~6 s) are left out: this shared machine
    # runs ~1.4x slower for stretches of seconds to a minute, and a run
    # needs many short passes to see its fast stretches.  dual-Z(24)
    # action_suite exits 2 at this commit (the grading-action test in the
    # CLI matches the "dual-Z(2" prefix); it stays in and its exit code is
    # recorded in the goldens.
    presets = [f"dual-Z({n})" for n in (16, 24, 32, 48)]
    presets += ["kac-paljutkin", "fn-S3", "grp-S3"]
    items = [(p, e, {}) for p in presets for e in CORE_EXPERIMENTS
             if (p, e) != ("dual-Z(48)", "kazhdan")]
    items += [(None, "fock_suite", {"depth": d}) for d in (8, 9, 10)]
    items += [(p, "fock_suite", {"depth": 9}) for p in
              ("dual-Z(6)", "dual-Z(8)", "kac-paljutkin", "grp-S3", "fn-S3")]
    items += [("dual-Z(12)", "fock_suite", {})]
    return items


def _small_mix():
    items = [(p, e, {}) for p in SMALL_QG for e in CORE_EXPERIMENTS]
    items += [(p, "fock_suite", {}) for p in
              ("dual-Z(2)", "dual-Z(4)", "fn-Z(3)", "fn-S3", "grp-S3", "kac-paljutkin")]
    items += [(w, e, {}) for w in SMALL_WINDOWS for e in WINDOW_EXPERIMENTS]
    items += [(None, "theorem69", {}), (None, "dense_image", {}), (None, "dense_image", {}),
              (None, "fock_suite", {"depth": 8}), (None, "fock_suite", {"depth": 8})]
    return items


WORKLOADS = {
    "qg-fock": _qg_fock,
    "small-mix": _small_mix,
}

# The layers predicted to hold at least half of the traced batch time.
PREDICTED_DOMINANT = {
    "qg-fock": ("coreps", "linalg", "fock"),
    "small-mix": ("cli", "presets", "core", "windows"),
}


def items(workload):
    """The fixed multiset of (preset, experiment, fixed parameters)."""
    return WORKLOADS[workload]()


def _is_window(preset):
    return preset is not None and " r=" in preset


def _draw_parameters(rng, preset, experiment):
    if experiment == "semigroup":
        hi = 10.0 if _is_window(preset) else 1.0
        return {"t_grid": sorted(round(rng.uniform(0.1, hi), 3) for _ in range(3))}
    if experiment == "lemma74":
        return {"t": round(rng.uniform(0.5, 2.0), 3)}
    if experiment == "theorem69":
        return {"eps": round(rng.uniform(0.3, 0.7), 3)}
    return {}


def _slug(preset):
    return re.sub(r"[^A-Za-z0-9]+", "-", preset).strip("-")


def scenarios(workload, seed):
    """The scenario list of a workload for one seed.

    Names carry the item's index in the fixed multiset, so a name means the
    same preset, experiment and size under every seed.  The seed shuffles
    the presets; a preset's scenarios run together in multiset order, and
    scenarios of LATE_EXPERIMENTS run after every preset group, so each
    preset build (cached per process by qgwb) lands on the same scenario
    under every seed.
    """
    rng = random.Random(f"{workload}/{seed}")
    groups = {}
    for idx, (preset, experiment, fixed) in enumerate(items(workload)):
        params = dict(fixed)
        params.update(_draw_parameters(rng, preset, experiment))
        label = experiment if preset is None else f"{_slug(preset)}-{experiment}"
        sc = {"name": f"{idx:03d}-{label}", "experiment": experiment,
              "parameters": params, "seed": rng.randrange(2 ** 31)}
        if preset is not None:
            sc["preset"] = preset
        groups.setdefault(preset or sc["name"], []).append(sc)
    order = list(groups)
    rng.shuffle(order)
    order.sort(key=lambda key: groups[key][0]["experiment"] in LATE_EXPERIMENTS)
    return [sc for key in order for sc in groups[key]]
