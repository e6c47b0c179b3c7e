"""Shared recipe fixtures built programmatically, used across test
modules and cross-checked against the DSL fixtures."""

from chronotext.allen import Relation
from chronotext.metric import BoundWindow
from chronotext.recipe import (
    ActionNode,
    AlternativeBranch,
    Recipe,
    RepetitionMarker,
    StateNode,
    TimerNode,
)


def lutheran() -> Recipe:
    prelim = lambda i, verb, *objs: ActionNode(i, verb, objs, kind="preliminary")
    step = lambda i, verb, *objs, **kw: ActionNode(i, verb, objs, kind="step", **kw)
    return Recipe(
        title="Lutheran Hotdish",
        preliminaries=(
            prelim("slice_onion", "slice", "onion"),
            prelim("mince_garlic", "mince", "garlic"),
            prelim("drain_beans", "drain", "kidney", "beans"),
        ),
        steps=(
            step("brown", "brown", "hamburger", "and", "sausage"),
            step("prepare_pasta", "prepare", "the", "pasta", meanwhile=True),
            step("combine", "combine", "all", "ingredients"),
            step("add_sauce", "add", "tomato", "sauce"),
            step("pour", "pour", "into", "casserole", "dish"),
            step("bake", "bake", "at", "350F"),
            step("remove_cover", "remove", "cover"),
        ),
        states=(StateNode("add_sauce.until", "mixture is well coated"),),
        timers=(TimerNode("remove_cover.timer", BoundWindow.exact(15)),),
        durations=((("bake"), BoundWindow.exact(60)),),
        until_links=(("add_sauce", "add_sauce.until"),),
        last_links=(("remove_cover", "remove_cover.timer", "bake"),),
    )


def hot_relish() -> Recipe:
    step = lambda i, verb, *objs, **kw: ActionNode(i, verb, objs, kind="step", **kw)
    return Recipe(
        title="Hot relish",
        steps=(
            step("chop", "chop", "vegetables"),
            step("add_onions", "add", "onions", "to", "pan"),
            step("simmer", "simmer", "the", "mixture"),
            step("stir", "stir"),
            step("add_chillis", "put", "chillis", "in", "the", "pan"),
        ),
        relations=(("add_chillis", Relation.parse("{s,e,si}"), "add_onions"),),
        markers=(RepetitionMarker("stir", "sporadic", ref="simmer"),),
        branches=(AlternativeBranch(
            "hot", ("add_chillis",),
            guard="If you want this relish to be really hot"),),
        durations=(("simmer", BoundWindow.closed(120, 180)),),
    )


def sized_recipe(rng, steps: int) -> str:
    """A `.rcp` text of `steps` steps (6 to 40): a text-order chain whose
    steps take `meanwhile`, exact, range and `about` windows and `until`
    states, one `last … of` step, one sporadic step, 0-2 `rel` lines
    between chain steps and 0-1 `alt` block of one or two steps, each
    related to a chain step.  Windows are 5 minutes or more and the last
    step's timer 2-4, so most scenarios are consistent; a `rel` line
    that puts a later step before an earlier one, or an `alt` cell, makes
    some of them inconsistent."""
    alt = [f"c{i}" for i in range(rng.choice((0, 0, 1, 2)))]
    chain = [f"s{i}" for i in range(steps - 2 - len(alt))]
    lines = ['recipe "sized"'] + [f'prelim p{i} "chop p{i}"' for i in range(rng.randint(0, 2))]
    for i, s in enumerate(chain):
        n, roll = rng.randint(5, 60), rng.random()
        clause = " meanwhile" if i and rng.random() < 0.2 else (
            f" for {n} min" if roll < 0.2 else f" for {n}-{n + rng.randint(1, 30)} min" if roll < 0.4
            else f" for about {n} min" if roll < 0.55 else "")
        if rng.random() < 0.15:
            clause += f' until "{s} ready"'
        lines.append(f'step {s} "stir {s}"{clause}')
    lines += [f'step last "cover" last {rng.randint(2, 4)} min of {rng.choice(chain)}',
              'step often "taste"', f"sporadic often in {rng.choice(chain)}"]
    pairs = [(a, b) for i, a in enumerate(chain) for b in chain[i + 1:]]
    for a, b in rng.sample(pairs, min(len(pairs), rng.randint(0, 2))):
        cell = "{b}" if rng.random() < 0.1 else rng.choice(("{bi,mi}", "{bi}", "{bi,mi,oi,di}"))
        lines.append(f"rel {b} {cell} {a}")
    if alt:
        lines.append('alt hot "if you like it hot" {')
        for c in alt:
            lines += [f'  step {c} "add {c}" for {rng.randint(1, 5)} min',
                      f"  rel {c} {rng.choice(('{d}', '{s,d,f}', '{b}', '{bi,mi}'))} {rng.choice(chain)}"]
        lines.append("}")
    return "\n".join(lines) + "\n"
