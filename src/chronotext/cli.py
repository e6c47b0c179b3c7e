"""Command-line front end.

Subcommands: check, close, query, adapt, workflow, timeml.  Input kind
follows the file extension: .rcp recipe DSL, .tml annotation markup,
.know domain knowledge.  Results go to stdout, diagnostics to stderr.
Exit codes: 0 consistent, 1 inconsistent, 2 parse or usage error,
3 scale bound exceeded.

Importing this module loads no other package module and no argparse:
`_parser` imports argparse, and each handler imports the modules its
command reads when it runs (`adapt` alone loads `adaptation`, `workflow`
alone `workflow`).  Callees are read from their defining modules at
call time, so a function rebound there is the one called.
"""

from __future__ import annotations

import sys
from functools import lru_cache, partial
from pathlib import Path


def _read(path: Path) -> str:
    """An input file's text, decoded as UTF-8 whatever the locale, with
    newlines translated as `read_text` does; a byte sequence that is not
    UTF-8 is a parse error naming the file and the line."""
    data = path.read_bytes()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        from .annotation import RecipeSyntaxError
        line = data.count(b"\n", 0, exc.start) + 1
        raise RecipeSyntaxError(
            f"{path}: line {line}: not UTF-8 ({exc.reason} at byte {exc.start})") from None
    return text.replace("\r\n", "\n").replace("\r", "\n")


def _scenarios(path: Path) -> list[tuple[str, HybridNetwork]]:
    """Every scenario of the file as (label, raw hybrid network)."""
    from .annotation import RecipeSyntaxError, doc_to_qcn, parse_recipe_dsl, parse_timeml

    text = _read(path)
    if path.suffix == ".rcp":
        from .recipe import encode_recipe
        return encode_recipe(parse_recipe_dsl(text))
    if path.suffix == ".tml":
        from .hybrid import HybridNetwork
        qcn = doc_to_qcn(parse_timeml(text))
        return [("document", HybridNetwork(qcn, HybridNetwork.build(qcn.intervals).stp))]
    raise RecipeSyntaxError(f"unsupported file extension {path.suffix!r}")


def _per_scenario(render, args) -> int:
    """Close each scenario of the file and write `render(args, label, closed)`."""
    from .hybrid import hybrid_close
    bad = False
    for label, h in _scenarios(Path(args.file)):
        closed = hybrid_close(h)
        bad = bad or closed.inconsistent
        sys.stdout.write(render(args, label, closed))
    return 1 if bad else 0


def _verdict(args, label, closed) -> str:
    return f"scenario {label}: {'inconsistent' if closed.inconsistent else 'consistent'}\n"


def _network(args, label, closed) -> str:
    from .hybrid import format_hybrid
    return f"scenario {label}\n{format_hybrid(closed)}"


def _answer(args, label, closed) -> str:
    for name in (args.a, args.b):
        if name not in closed.intervals:
            raise KeyError(f"unknown interval {name!r}")
    if closed.inconsistent:
        return f"scenario {label}\ninconsistent\n"
    from .metric import start_of
    w = closed.point_window(start_of(args.a), start_of(args.b))
    return (f"scenario {label}\n{closed.relation(args.a, args.b)}\n"
            f"start({args.b}) - start({args.a}) in {w}\n")


def _cmd_adapt(args) -> int:
    from .adaptation import adapt_recipe, format_edits, format_revision, parse_knowledge
    from .annotation import RecipeSyntaxError, parse_recipe_dsl
    recipe_path, know_path = Path(args.recipe), Path(args.knowledge)
    if recipe_path.suffix != ".rcp":
        raise RecipeSyntaxError("adapt expects a .rcp recipe")
    if know_path.suffix != ".know":
        raise RecipeSyntaxError("adapt expects a .know knowledge file")
    recipe = parse_recipe_dsl(_read(recipe_path))
    knowledge = parse_knowledge(_read(know_path))
    result, edits = adapt_recipe(recipe, knowledge)
    sys.stdout.write(format_revision(result) + format_edits(edits))
    return 0


def _cmd_workflow(args) -> int:
    from .annotation import parse_recipe_dsl
    from .hybrid import hybrid_close
    from .workflow import emit_dot, recipe_workflow, to_workflow
    path = Path(args.file)
    if path.suffix == ".rcp":
        graph = recipe_workflow(parse_recipe_dsl(_read(path)))
    else:
        (label, h), = _scenarios(path)
        closed = hybrid_close(h)
        if closed.inconsistent:
            raise ValueError("annotation network is inconsistent")
        graph = to_workflow([(label, closed)])
    sys.stdout.write(emit_dot(graph))
    return 0


def _cmd_timeml(args) -> int:
    from .allen import close, format_qcn
    from .annotation import RecipeSyntaxError, doc_to_qcn, parse_timeml
    path = Path(args.file)
    if path.suffix != ".tml":
        raise RecipeSyntaxError("timeml expects a .tml file")
    qcn = doc_to_qcn(parse_timeml(_read(path)))
    sys.stdout.write(format_qcn(qcn))
    closed = close(qcn)
    print("inconsistent" if closed.inconsistent else "consistent")
    return 1 if closed.inconsistent else 0


# (name, handler, positional arguments, help), in `--help` order
_COMMANDS = (
    ("check", partial(_per_scenario, _verdict), ("file",),
     "parse, encode and close; report consistency"),
    ("close", partial(_per_scenario, _network), ("file",),
     "print the minimal network per scenario"),
    ("workflow", _cmd_workflow, ("file",), "print the workflow graph in dot form"),
    ("timeml", _cmd_timeml, ("file",), "parse annotation markup; print the network"),
    ("query", partial(_per_scenario, _answer), ("file", "a", "b"),
     "closed relation and start offset window between two intervals"),
    ("adapt", _cmd_adapt, ("recipe", "knowledge"),
     "revise a recipe against a knowledge file; print the edits"),
)


@lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process."""
    import argparse
    parser = argparse.ArgumentParser(
        prog="chronotext",
        description="Temporal reasoning over recipe texts.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, func, positionals, helptext in _COMMANDS:
        p = sub.add_parser(name, help=helptext)
        for arg in positionals:
            p.add_argument(arg)
        p.set_defaults(func=func)
    return parser


def run(argv=None) -> int:
    args = _parser().parse_args(argv)
    from .annotation import AnnotationError, RecipeSyntaxError
    from .metric import ScaleBoundExceeded
    try:
        return args.func(args)
    except ScaleBoundExceeded as exc:
        code, message = 3, exc
    except (RecipeSyntaxError, AnnotationError, OSError) as exc:
        code, message = 2, exc
    except KeyError as exc:
        code, message = 2, exc.args[0]
    except ValueError as exc:
        code, message = 1, exc
    print(f"error: {message}", file=sys.stderr)
    return code


def main() -> None:
    """The console entry point.  Output is written as UTF-8 whatever the
    locale, as input is read (`_read`)."""
    sys.stdout.reconfigure(encoding="utf-8")
    sys.stderr.reconfigure(encoding="utf-8", errors="backslashreplace")
    sys.exit(run())


if __name__ == "__main__":
    main()
