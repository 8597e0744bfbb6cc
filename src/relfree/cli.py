"""Command-line front end.

Every subcommand is a thin adapter over the library; no domain logic lives
here.  Exit codes: 0 success / accept / all checks pass; 1 verification
failure; 2 usage error; 3 indeterminate (a budget ran out).  Output is
deterministic for a fixed invocation; ``--output kv`` switches to
line-oriented ``key=value`` records meant for diffing in CI.

A call builds the parser of the command its first argument names, and no
other, and parses the rest intermixed, so options may come before or after
the positionals.  The parser of all seven commands (``build_parser``) is
built only when the first argument names no command: no arguments,
``--help``, or an unknown command.
"""

from __future__ import annotations

import argparse
import os
import shlex
import sys

from . import diagrams, endo, graded, ledger, report
from .errors import (BudgetExceeded, EmptyInput, RelfreeError, Unsatisfiable, content_lines,
                     open_text)
from .verbal import ParamSet, epsilon, make_v, make_w, word_length_symbolic
from .words import Alphabet, Word, canonical_cyclic, conjugate_in_free, parse_words, primitive_root

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_INDETERMINATE = 3


def _emit(args, pairs: list[tuple[str, str]]) -> None:
    if args.output == "kv":
        for key, value in pairs:
            value = str(value)
            if any(ch.isspace() for ch in value):
                value = shlex.quote(value)
            print(f"{key}={value}")
    else:
        for key, value in pairs:
            print(f"{key}: {value}")


def _params_from_args(args) -> ParamSet:
    """(h, d, n) from the flags, or 20, 2 and 3."""
    return ParamSet(*(default if value is None else value
                      for value, default in ((args.h, 20), (args.d, 2), (args.n, 3))))


def _read_relators(path, m: int | None = None) -> list[Word]:
    """The words of a word file, one per line; blank and ``#`` lines are skipped."""
    with open_text(path) as fh:
        text = fh.read()
    return parse_words(content_lines(text, path), m)


# -- subcommand handlers -------------------------------------------------------


def _cmd_word(args) -> int:
    if args.action == "conj" and args.other is None:
        print("word conj needs a second word", file=sys.stderr)
        return EXIT_USAGE
    if args.other is not None and args.action != "conj":
        print(f"word {args.action} takes one word, not also {args.other!r}", file=sys.stderr)
        return EXIT_USAGE
    texts = [args.word] + ([args.other] if args.action == "conj" else [])
    w, *other = parse_words([("", text) for text in texts], args.m)
    if args.action == "reduce":
        print(w)
        return EXIT_OK
    if args.action == "canon":
        print(canonical_cyclic(w))
        return EXIT_OK
    if args.action == "root":
        root, k = primitive_root(w)
        _emit(args, [("root", str(root)), ("k", k)])
        return EXIT_OK
    if args.action == "conj":
        verdict = conjugate_in_free(w, other[0])
        _emit(args, [("conjugate", str(verdict).lower())])
        return EXIT_OK if verdict else EXIT_FAIL
    raise AssertionError(args.action)


def _cmd_verbal(args) -> int:
    which, x, y, lx, ly, i = (default if value is None else value for value, default in (
        (args.which, "w1"), (args.x, "a1"), (args.y, "a2"), (args.lx, 1), (args.ly, 1),
        (args.i, 1)))
    if args.action == "epsilon":  # epsilon(i) reads no h, d or n
        print(epsilon(i))
        return EXIT_OK
    p = _params_from_args(args)
    if args.action == "length":
        print(word_length_symbolic(which, lx, ly, p))
        return EXIT_OK
    x, y = parse_words([("", x), ("", y)], args.m)
    make = make_v if which[0] == "v" else make_w
    print(make(int(which[1]), x, y, p))
    return EXIT_OK


def _cmd_lpp(args) -> int:
    if args.action == "verify" and not args.assign:
        print("lpp verify needs --assign <file>", file=sys.stderr)
        return EXIT_USAGE
    cat = ledger.InequalityCatalog.from_path(args.catalog)
    if args.action == "solve":
        try:
            assignment = ledger.solve(cat)
        except Unsatisfiable as exc:
            print(f"unsatisfiable: item {exc.item_id}", file=sys.stderr)
            return EXIT_FAIL
        pairs = [(name, str(value)) for name, value in assignment.values().items()]
        pairs += [("h", assignment.h), ("d", assignment.d), ("n", assignment.n)]
        _emit(args, pairs)
        if args.out:
            ledger.save_assignment(assignment, args.out)
        return EXIT_OK
    assignment = ledger.load_assignment(args.assign)
    rep = ledger.verify(assignment, cat)
    for res in rep.item_results:
        status = "pass" if res.passed else "FAIL"
        _emit(args, [(res.id, f"{status} lhs={res.lhs} rhs={res.rhs}")])
    for problem in rep.structural_problems:
        _emit(args, [("structural", problem)])
    _emit(args, [("overall", "pass" if rep.passed else "fail")])
    return EXIT_OK if rep.passed else EXIT_FAIL


def _cmd_graded(args) -> int:
    if args.action == "build":
        p = _params_from_args(args)
        # an unwritable --out path fails here, before the build; "a" truncates nothing
        created = args.out and not os.path.exists(args.out)
        if args.out:
            open(args.out, "a", encoding="utf-8").close()
        try:
            pres = graded.build_presentation(
                Alphabet(args.m or 2), p, max_rank=args.rank or 2,
                pair_budget=args.pair_budget or 1)
        except BaseException:
            if created:  # a build that stops leaves no file where there was none
                os.remove(args.out)
            raise
        pairs = []
        for idx in sorted(pres.ranks):
            data = pres.ranks[idx]
            pairs.append((f"rank{idx}",
                          f"provenance={data.provenance} periods={len(data.periods)} "
                          f"relators={len(data.relators)}"))
        _emit(args, pairs)
        if args.out:
            graded.save_presentation(pres, args.out)
        return EXIT_OK
    if not args.relators:
        print(f"graded {args.action} needs --relators <file>", file=sys.stderr)
        return EXIT_USAGE
    if args.action == "dehn" and not args.words:
        print("graded dehn needs a word file", file=sys.stderr)
        return EXIT_USAGE
    relators = _read_relators(args.relators, args.m)
    if args.action == "pieces":
        piece, lam = graded.piece_stats(relators)
        _emit(args, [("max_piece", piece), ("lambda", lam)])
        return EXIT_OK
    # dehn over a word file
    if not relators:
        raise EmptyInput(f"{args.relators}: no relators")
    words = _read_relators(args.words, relators[0].alphabet.m)
    table = graded._RelatorTable(relators)
    budget = graded.DEFAULT_DEHN_BUDGET if args.budget_dehn is None else args.budget_dehn
    indeterminate = False
    for w in words:
        res = graded.dehn_reduce_trace(w, table, budget)
        status = "indeterminate" if res.exhausted else "reduced"
        indeterminate = indeterminate or res.exhausted
        _emit(args, [(status, str(res.word))])
    return EXIT_INDETERMINATE if indeterminate else EXIT_OK


def _cmd_endo(args) -> int:
    p = _params_from_args(args)
    checks = endo.check_report(p)
    for c in checks:
        _emit(args, [(c.name, "PASS" if c.passed else "FAIL")])
    _emit(args, [("group-level", "INDETERMINATE (asserted, not desk-checkable)")])
    return EXIT_OK if all(c.passed for c in checks) else EXIT_FAIL


def _cmd_vkd(args) -> int:
    cert = diagrams.load_certificate(args.certificate)
    relators = _read_relators(args.relators, cert.alphabet.m)
    result = diagrams.check_certificate(cert, relators)
    _emit(args, [("verdict", "ACCEPT" if result.accepted else "REJECT")])
    if result.reason:
        _emit(args, [("reason", result.reason)])
    for warning in result.warnings:
        _emit(args, [("warning", warning)])
    return EXIT_OK if result.accepted else EXIT_FAIL


def _cmd_report(args) -> int:
    results = report.run_all(args.seed)
    if args.output == "kv":
        # timings are omitted here so the output is byte-stable for CI diffing
        for res in results:
            print(f"criterion={res.id} name={res.name} "
                  f"pass={'true' if res.passed else 'false'} "
                  f"detail={shlex.quote(res.detail)}")
    else:
        for res in results:
            print(res.line())
    return EXIT_OK if all(res.passed for res in results) else EXIT_FAIL


# -- parser --------------------------------------------------------------------

_COMMANDS = {  # name -> (help line, handler), in the order the usage lists them
    "word": ("free-group word operations", _cmd_word),
    "verbal": ("identity-word constructors", _cmd_verbal),
    "lpp": ("parameter-chain ledger", _cmd_lpp),
    "graded": ("periods, relators, Dehn rewriting", _cmd_graded),
    "endo": ("endomorphism witness checks", _cmd_endo),
    "vkd": ("diagram certificate checking", _cmd_vkd),
    "report": ("run the acceptance criteria", _cmd_report),
}


# command -> option -> the actions that read it; given to another action, the
# option is a usage error rather than ignored
_ACTION_OPTIONS = {
    "verbal": {"which": ("build", "length"), "x": ("build",), "y": ("build",), "m": ("build",),
               "lx": ("length",), "ly": ("length",), "i": ("epsilon",),
               **dict.fromkeys(("h", "d", "n"), ("build", "length"))},
    "lpp": {"assign": ("verify",), "out": ("solve",)},
    "graded": {"budget_dehn": ("dehn",), "relators": ("dehn", "pieces"), "out": ("build",),
               "rank": ("build",), "pair_budget": ("build",),
               **dict.fromkeys(("h", "d", "n"), ("build",))},
}


def _add_arguments(sub: argparse.ArgumentParser, name: str) -> None:
    """Give ``sub`` the arguments of command ``name``, and its handler."""
    if name == "word":
        sub.add_argument("action", choices=("reduce", "canon", "root", "conj"))
        sub.add_argument("word")
        sub.add_argument("other", nargs="?", help="second word for conj")
        sub.add_argument("--m", type=int, help="alphabet size (default: inferred)")
    elif name == "verbal":
        sub.add_argument("action", choices=("build", "length", "epsilon"))
        # no defaults: an option given to an action that does not read it is
        # refused (_ACTION_OPTIONS), and _cmd_verbal applies w1, a1, a2, 1, 1, 1
        sub.add_argument("--which", choices=("v0", "v1", "v2", "w1", "w2"))
        sub.add_argument("--x")
        sub.add_argument("--y")
        sub.add_argument("--lx", type=int)
        sub.add_argument("--ly", type=int)
        sub.add_argument("--i", type=int, help="index for epsilon")
        sub.add_argument("--m", type=int)
    elif name == "lpp":
        sub.add_argument("action", choices=("verify", "solve"))
        sub.add_argument("catalog", help="inequality catalog file")
        sub.add_argument("--assign", help="assignment file (for verify)")
        sub.add_argument("--out", help="write the solved assignment here")
    elif name == "graded":
        sub.add_argument("action", choices=("build", "dehn", "pieces"))
        sub.add_argument("words", nargs="?", help="word file (for dehn)")
        sub.add_argument("--relators", help="relator file (one word per line)")
        sub.add_argument("--rank", type=int)
        sub.add_argument("--pair-budget", type=int)
        sub.add_argument("--budget-dehn", type=int, dest="budget_dehn",
                         help="rewriting steps per word (graded dehn only; default "
                              f"{graded.DEFAULT_DEHN_BUDGET})")
        sub.add_argument("--m", type=int)
        sub.add_argument("--out", help="write the presentation file here")
    elif name == "endo":
        sub.add_argument("action", choices=("check",))
    elif name == "vkd":
        sub.add_argument("action", choices=("check",))
        sub.add_argument("certificate")
        sub.add_argument("--relators", required=True)
    if name in ("verbal", "graded", "endo"):
        for flag in ("--h", "--d", "--n"):  # no default: see _params_from_args
            sub.add_argument(flag, type=int)
    sub.add_argument("--output", choices=("text", "kv"), default="text")
    if name == "report":
        sub.add_argument("--seed", type=int, default=0)
    sub.set_defaults(command=name, func=_COMMANDS[name][1])


def build_parser() -> argparse.ArgumentParser:
    """The parser of all seven commands, as subparsers."""
    parser = argparse.ArgumentParser(
        prog="relfree",
        description="word algebra, identity-word templates, parameter ledger, "
                    "graded presentations, endomorphism witnesses, and diagram "
                    "certificates, from one deterministic command")
    subs = parser.add_subparsers(dest="command", required=True)
    for name, (help_line, _) in _COMMANDS.items():
        _add_arguments(subs.add_parser(name, help=help_line), name)
    return parser


def _command_parser(name: str) -> argparse.ArgumentParser:
    """The parser of command ``name`` alone, as ``build_parser`` makes it."""
    parser = argparse.ArgumentParser(prog=f"relfree {name}")
    _add_arguments(parser, name)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        if argv and argv[0] in _COMMANDS:
            args = _command_parser(argv[0]).parse_intermixed_args(argv[1:])
        else:  # no command first: usage, --help, or an unknown command
            args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    for name in ("budget_dehn", "pair_budget", "rank"):
        value = getattr(args, name, None)
        if value is not None and value < 1:
            print(f"{name.replace('_', '-')} must be positive", file=sys.stderr)
            return EXIT_USAGE
    if getattr(args, "words", None) is not None and args.action != "dehn":
        print(f"graded {args.action} takes no word file, not {args.words!r}", file=sys.stderr)
        return EXIT_USAGE
    for name, actions in _ACTION_OPTIONS.get(args.command, {}).items():
        if getattr(args, name) is not None and args.action not in actions:
            readers = " and ".join(f"{args.command} {action}" for action in actions)
            print(f"--{name.replace('_', '-')} applies to {readers} only, "
                  f"not {args.command} {args.action}", file=sys.stderr)
            return EXIT_USAGE
    try:
        return args.func(args)
    except BudgetExceeded as exc:
        print(f"indeterminate: {exc}", file=sys.stderr)
        return EXIT_INDETERMINATE
    except RelfreeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL
    except OSError as exc:  # a path that is missing, a directory, or unreadable
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
