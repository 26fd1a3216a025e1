"""Command line surface: every operation behind one batch binary.

Exit codes: 0 on success, 2 on usage or validation errors, 1 on internal
errors.  ``--json`` emits machine-readable output, byte-identical across
runs; the default is a short human-readable report.  All file formats are
the JSON schemas of the owning modules.  Each subcommand imports only the
layers it calls, so a call pays start-up only for the code it runs, and no
layer imports `dataclasses`, whose import and class building would add about
20 ms to every call.
"""

from __future__ import annotations

import argparse
import json
import sys


class UsageError(ValueError):
    pass


def _emit(args, payload: dict, pretty: str) -> None:
    if args.json:
        sys.stdout.write(json.dumps(payload, sort_keys=True) + "\n")
    else:
        sys.stdout.write(pretty + "\n")


def _read_json(path: str):
    """The JSON document in the file `path`; a decode failure is exit 2 and names the file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except RecursionError:
            raise UsageError(f"{path}: JSON nested too deeply") from None
        except ValueError as exc:  # bad JSON, bad UTF-8, an integer past the digit limit
            raise UsageError(f"{path}: {exc}") from None


def _load_book(path: str) -> RationalOpenBook:
    from .openbook import OpenBookError, RationalOpenBook, validate
    book = RationalOpenBook.from_json(_read_json(path))
    problems = validate(book)
    if problems:
        raise OpenBookError(f"invalid book {path}: " + "; ".join(problems))
    return book


def _load_word(path: str) -> TwistWord:
    from .words import TwistWord
    return TwistWord.from_json(_read_json(path))


def cmd_slopes(args) -> None:
    from .slopes import Slope, exceptional_slopes, farey_shortest_path, neg_cont_frac
    if (args.target is None) == (args.op == "path"):
        count = "two slopes" if args.target is None else "one slope"
        raise UsageError(f"slopes {args.op} takes {count}")
    if args.op == "exceptional":
        values = exceptional_slopes(Slope.parse(args.slope))
        _emit(args, {"exceptional_slopes": [str(s) for s in values]},
              "[" + ", ".join(str(s) for s in values) + "]")
    elif args.op == "path":
        path = farey_shortest_path(Slope.parse(args.slope), Slope.parse(args.target))
        _emit(args, {"path": [str(s) for s in path]},
              " -> ".join(str(s) for s in path))
    else:  # "ncf": argparse's choices refuse any other op with exit 2
        cf = neg_cont_frac(Slope.parse(args.slope))
        _emit(args, {"terms": list(cf.terms)}, str(list(cf.terms)))


def cmd_torus_knot(args) -> None:
    from .lens import (LensTorusKnot, boundary_count, boundary_wrap, euler_characteristic,
                       homological_order, is_rational_unknot, is_trivial)
    K = LensTorusKnot(r=args.r, s=args.s, k=args.k, l=args.l)
    if is_trivial(K):
        payload = {"trivial": True, "rational_unknot": is_rational_unknot(K)}
        _emit(args, payload, "trivial torus knot (bounds a disk)")
        return
    payload = {
        "trivial": False,
        "euler_characteristic": euler_characteristic(K),
        "boundary_count": boundary_count(K),
        "order": homological_order(K),
        "wrap": boundary_wrap(K),
        "rational_unknot": is_rational_unknot(K),
    }
    _emit(
        args,
        payload,
        f"chi = {payload['euler_characteristic']}, boundary components = "
        f"{payload['boundary_count']}, homological order = {payload['order']}, "
        f"per-boundary wrap = {payload['wrap']}, rational unknot: "
        f"{payload['rational_unknot']}",
    )


def cmd_classify(args) -> None:
    from .classify import CableCoefficients, classify_cable
    book = _load_book(args.book)
    coeffs = CableCoefficients.parse(args.cable)
    verdict = classify_cable(book, coeffs)
    payload = verdict.to_json()
    _emit(args, payload, f"kind={payload['kind']}"
          + (f", hopf_delta={payload['hopf_delta']}" if payload["hopf_delta"] is not None else "")
          + (f"\nLutz recipe: {payload['lutz_recipe']}" if payload["lutz_recipe"] else "")
          + (f"\nnote: {payload['note']}" if payload["note"] else ""))


def cmd_cable_page(args) -> None:
    from .classify import CableCoefficients, cabled_page
    book = _load_book(args.book)
    coeffs = CableCoefficients.parse(args.cable)
    out = cabled_page(book, coeffs)
    _emit(args, out.to_json(),
          f"genus {out.genus}, {out.boundary_count_of_page} boundary components, "
          f"chi = {out.page_euler_char}")


def cmd_resolve(args) -> None:
    from .classify import resolve
    book = _load_book(args.book)
    rational = sum(1 for c in book.components if c.order > 1)
    try:
        l_coeffs = [int(x) for x in args.l.split(",")] if args.l else [0] * rational
    except ValueError:
        raise UsageError(f"--l expects l1,l2,... with integer entries, got {args.l!r}") from None
    out = resolve(book, l_coeffs)
    pretty = (
        f"genus {out.genus}, {out.boundary_count_of_page} boundary components"
        + (f"\nword: {out.monodromy}" if out.monodromy is not None else "")
    )
    _emit(args, out.to_json(), pretty)


def cmd_surgery(args) -> None:
    from .classify import induced_open_book_from_surgery, surgery_admissible
    from .slopes import Slope
    book = _load_book(args.book)
    coefficient = Slope.parse(args.coefficient)
    out = induced_open_book_from_surgery(book, args.component, coefficient)
    admissible = surgery_admissible(coefficient, book.components[args.component].seifert_slope)
    payload = {"admissible": admissible, "book": out.to_json()}
    new_comp = out.components[args.component]
    _emit(args, payload,
          f"admissible: {admissible}; induced component order {new_comp.order}, "
          f"Seifert numerator {new_comp.seifert_numerator}")


def cmd_monodromy(args) -> None:
    from .classify import CableCoefficients
    from .monodromy import monodromy_pq
    book = _load_book(args.book)
    pairs = CableCoefficients.parse(args.cable).pairs
    if len(pairs) != 1:
        raise UsageError(f"--cable expects one pair p,q, got {args.cable!r}")
    cw = monodromy_pq(book, *pairs[0])
    payload = {
        "word": cw.word.to_json(),
        "page": cw.book.to_json(),
        "factorization": str(cw.word),
    }
    _emit(args, payload, f"page: genus {cw.book.genus}, "
          f"{cw.book.boundary_count_of_page} boundary\n{cw.word}")


def cmd_obstruction(args) -> None:
    from .monodromy import stein_obstruction_Lppm1
    report = stein_obstruction_Lppm1(args.p)
    _emit(args, report.to_json(), report.summary())


def cmd_verify_word(args) -> int:
    from . import library
    systems = {
        "sigma22_g1": library.sigma22_script_system,
        "resolved_neg_cable_g1": library.resolved_system,
    }
    if args.system not in systems:
        raise UsageError(f"unknown system {args.system!r}; pick from {sorted(systems)}")
    sys_ = systems[args.system]()
    w1 = _load_word(args.word1)
    w2 = _load_word(args.word2)
    equal = sys_.word_delta(w1) == sys_.word_delta(w2)
    _emit(args, {"equal_on_homology": equal},
          "equal on homology" if equal else "NOT equal on homology")
    return 0 if equal else 2


def cmd_replay_script(args) -> None:
    from .library import SCRIPT_BUILDERS
    if args.name not in SCRIPT_BUILDERS:
        raise UsageError(f"unknown script {args.name!r}; pick from {sorted(SCRIPT_BUILDERS)}")
    bundle = SCRIPT_BUILDERS[args.name]()
    result = bundle.replay()
    payload = {
        "script": args.name,
        "final_word": result.word.to_json(),
        "steps": len(bundle.script.steps),
        "all_positive": result.word.is_positive(),
        "verified": result.verified,
    }
    _emit(args, payload,
          f"{args.name}: {len(bundle.script.steps)} steps verified\n"
          f"final word: {result.word}\nall positive: {result.word.is_positive()}")


def cmd_compose_cobordism(args) -> None:
    from .monodromy import compose_cobordism_word
    book = _load_book(args.page)
    w1 = _load_word(args.word1)
    w2 = _load_word(args.word2)
    cw = compose_cobordism_word(w1, w2, book)
    payload = {"word": cw.word.to_json(), "certificate": cw.notes}
    _emit(args, payload, f"{cw.word}\ncertificate: {payload['certificate']}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cablekit",
        description="exact calculator for cables of (rational) open books",
    )
    parser.add_argument("--json", action="store_true", help="machine-readable output")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("slopes", help="slope calculus")
    p.add_argument("op", choices=["exceptional", "path", "ncf"])
    p.add_argument("slope")
    p.add_argument("target", nargs="?", default=None)
    p.set_defaults(func=cmd_slopes)

    p = sub.add_parser("torus-knot", help="fiber invariants on the Heegaard torus")
    for name in ("r", "s", "k", "l"):
        p.add_argument(f"--{name}", type=int, required=True)
    p.set_defaults(func=cmd_torus_knot)

    p = sub.add_parser("classify", help="contact verdict of a cabling")
    p.add_argument("--book", required=True)
    p.add_argument("--cable", required=True, help='pairs "p,q;p,q;..."')
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("cable-page", help="page data of a cabling")
    p.add_argument("--book", required=True)
    p.add_argument("--cable", required=True)
    p.set_defaults(func=cmd_cable_page)

    p = sub.add_parser("resolve", help="integral resolution of a rational book")
    p.add_argument("--book", required=True)
    p.add_argument("--l", default="", help='resolution coefficients "l1,l2,..."')
    p.set_defaults(func=cmd_resolve)

    p = sub.add_parser("surgery", help="induced open book of a Dehn surgery")
    p.add_argument("--book", required=True)
    p.add_argument("--component", type=int, default=0)
    p.add_argument("--coefficient", required=True)
    p.set_defaults(func=cmd_surgery)

    p = sub.add_parser("monodromy", help="cable monodromy word")
    p.add_argument("--book", required=True)
    p.add_argument("--cable", required=True, help='"p,q"')
    p.set_defaults(func=cmd_monodromy)

    p = sub.add_parser("obstruction", help="positive-factorization obstruction")
    p.add_argument("--p", type=int, required=True)
    p.set_defaults(func=cmd_obstruction)

    p = sub.add_parser("verify-word", help="homology oracle on two word files")
    p.add_argument("--system", required=True)
    p.add_argument("word1")
    p.add_argument("word2")
    p.set_defaults(func=cmd_verify_word)

    p = sub.add_parser("replay-script", help="replay a shipped rewrite script")
    p.add_argument("name")
    p.set_defaults(func=cmd_replay_script)

    p = sub.add_parser("compose-cobordism", help="cobordism word of two monodromies")
    p.add_argument("--page", required=True)
    p.add_argument("word1")
    p.add_argument("word2")
    p.set_defaults(func=cmd_compose_cobordism)
    return parser


def _read_negative_values(argv):
    """Read each token that starts with '-' and a digit (-2,1, -1/3) as a value:
    joined to the option before it (`--cable=-2,1`), or else put behind a `--`.
    Tokens after a `--` of the caller's are values already and stay as they are."""
    out = []
    for i, token in enumerate(argv):
        if token == "--":
            return out + list(argv[i:])
        if token[:1] == "-" and token[1:2].isdecimal():
            if out and out[-1].startswith("-") and "=" not in out[-1]:
                out[-1] += "=" + token
                continue
            return out + ["--", *argv[i:]]
        out.append(token)
    return out


def main(argv=None) -> int:
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = parser.parse_args(_read_negative_values(argv))
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args) or 0
    except (ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except Exception as exc:
        sys.stderr.write(f"internal error: {str(exc) or type(exc).__name__}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
