"""Command-line front end.

Subcommands: ``nerve``, ``refine``, ``groupoid``, ``descend``,
``progroupoid``.  All reports are JSON with sorted keys, byte-identical
across runs for identical inputs and budgets.  Exit codes: 0 success, 1
mathematical failure (violations or false verdicts), 2 input error,
including a file that cannot be read, is not UTF-8, nests too deeply to
read or cannot be written.

Budgets default from the environment: ``TOPOSDESCENT_WORD_BUDGET``,
``TOPOSDESCENT_ACTION_BOUND``, ``TOPOSDESCENT_SPAN_BOUND``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .covering import is_covering_projection, main1_forward, main2_equivalence
from .descent import h_to_u, induced_h_from_s, validate_u_descent
from .dot import presentation_dot, sset_dot
from .errors import ConditionGFailure, EmptyComponentError
from .family import ClassSpan, condition_g, validate_selfdual
from .groupoid import fundamental_presentation, g_fundamental_presentation
from .hypercover import (
    SpanClass,
    SpanClassSp,
    connected_refinement,
    hypercover_report,
    is_hypercover,
    one_span_refinement,
    zero_span_refinement,
)
from .progroupoid import HypercoverIndex, assemble, inclusion_morphism
from .serialize import (
    SerializationError,
    dec_label,
    enc_label,
    family_from_json,
    presheaf_from_json,
    presheaf_map_from_json,
    sdescent_to_json,
    selfdual_family_to_json,
    sset_to_json,
    udescent_from_json,
)
from .simplicial import cech_nerve, check_selfdual_groupoid_condition, validate, validate_duality


class InputError(Exception):
    pass


class MathFailure(Exception):
    def __init__(self, report):
        super().__init__("verification failed")
        self.report = report


def _env_int(name, default):
    raw = os.environ.get(name)
    if raw is None:
        return default
    try:
        value = int(raw)
    except ValueError:
        raise InputError(f"{name} must be an integer, got {raw!r}")
    return value


def _load_json(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}")
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: not UTF-8: {exc}")
    except RecursionError:
        raise InputError(f"{path}: JSON nests too deeply to read")
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}")


def _load_cover(path):
    try:
        return family_from_json(_load_json(path))
    except SerializationError as exc:
        raise InputError(f"{path}: {exc}")


def _emit(report, out):
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    if out:
        _write(out, text)
    else:
        sys.stdout.write(text)


def _write(path, text):
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc}")


def cmd_nerve(args):
    cover = _load_cover(args.cover)
    try:
        nerve, tau = cech_nerve(cover)
    except EmptyComponentError as exc:
        raise InputError(str(exc))
    report = {
        "counts": {"N0": len(nerve.s0), "N1": len(nerve.s1), "N2": len(nerve.s2)},
        "nerve": sset_to_json(nerve, tau),
        "valid": not validate(nerve) and not validate_duality(nerve, tau),
        "selfdual_groupoid_condition": check_selfdual_groupoid_condition(nerve, tau),
    }
    if args.dot:
        _write(args.dot, sset_dot(nerve))
    _emit(report, args.out)
    return report


def _load_span_class(spec, cover):
    kind, _, path = spec.partition(":")
    if kind == "connected":
        return ("connected", None)
    if kind == "zero":
        data = _load_json(path)
        try:
            members = tuple(
                presheaf_from_json(m, cover.total.base) for m in data["members"]
            )
            return ("zero", SpanClass(members))
        except (SerializationError, AttributeError, KeyError, TypeError, ValueError) as exc:
            raise InputError(f"{path}: {exc}")
    if kind == "one":
        data = _load_json(path)
        try:
            from .fintopos import family_components

            comps = family_components(cover)
            memo = {}
            spans = []
            for raw in data["spans"]:
                i, j = dec_label(raw["i"], memo), dec_label(raw["j"], memo)
                vertex = presheaf_from_json(raw["vertex"], cover.total.base, memo)
                legs = []
                for k, side in ((i, "left"), (j, "right")):
                    cod = comps[k]  # an unknown component is reported before a missing leg
                    legs.append(presheaf_map_from_json(raw[side], vertex, cod, memo))
                spans.append(ClassSpan(i, j, vertex, *legs))
            return ("one", SpanClassSp(tuple(spans)))
        except (SerializationError, AttributeError, KeyError, TypeError, ValueError) as exc:
            raise InputError(f"{path}: {exc}")
    raise InputError(f"unknown span class {spec!r} (use connected, zero:FILE, one:FILE)")


def cmd_refine(args):
    cover = _load_cover(args.cover)
    kind, cls = _load_span_class(args.cls, cover)
    try:
        if kind == "connected":
            fam = connected_refinement(cover, require_connected=args.require_connected)
        elif kind == "zero":
            if len(cls.members) > args.span_bound:
                raise InputError("span class exceeds the size bound")
            fam = zero_span_refinement(cover, cls)
        else:
            if len(cls.members) > args.span_bound:
                raise InputError("span class exceeds the size bound")
            fam = one_span_refinement(cover, cls)
    except (EmptyComponentError, ValueError) as exc:
        raise InputError(str(exc))
    violations = validate_selfdual(fam)
    cond = condition_g(fam)
    hyper = is_hypercover(fam.base, cover)
    report = {
        "family": selfdual_family_to_json(fam),
        "selfdual_violations": violations,
        "condition_g": cond,
        "hypercover": hyper,
    }
    if not hyper:
        raw = hypercover_report(fam.base)
        report["uncovered"] = {
            "level1": {
                enc_label(k): [[enc_label(p), enc_label(e)] for p, e in v]
                for k, v in raw["level1"].items()
                if v
            },
            "level2": {
                enc_label(k): [[enc_label(p), enc_label(e)] for p, e in v]
                for k, v in raw["level2"].items()
                if v
            },
        }
    _emit(report, args.out)
    if violations or not cond or not hyper:
        raise MathFailure(report)
    return report


def cmd_groupoid(args):
    data = _load_json(args.family)
    if "S0" in data:
        if args.g:
            raise InputError("--g needs a full simplicial family, not a bare simplicial set")
        from .serialize import sset_from_json

        try:
            sset, _ = sset_from_json(data)
        except SerializationError as exc:
            raise InputError(f"{args.family}: {exc}")
        pres = fundamental_presentation(sset)
    else:
        from .serialize import selfdual_family_from_json

        try:
            fam = selfdual_family_from_json(data)
        except SerializationError as exc:
            raise InputError(f"{args.family}: {exc}")
        violations = validate_selfdual(fam)
        if violations:
            raise InputError(f"{args.family}: not a self-dual simplicial family: {violations[0]}")
        if args.g:
            try:
                pres = g_fundamental_presentation(fam)
            except ConditionGFailure as exc:
                raise InputError(f"{args.family}: {exc}")
        else:
            pres = fundamental_presentation(fam.base.sset)
    report = {
        "objects": [enc_label(o) for o in pres.objects],
        "generator_count": len(pres.generators),
        "relation_count": len(pres.relations),
        "generators": [
            {
                "label": enc_label(g),
                "src": enc_label(pres.src[g]),
                "tgt": enc_label(pres.tgt[g]),
            }
            for g in pres.generators
        ],
    }
    if args.dot:
        _write(args.dot, presentation_dot(pres))
    _emit(report, args.out)
    return report


def cmd_descend(args):
    cover = _load_cover(args.cover)
    try:
        datum = udescent_from_json(_load_json(args.datum), cover)
    except SerializationError as exc:
        raise InputError(f"{args.datum}: {exc}")
    # --check reports the violations; the other modes stop on them
    violations = validate_u_descent(datum)
    if args.mode == "check" or violations:
        report = {"violations": violations}
        _emit(report, args.out)
        if violations:
            raise MathFailure(report)
        return report
    if args.mode == "glue":
        from .covering import glue
        from .serialize import presheaf_to_json

        lc = glue(cover, datum)
        report = {"X_size": lc.space.size(), "X": presheaf_to_json(lc.space)}
        _emit(report, args.out)
        return report
    if args.mode == "covproj":
        verdict = is_covering_projection(cover, datum)
        report = {"covering_projection": verdict}
        _emit(report, args.out)
        if not verdict:
            raise MathFailure(report)
        return report
    if args.mode == "main1":
        fam, sdatum = main1_forward(cover, datum)
        back = h_to_u(induced_h_from_s(sdatum, fam), cover)
        residual = []
        for pair in sorted(datum.sigma, key=lambda x: enc_label(x)):
            if back.sigma.get(pair) != datum.sigma[pair]:
                residual.append(enc_label(pair))
        report = {
            "generator_count": len(fam.base.sset.s1),
            "s_datum": sdescent_to_json(sdatum),
            "round_trip_residual": residual,
        }
        _emit(report, args.out)
        if residual:
            raise MathFailure(report)
        return report
    if args.mode == "main2":
        fam = connected_refinement(cover)
        rep = main2_equivalence(cover, fam, args.action_bound)
        report = {
            "object_count_data": rep.object_count_data,
            "object_count_actions": rep.object_count_actions,
            "hom_counts_match": rep.hom_counts_data == rep.hom_counts_actions,
            "round_trips_identity": rep.round_trips_identity,
            "ok": rep.ok,
        }
        _emit(report, args.out)
        if not rep.ok:
            raise MathFailure(report)
        return report
    raise InputError(f"unknown mode {args.mode!r}")


def cmd_progroupoid(args):
    data = _load_json(args.index)
    try:
        names = [n["name"] for n in data["nodes"]]
        covers, nodes = {}, {}
        for n in data["nodes"]:
            cover = family_from_json(n["cover"])
            if n.get("class", "connected") != "connected":
                raise InputError("only the connected class is supported in index files")
            covers[n["name"]] = cover
            nodes[n["name"]] = connected_refinement(cover)
        refinements = {}
        for a, b in data.get("edges", []):
            refinements[(a, b)] = inclusion_morphism(nodes[a], nodes[b])
        pi = HypercoverIndex(covers, nodes, refinements)
    except InputError:
        raise
    except (SerializationError, EmptyComponentError, KeyError, TypeError, ValueError) as exc:
        raise InputError(f"{args.index}: {exc}")
    _, strictness = assemble(pi, budget=args.word_budget)
    report = {
        "transitions": {
            f"{a}->{b}": {
                "strict": rep.strict,
                "failures": rep.failures,
                "undetermined": rep.undetermined,
            }
            for (a, b), rep in strictness.items()
        }
    }
    _emit(report, args.out)
    if any(not rep.strict for rep in strictness.values()):
        raise MathFailure(report)
    return report


def build_parser():
    parser = argparse.ArgumentParser(
        prog="toposdescent",
        description="Nerves, span refinements, descent data and covering "
        "projections over finite presheaf topoi.",
    )
    parser.add_argument("--word-budget", type=int, default=None, help="rewriting search depth")
    parser.add_argument("--action-bound", type=int, default=None, help="carrier size bound")
    parser.add_argument("--span-bound", type=int, default=None, help="span class size bound")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("nerve", help="nerve of a cover, with its duality")
    p.add_argument("cover")
    p.add_argument("--dot", help="write the 1-skeleton as DOT")
    p.add_argument("--out", help="write the JSON report to a file")
    p.set_defaults(func=cmd_nerve)

    p = sub.add_parser("refine", help="span refinement of a cover, with verdicts")
    p.add_argument("cover")
    p.add_argument("--class", dest="cls", required=True, help="connected | zero:FILE | one:FILE")
    p.add_argument(
        "--require-connected",
        action="store_true",
        help="with --class connected, reject covers with disconnected components",
    )
    p.add_argument("--out", help="write the JSON report to a file")
    p.set_defaults(func=cmd_refine)

    p = sub.add_parser("groupoid", help="fundamental groupoid presentation")
    p.add_argument("family", help="simplicial family JSON, or bare simplicial set JSON")
    p.add_argument("--g", action="store_true", help="refine by span morphisms")
    p.add_argument("--dot", help="write the presentation as DOT")
    p.add_argument("--out", help="write the JSON report to a file")
    p.set_defaults(func=cmd_groupoid)

    p = sub.add_parser("descend", help="descent pipelines over a cover")
    p.add_argument("cover")
    p.add_argument("datum", help="cover descent datum JSON")
    group = p.add_mutually_exclusive_group(required=True)
    for mode, text in (
        ("check", "validate the datum"),
        ("glue", "glue the datum to a presheaf"),
        ("covproj", "covering projection verdict"),
        ("main1", "refine by action spans and round-trip the datum"),
        ("main2", "compare consistent data with groupoid actions"),
    ):
        group.add_argument(f"--{mode}", dest="mode", action="store_const", const=mode, help=text)
    p.add_argument("--out", help="write the JSON report to a file")
    p.set_defaults(func=cmd_descend)

    p = sub.add_parser("progroupoid", help="strictness of a hypercover chain")
    p.add_argument("index", help="index JSON: nodes (name, cover, class) and edges")
    p.add_argument("--out", help="write the JSON report to a file")
    p.set_defaults(func=cmd_progroupoid)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.word_budget is None:
            args.word_budget = _env_int("TOPOSDESCENT_WORD_BUDGET", 10)
        if args.action_bound is None:
            args.action_bound = _env_int("TOPOSDESCENT_ACTION_BOUND", 2)
        if args.span_bound is None:
            args.span_bound = _env_int("TOPOSDESCENT_SPAN_BOUND", 64)
        if min(args.word_budget, args.action_bound, args.span_bound) <= 0:
            raise InputError("budgets must be positive")
        args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MathFailure:
        return 1
    return 0


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
