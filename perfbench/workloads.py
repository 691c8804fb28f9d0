"""The four workloads: preparation, set-up and job list of each.

``prepare(seed)`` returns the run's ``Corpus``: the committed files, each
checked once against its digest in ``corpus/expected.json`` and relabelled
for the seed.  That is benchmark work, not program work, so it is timed
apart from set-up.

``setup(corpus)`` decodes the inputs and builds the prebuilt ones.  It is
called once per pass, so no pass sees an object that an earlier pass
touched.

``jobs(inputs)`` returns the fixed job list ``[(job_id, fn)]``.  Each
``fn(p)`` drives the library's public functions in the order of the
matching CLI subcommand, wraps every call into a layer in ``p.span``, and
returns the job's answer: label-free ``counts`` (checked at every seed)
and a ``digest`` of the report bytes (checked at seed 0 only).
"""

import gzip
import hashlib
import json
from pathlib import Path

import toposdescent as td
from toposdescent.serialize import (
    dec_label,
    enc_label,
    family_from_json,
    hdescent_to_json,
    presheaf_from_json,
    presheaf_to_json,
    sdescent_to_json,
    selfdual_family_from_json,
    selfdual_family_to_json,
    sset_from_json,
    sset_to_json,
    udescent_from_json,
    udescent_to_json,
)

import relabel

CORPUS = Path(__file__).resolve().parent / "corpus"

COVERS = (
    "point-1x1",
    "point-1x2",
    "point-3x1",
    "point-2x3",
    "chain-rep",
    "chain-two-reps",
    "chain-rep-and-lower",
    "chain-constants",
    "vee-two-reps",
    "vee-branches",
    "diamond-rep",
    "diamond-mixed",
)
FIXTURE = "point-1x2"
ZERO_SPAN = ("point-3x1", "chain-two-reps", FIXTURE)
RELOAD_FAMILIES = ("point-2x3", "chain-constants", "vee-two-reps", "diamond-mixed")
CHAINS = (("point-1x1", "point-1x2"), ("chain-rep", "chain-two-reps"), ("point-1x1", "point-3x1"))
MAIN2_SMALL = ("point-3x1", "chain-rep", "chain-two-reps")
ENDO = (FIXTURE, "point-2x3")
ENDO_BUDGET = 6
INVERSE_BUDGET = 10


# ---------------------------------------------------------------- corpus


class Corpus:
    """The committed corpus for one run, relabelled for the seed."""

    def __init__(self, seed):
        self.seed = seed
        manifest = json.loads((CORPUS / "expected.json").read_text())["corpus"]
        self._raw = {}
        for rel, sha in manifest.items():
            data = (CORPUS / rel).read_bytes()
            if hashlib.sha256(data).hexdigest() != sha:
                raise ValueError(f"corpus file {rel} does not match its committed digest")
            self._raw[rel] = data
        self._families = {}

    def raw(self, rel):
        return self._raw[rel]

    def json(self, rel):
        return json.loads(self.raw(rel))

    def cover_map(self, name, cover_json):
        return relabel.label_map(relabel.element_labels(cover_json), self.seed, name)

    def cover(self, name):
        """(decoded cover, label map) of a suite cover."""
        raw = self.json(f"covers/{name}.json")
        m = self.cover_map(name, raw)
        return family_from_json(relabel.cover(raw, m)), m

    def family_text(self, name):
        """The relabelled ``refine`` output family of a suite cover, as
        JSON text; at seed 0 it must be the committed bytes."""
        if name not in self._families:
            m = self.cover_map(name, self.json(f"covers/{name}.json"))
            raw = gzip.decompress(self.raw(f"families/{name}.json.gz"))
            text = json.dumps(relabel.selfdual_family(json.loads(raw), m), sort_keys=True, separators=(",", ":"))
            if self.seed == 0 and text.encode() != raw:
                raise ValueError(f"family {name} does not re-encode byte for byte")
            self._families[name] = text
        return self._families[name]


def digest(obj):
    text = obj if isinstance(obj, str) else json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def report_text(report):
    """The bytes the CLI writes for a report."""
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


def note_sizes(p, fam):
    sset = fam.base.sset
    p.count("hypercover.s1", len(sset.s1))
    p.count("hypercover.s2", len(sset.s2))
    p.count("hypercover.h2_elems", fam.base.h2.size())


def family_counts(fam):
    sset = fam.base.sset
    return {
        "s0": len(sset.s0),
        "s1": len(sset.s1),
        "s2": len(sset.s2),
        "h1": fam.base.h1.size(),
        "h2": fam.base.h2.size(),
    }


def carrier_sizes(data):
    return sorted([len(d.carrier[i]) for i in sorted(d.carrier)] for d in data)


# ---------------------------------------------------------------- refine


def refine_setup(c):
    covers, zero = {}, {}
    for name in COVERS:
        covers[name], m = c.cover(name)
        if name in ZERO_SPAN:
            cls = relabel.zero_class(c.json(f"zero/{name}.json"), m)
            base = covers[name].total.base
            zero[name] = td.SpanClass(tuple(presheaf_from_json(x, base) for x in cls["members"]))
    return {"covers": covers, "zero": zero}


def _connected_job(cover):
    def job(p):
        with p.span("hypercover.build"):
            fam = td.connected_refinement(cover)
        with p.span("family.validate_selfdual"):
            bad = td.validate_selfdual(fam)
        with p.span("family.condition_g"):
            cond = td.condition_g(fam)
        with p.span("hypercover.coverage"):
            hyper = td.is_hypercover(fam.base, cover)
        with p.span("serialize.encode"):
            text = report_text(
                {
                    "family": selfdual_family_to_json(fam),
                    "selfdual_violations": bad,
                    "condition_g": cond,
                    "hypercover": hyper,
                }
            )
        p.count("serialize.encode.bytes", len(text))
        note_sizes(p, fam)
        counts = dict(
            family_counts(fam),
            elements=cover.total.size(),
            violations=len(bad),
            condition_g=cond,
            hypercover=hyper,
        )
        return {"counts": counts, "digest": digest(text)}

    return job


def _zero_job(cover, cls):
    def job(p):
        with p.span("hypercover.epi_criteria"):
            epi = td.check_epi_criteria(cover, cls)
        with p.span("hypercover.build"):
            fam = td.zero_span_refinement(cover, cls)
        with p.span("family.validate_selfdual"):
            bad = td.validate_selfdual(fam)
        with p.span("family.condition_g"):
            cond = td.condition_g(fam)
        with p.span("hypercover.coverage"):
            hyper = td.is_hypercover(fam.base, cover)
        note_sizes(p, fam)
        sset = fam.base.sset
        counts = dict(
            family_counts(fam),
            elements=cover.total.size(),
            epi=epi,
            violations=len(bad),
            condition_g=cond,
            hypercover=hyper,
        )
        # Encoding all 2-simplex labels of the fixture would cost half a
        # second per pass; every 100th one still pins their order.
        labels = [enc_label(x) for x in sset.s1] + [enc_label(x) for x in sset.s2[::100]]
        return {"counts": counts, "digest": digest(labels)}

    return job


def _nerve_job(cover):
    def job(p):
        with p.span("simplicial.nerve"):
            nerve, tau = td.cech_nerve(cover)
            valid = not td.validate(nerve) and not td.validate_duality(nerve, tau)
            cond = td.check_selfdual_groupoid_condition(nerve, tau)
        counts = {"N0": len(nerve.s0), "N1": len(nerve.s1), "N2": len(nerve.s2)}
        with p.span("serialize.encode"):
            text = report_text(
                {
                    "counts": counts,
                    "nerve": sset_to_json(nerve, tau),
                    "valid": valid,
                    "selfdual_groupoid_condition": cond,
                }
            )
        p.count("serialize.encode.bytes", len(text))
        return {"counts": dict(counts, valid=valid, condition=cond), "digest": digest(text)}

    return job


def refine_jobs(inp):
    covers = inp["covers"]
    jobs = [(f"connected/{n}", _connected_job(covers[n])) for n in COVERS]
    jobs += [(f"zero/{n}", _zero_job(covers[n], inp["zero"][n])) for n in ZERO_SPAN]
    jobs += [(f"nerve/{n}", _nerve_job(covers[n])) for n in COVERS]
    return jobs


# ---------------------------------------------------------------- reload


def reload_prepare(seed):
    c = Corpus(seed)
    for name in RELOAD_FAMILIES:
        c.family_text(name)
    return c


def reload_setup(c):
    covers = {name: c.cover(name)[0] for name in RELOAD_FAMILIES}
    cover_json = c.json(f"covers/{FIXTURE}.json")
    m = c.cover_map(FIXTURE, cover_json)
    data = [
        json.dumps(relabel.udatum(d, m), sort_keys=True)
        for d in c.json(f"data/{FIXTURE}-bound3.json")["data"]
    ]
    return {
        "covers": covers,
        "families": {name: c.family_text(name) for name in RELOAD_FAMILIES},
        "datum_cover": json.dumps(relabel.cover(cover_json, m)),
        "data": data,
    }


def _family_job(text, cover):
    def job(p):
        with p.span("serialize.decode"):
            fam = selfdual_family_from_json(json.loads(text))
        p.count("serialize.decode.bytes", len(text))
        with p.span("family.validate_selfdual"):
            bad = td.validate_selfdual(fam)
        with p.span("hypercover.coverage"):
            hyper = td.is_hypercover(fam.base, cover)
        with p.span("groupoid.presentation"):
            pres = td.g_fundamental_presentation(fam)
        note_sizes(p, fam)
        report = {
            "objects": [enc_label(o) for o in pres.objects],
            "generator_count": len(pres.generators),
            "relation_count": len(pres.relations),
            "generators": [
                {"label": enc_label(g), "src": enc_label(pres.src[g]), "tgt": enc_label(pres.tgt[g])}
                for g in pres.generators
            ],
        }
        counts = dict(
            family_counts(fam),
            violations=len(bad),
            hypercover=hyper,
            objects=len(pres.objects),
            generators=len(pres.generators),
            relations=len(pres.relations),
        )
        return {"counts": counts, "digest": digest(report_text(report))}

    return job


def _check_data_job(cover_text, texts):
    def job(p):
        with p.span("serialize.decode"):
            cover = family_from_json(json.loads(cover_text))
        p.count("serialize.decode.bytes", len(cover_text))
        data, reports, rejected = [], [], 0
        for text in texts:
            with p.span("serialize.decode"):
                u = udescent_from_json(json.loads(text), cover)
            p.count("serialize.decode.bytes", len(text))
            with p.span("descent.validate"):
                bad = td.validate_u_descent(u)
            rejected += bool(bad)
            data.append(u)
            reports.append(report_text({"violations": bad}))
        counts = {
            "data": len(data),
            "rejected": rejected,
            "carriers": carrier_sizes(data),
        }
        return {"counts": counts, "digest": digest(reports)}

    return job


def reload_jobs(inp):
    jobs = [
        (f"family/{n}", _family_job(inp["families"][n], inp["covers"][n])) for n in RELOAD_FAMILIES
    ]
    jobs.append((f"check/{FIXTURE}", _check_data_job(inp["datum_cover"], inp["data"])))
    return jobs


# ---------------------------------------------------------------- descent


def descent_setup(c):
    names = ("point-3x1", "chain-constants", FIXTURE, "chain-rep", "chain-two-reps")
    covers = {n: c.cover(n)[0] for n in names}
    refs = {n: td.connected_refinement(covers[n]) for n in (FIXTURE, "point-3x1", "chain-rep", "chain-two-reps")}
    m = c.cover_map(FIXTURE, c.json(f"covers/{FIXTURE}.json"))
    data = [
        udescent_from_json(relabel.udatum(d, m), covers[FIXTURE])
        for d in c.json(f"data/{FIXTURE}-bound3.json")["data"]
    ]
    return {"covers": covers, "refs": refs, "data": data}


def _enum_u_job(cover, bound):
    def job(p):
        with p.span("descent.enumerate"):
            data = td.enumerate_u_descent_data(cover, bound)
        p.count("descent.data", len(data))
        return {
            "counts": {"data": len(data), "carriers": carrier_sizes(data)},
            "digest": digest([udescent_to_json(u) for u in data]),
        }

    return job


def _enum_h_job(fam, bound):
    def job(p):
        with p.span("descent.enumerate"):
            data = td.enumerate_h_descent_data(fam, bound)
        p.count("descent.data", len(data))
        note_sizes(p, fam)
        return {
            "counts": {"data": len(data), "carriers": carrier_sizes(data)},
            "digest": digest([hdescent_to_json(h) for h in data]),
        }

    return job


def _round_trip_job(cover, fam, data):
    def job(p):
        same, images = 0, []
        for u in data:
            with p.span("descent.transfer"):
                h = td.u_to_h(u, fam)
                back = td.h_to_u(h, cover)
            same += back.carrier == u.carrier and back.sigma == u.sigma
            images.append(hdescent_to_json(h))
        return {"counts": {"data": len(data), "round_trips": same}, "digest": digest(images)}

    return job


def _main1_job(cover, data):
    def job(p):
        reports, gens, residual = [], [], 0
        for u in data:
            with p.span("covering.main1"):
                fam, sdatum = td.main1_forward(cover, u)
                back = td.h_to_u(td.induced_h_from_s(sdatum, fam), cover)
            bad = [pair for pair in u.sigma if back.sigma.get(pair) != u.sigma[pair]]
            residual += len(bad)
            gens.append(len(fam.base.sset.s1))
            reports.append(
                report_text(
                    {
                        "generator_count": len(fam.base.sset.s1),
                        "s_datum": sdescent_to_json(sdatum),
                        "round_trip_residual": sorted(enc_label(x) for x in bad),
                    }
                )
            )
        counts = {"data": len(data), "generators": sorted(gens), "residual": residual}
        return {"counts": counts, "digest": digest(reports)}

    return job


def _glue_job(cover, data):
    def job(p):
        sizes, same, proj, spaces = [], 0, 0, []
        for u in data:
            with p.span("covering.glue"):
                lc = td.glue(cover, u)
                back = td.extract_descent(lc)
                proj += td.is_covering_projection(cover, u)
            same += back.carrier == u.carrier and back.sigma == u.sigma
            sizes.append(lc.space.size())
            spaces.append(presheaf_to_json(lc.space))
        counts = {"data": len(data), "sizes": sorted(sizes), "round_trips": same, "covering": proj}
        return {"counts": counts, "digest": digest(spaces)}

    return job


def _main2_job(cover, fam, bound):
    def job(p):
        with p.span("covering.main2"):
            rep = td.main2_equivalence(cover, fam, bound)
        hom = sorted(rep.hom_counts_data.items())
        counts = {
            "objects_data": rep.object_count_data,
            "objects_actions": rep.object_count_actions,
            "homs": sorted(rep.hom_counts_data.values()),
            "homs_match": rep.hom_counts_data == rep.hom_counts_actions,
            "round_trips": rep.round_trips_identity,
            "ok": rep.ok,
        }
        return {"counts": counts, "digest": digest([[list(k), v] for k, v in hom])}

    return job


def descent_jobs(inp):
    covers, refs, data = inp["covers"], inp["refs"], inp["data"]
    fx = covers[FIXTURE]
    small = [u for u in data if all(len(c) <= 2 for c in u.carrier.values())]
    jobs = [
        ("enum_u/point-3x1/b4", _enum_u_job(covers["point-3x1"], 4)),
        ("enum_u/chain-constants/b4", _enum_u_job(covers["chain-constants"], 4)),
        (f"enum_u/{FIXTURE}/b3", _enum_u_job(fx, 3)),
        (f"enum_h/{FIXTURE}/b3", _enum_h_job(refs[FIXTURE], 3)),
        ("enum_h/point-3x1/b3", _enum_h_job(refs["point-3x1"], 3)),
        (f"uhu/{FIXTURE}", _round_trip_job(fx, refs[FIXTURE], data)),
        (f"main1/{FIXTURE}/b2", _main1_job(fx, small)),
        (f"glue/{FIXTURE}", _glue_job(fx, data)),
    ]
    jobs += [(f"main2/{n}/b2", _main2_job(covers[n], refs[n], 2)) for n in MAIN2_SMALL]
    jobs.append((f"main2/{FIXTURE}/b3", _main2_job(fx, refs[FIXTURE], 3)))
    return jobs


# ---------------------------------------------------------------- words


def _one_class(raw, cover):
    comps = td.family_components(cover)
    base = cover.total.base
    spans = []
    for sp in raw["spans"]:
        i, j = dec_label(sp["i"]), dec_label(sp["j"])
        vertex = presheaf_from_json(sp["vertex"], base)
        legs = [
            td.PresheafMap(
                vertex,
                comps[k],
                {dec_label(p): {dec_label(a): dec_label(b) for a, b in m.items()} for p, m in sp[side].items()},
            )
            for k, side in ((i, "left"), (j, "right"))
        ]
        spans.append(td.ClassSpan(i, j, vertex, legs[0], legs[1]))
    return td.SpanClassSp(tuple(spans))


def words_setup(c):
    refs = {}
    for name in COVERS:
        refs[name] = td.connected_refinement(c.cover(name)[0])
    sset, _ = sset_from_json(c.json("sset/free-endo.json"))
    chains = []
    for a, b in CHAINS:
        name = f"{a}--{b}"
        raw = c.json(f"index/{name}.json")
        labels = set().union(*(relabel.element_labels(n["cover"]) for n in raw["nodes"]))
        m = relabel.label_map(labels, c.seed, name)
        raw = relabel.index(raw, m)
        covers = {n["name"]: family_from_json(n["cover"]) for n in raw["nodes"]}
        nodes = {n: td.connected_refinement(cv) for n, cv in covers.items()}
        chains.append((name, covers, nodes, [tuple(e) for e in raw["edges"]]))
    raw_cover = c.json("strict/cover.json")
    m = c.cover_map("strict", raw_cover)
    cover = family_from_json(relabel.cover(raw_cover, m))
    strict = {
        name: td.one_span_refinement(cover, _one_class(relabel.one_class(c.json(f"strict/{name}.json"), m), cover))
        for name in ("small", "big")
    }
    chains.append(("strict", {"S": cover, "L": cover}, {"S": strict["small"], "L": strict["big"]}, [("S", "L")]))
    return {"refs": refs, "sset": sset, "chains": chains}


def _verdicts(p, pairs, pres, budget, **kw):
    tally, rows = {}, []
    for label, w1, w2 in pairs:
        with p.span("groupoid.word_equal"):
            v = td.word_equal(pres, w1, w2, budget, **kw)
        p.count("groupoid.word_equal.calls")
        p.count(f"groupoid.verdict.{v.value}")
        tally[v.value] = tally.get(v.value, 0) + 1
        rows.append([enc_label(label), v.value])
    return tally, rows


def _inverse_job(fam):
    def job(p):
        with p.span("groupoid.presentation"):
            pres = td.g_fundamental_presentation(fam)
        sset = fam.base.sset
        pairs = []
        for l in sset.s1:
            i = sset.d(1, 1, l)
            word = td.Word(i, ((l, 1), (fam.tau_s.op1(l), 1)))
            pairs.append((l, word, td.Word(i, ((sset.deg(0, 0, i), 1),))))
        note_sizes(p, fam)
        tally, rows = _verdicts(p, pairs, pres, INVERSE_BUDGET)
        return {"counts": tally, "digest": digest(rows)}

    return job


def _endo_job(fam):
    def job(p):
        with p.span("groupoid.presentation"):
            pres = td.g_fundamental_presentation(fam)
        sset = fam.base.sset
        pairs = []
        for l in sset.s1:
            i, j = sset.endpoints(l)
            if i == j:
                pairs.append((l, td.Word(i, ((l, 1),)), td.Word(i, ())))
        note_sizes(p, fam)
        tally, rows = _verdicts(p, pairs, pres, ENDO_BUDGET)
        return {"counts": tally, "digest": digest(rows)}

    return job


def _free_loop_job(sset, budget, **kw):
    def job(p):
        with p.span("groupoid.presentation"):
            pres = td.fundamental_presentation(sset)
        pairs = [("ee=e", pres.word("e", "e"), pres.word("e"))]
        tally, rows = _verdicts(p, pairs, pres, budget, separate=False, **kw)
        return {"counts": tally, "digest": digest(rows)}

    return job


def _assemble_job(covers, nodes, edges):
    def job(p):
        with p.span("progroupoid.inclusion"):
            refinements = {(a, b): td.inclusion_morphism(nodes[a], nodes[b]) for a, b in edges}
        pi = td.HypercoverIndex(dict(covers), dict(nodes), refinements)
        with p.span("progroupoid.assemble"):
            _, strictness = td.assemble(pi)
        report = {
            f"{a}->{b}": {"strict": r.strict, "failures": r.failures, "undetermined": r.undetermined}
            for (a, b), r in sorted(strictness.items())
        }
        for r in strictness.values():
            p.count("progroupoid.failures", len(r.failures))
            p.count("progroupoid.undetermined", len(r.undetermined))
        counts = {
            k: {"strict": v["strict"], "failures": len(v["failures"]), "undetermined": len(v["undetermined"])}
            for k, v in report.items()
        }
        return {"counts": counts, "digest": digest(report_text({"transitions": report}))}

    return job


def words_jobs(inp):
    refs, sset = inp["refs"], inp["sset"]
    jobs = [(f"inverse/{n}", _inverse_job(refs[n])) for n in COVERS]
    jobs += [(f"endo/{n}", _endo_job(refs[n])) for n in ENDO]
    jobs.append(("free/ee-e/b14", _free_loop_job(sset, 14)))
    jobs.append(("free/ee-e/b20-cap1000", _free_loop_job(sset, 20, max_states=1000)))
    jobs += [(f"assemble/{name}", _assemble_job(cv, nodes, edges)) for name, cv, nodes, edges in inp["chains"]]
    return jobs


WORKLOADS = {
    "refine": (Corpus, refine_setup, refine_jobs),
    "reload": (reload_prepare, reload_setup, reload_jobs),
    "descent": (Corpus, descent_setup, descent_jobs),
    "words": (Corpus, words_setup, words_jobs),
}
