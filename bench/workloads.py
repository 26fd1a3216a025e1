"""The four workloads: seeded request lists and closed-form output checks.

A workload builds one *pass*: a list of requests generated from
``(workload, seed, pass index)`` only.  A pass always has the same number of
requests of each kind, so only the parameters depend on the seed.  Each
request is timed on its own; its check runs afterwards, outside the timed
region, and compares the output with a closed form rather than with a
second run of the same code.

A check returns ``None`` for a correct output.  It returns the tag of a
catalogued defect (:data:`KNOWN_DEFECTS`) when the output is wrong in
exactly the catalogued way, and raises :class:`CheckError` for any other
wrong output.  Both count as failed requests; only the second makes the run
incorrect.

Package functions are looked up through their modules at call time (for
example ``mono.monodromy_p1_connected``), so the timing proxies of a traced
run see every call the benchmark makes.
"""

from __future__ import annotations

import itertools
import json
import random
from fractions import Fraction
from math import gcd
from pathlib import Path

from cablekit import classify as cls_
from cablekit import curves, lens, library, openbook, slopes, words
from cablekit import monodromy as mono

KNOWN_DEFECTS = {
    "missing_genus_exits_1": "a book without a genus key exits 1 with "
    "\"internal error: 'genus'\" instead of 2",
    "negative_genus_exits_0": "a book with a negative genus goes through "
    "cable-page and exits 0 with a negative page genus",
}


class CheckError(AssertionError):
    """An output differs from its closed form."""


def require(cond, message: str) -> None:
    if not cond:
        raise CheckError(message)


class Request:
    """One call into the package (``run``) plus the check of its output."""

    __slots__ = ("kind", "run", "check", "argv")

    def __init__(self, kind, run, check, argv=None):
        self.kind = kind
        self.run = run
        self.check = check
        self.argv = argv


# -- exact helpers, independent of the package --------------------------------


def frac(text: str) -> Fraction:
    q, _, p = str(text).partition("/")
    return Fraction(int(q), int(p or 1))


def det(a: Fraction, b: Fraction) -> int:
    return a.numerator * b.denominator - b.numerator * a.denominator


def check_farey_path(path: list, start: Fraction, end: Fraction) -> None:
    require(path[0] == start and path[-1] == end, f"path ends {path[0]}, {path[-1]}")
    lo, hi = min(start, end), max(start, end)
    step = 1 if end >= start else -1
    for u, v in zip(path, path[1:]):
        require(abs(det(u, v)) == 1, f"{u}, {v} are not Farey neighbors")
        require((v - u) * step > 0, f"path not monotone at {u}, {v}")
    require(all(lo <= x <= hi for x in path), "path leaves the interval")


def eval_ncf(terms) -> Fraction:
    """1/(r_0 - 1/(r_1 - ... - 1/r_k))."""
    x = Fraction(0)
    for r in reversed(terms):
        x = 1 / (r - x)
    return x


def identity(n: int):
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def matmul(a, b):
    bt = tuple(zip(*b))
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a)


def form(n: int):
    """The symplectic form of the basis a_1, b_1, a_2, b_2, ..."""
    return tuple(
        tuple(1 if (i % 2 == 0 and j == i + 1) else -1 if (i % 2 == 1 and j == i - 1) else 0
              for j in range(n))
        for i in range(n)
    )


def is_symplectic(m) -> bool:
    j = form(len(m))
    return matmul(matmul(tuple(zip(*m)), j), m) == j


def sp_inverse(m):
    """M^-1 = -J M^T J for symplectic M."""
    j = form(len(m))
    return tuple(tuple(-x for x in row) for row in matmul(matmul(j, tuple(zip(*m))), j))


def twist_matrix(cls_vec, sign: int):
    """x -> x + sign <x, c> c, with <e_j, c> read off the form."""
    n = len(cls_vec)
    pair = [cls_vec[j + 1] if j % 2 == 0 else -cls_vec[j - 1] for j in range(n)]
    return tuple(
        tuple(int(i == j) + sign * pair[j] * cls_vec[i] for j in range(n)) for i in range(n)
    )


def word_matrix_of(system, letters):
    """Product of twist matrices for (curve, sign) letters, leftmost first."""
    m = identity(system.dim)
    for curve, sign in letters:
        m = matmul(m, twist_matrix(system.curve(curve).homology, sign))
    return m


def order_is(m, p: int) -> bool:
    one = identity(len(m))
    power = m
    for _ in range(1, p):
        if power == one:
            return False
        power = matmul(power, m)
    return power == one


def sign_counts(signs) -> tuple[int, int]:
    """(positive, negative) letter counts."""
    signs = list(signs)
    pos = sum(1 for s in signs if s > 0)
    return pos, len(signs) - pos


def chain_letters(rng, genus: int, length: int):
    """Seeded (curve, sign) letters on the chain c1..c{2g}."""
    return [(f"c{rng.randint(1, 2 * genus)}", rng.choice((1, -1))) for _ in range(length)]


def make_book(genus, comps, letters=None):
    word = None if letters is None else words.TwistWord.twists(*letters)
    return openbook.RationalOpenBook(
        genus=genus,
        components=tuple(openbook.BindingComponent(r, s) for r, s in comps),
        monodromy=word,
    )


# -- cli_batch ---------------------------------------------------------------


def _dehn(curve, sign=1):
    return {"kind": "dehn", "curve": curve, "sign": sign}


def _book_json(genus, comps, word=None):
    obj = {"genus": genus,
           "components": [{"order": r, "seifert_numerator": s} for r, s in comps]}
    if word is not None:
        obj["monodromy"] = word
    return obj


def _ok_json(result) -> dict:
    code, out, err = result
    require(code == 0, f"exit {code}: {err.strip()[-200:]}")
    return json.loads(out)


def _has_error_line(err: str) -> bool:
    return any(line.startswith("error:") for line in err.splitlines())


def _usage_error(result):
    code, _, err = result
    require(code == 2 and _has_error_line(err), f"malformed input gave exit {code}: {err.strip()[-200:]}")


def _missing_genus(result):
    code, _, err = result
    if code == 2 and _has_error_line(err):
        return None
    if code == 1 and "internal error: 'genus'" in err:
        return "missing_genus_exits_1"
    raise CheckError(f"book without genus gave exit {code}: {err.strip()[-200:]}")


def _negative_genus(expected_page_genus):
    def check(result):
        code, out, err = result
        if code == 2 and _has_error_line(err):
            return None
        if code == 0 and json.loads(out).get("genus") == expected_page_genus:
            return "negative_genus_exits_0"
        raise CheckError(f"negative genus gave exit {code}: {out.strip()[-200:]}")
    return check


def cli_pass(rng: random.Random, workdir: Path) -> list[Request]:
    """40 `cablekit --json` calls: 36 valid ones over all 11 subcommands and
    one malformed call of each kind (bad slope, missing genus, negative
    genus, p = 0), in seeded order."""
    workdir.mkdir(parents=True, exist_ok=True)
    counter = itertools.count()

    def put(obj) -> str:
        path = workdir / f"in{next(counter)}.json"
        path.write_text(json.dumps(obj), encoding="utf-8")
        return str(path)

    reqs: list[Request] = []

    def add(argv, check):
        reqs.append(Request("cli." + argv[0], None, check, ["--json", *argv]))

    # slopes: 2 exceptional, 2 path, 2 ncf
    for _ in range(2):
        r = rng.randint(2, 12)
        want = [f"-1/{k}" if k > 1 else "-1" for k in range(r - 1, 0, -1)]
        add(["slopes", "exceptional", f"-1/{r}"],
            lambda res, want=want: require(_ok_json(res)["exceptional_slopes"] == want,
                                           f"exceptional slopes != {want}"))
    for _ in range(2):
        a = Fraction(rng.randint(-20, 20), rng.randint(1, 12))
        b = a + Fraction(rng.randint(1, 30), rng.randint(1, 12))
        if rng.random() < 0.5:
            a, b = b, a

        def path_check(res, a=a, b=b):
            check_farey_path([frac(x) for x in _ok_json(res)["path"]], a, b)
        add(["slopes", "path", str(a), str(b)], path_check)
    for _ in range(2):
        p = rng.randint(2, 60)
        q = rng.choice([q for q in range(1, p) if gcd(q, p) == 1])
        s = Fraction(-q, p)

        def ncf_check(res, s=s):
            terms = _ok_json(res)["terms"]
            require(all(t <= -2 for t in terms) and eval_ncf(terms) == s, f"ncf of {s}: {terms}")
        add(["slopes", "ncf", str(s)], ncf_check)

    # torus-knot: 4 knots in lens spaces
    for _ in range(4):
        r, s, k, l = _lens_knot(rng)
        add(["torus-knot", "--r", str(r), "--s", str(s), "--k", str(k), "--l", str(l)],
            lambda res, K=(r, s, k, l): _check_lens(K, _cli_lens(_ok_json(res))))

    # classify: 3 integral books, 1 rational (r,-1) book at an exceptional slope
    for _ in range(3):
        g, p, q = rng.randint(1, 3), rng.randint(2, 5), rng.choice([-1, 1]) * rng.randint(1, 5)
        path = put(_book_json(g, [(1, 0)]))
        add(["classify", "--book", path, "--cable", f"{p},{q}"],
            lambda res, g=g, p=p, q=q: _check_integral_verdict(_ok_json(res), g, p, q))
    r = rng.randint(3, 9)
    k = rng.randint(2, r - 1)
    path = put(_book_json(1, [(r, -1)]))
    add(["classify", "--book", path, "--cable", f"{k},-1"],
        lambda res: require(_ok_json(res)["kind"] == "ExceptionalTightPossible",
                            "exceptional slope not recognised"))

    # cable-page: 3 integral connected books
    for _ in range(3):
        g, p, q = rng.randint(0, 3), rng.randint(2, 5), rng.choice([-1, 1]) * rng.randint(1, 5)
        path = put(_book_json(g, [(1, 0)]))
        add(["cable-page", "--book", path, "--cable", f"{p},{q}"],
            lambda res, g=g, p=p, q=q: _check_cabled_page(_ok_json(res), g, p, q))

    # resolve: 3 (r,-1) books with a fractional-twist word
    for _ in range(3):
        g, r = rng.randint(1, 3), rng.randint(2, 7)
        word = [{"kind": "fractional", "curve": "1", "sign": 1, "amount": f"1/{r}"},
                _dehn("bdry_1"), _dehn(f"c{rng.randint(1, 2 * g)}", -1)]
        path = put(_book_json(g, [(r, -1)], word))
        add(["resolve", "--book", path, "--l", "0"],
            lambda res, g=g, r=r: _check_resolution(_ok_json(res), g, r, kept=2))

    # surgery: 3 integral connected books with a word, coefficient -n
    for _ in range(3):
        g, n = rng.randint(1, 3), rng.randint(1, 9)
        path = put(_book_json(g, [(1, 0)], [_dehn("c1")]))
        add(["surgery", "--book", path, "--coefficient", str(-n)],
            lambda res, n=n: _check_surgery_cli(_ok_json(res), n))

    # monodromy: (p,1) connected, (2,2) connected, (p,1) disconnected, (p,q)
    g, p = rng.randint(1, 2), rng.randint(2, 3)
    phi = chain_letters(rng, g, 4)
    path = put(_book_json(g, [(1, 0)], [_dehn(c, s) for c, s in phi]))
    add(["monodromy", "--book", path, "--cable", f"{p},1"],
        lambda res, g=g, p=p, phi=phi: _check_p1_counts(_ok_json(res), g, p, phi))
    g = rng.randint(1, 2)
    phi = chain_letters(rng, g, 4)
    path = put(_book_json(g, [(1, 0)], [_dehn(c, s) for c, s in phi]))
    add(["monodromy", "--book", path, "--cable", "2,2"],
        lambda res, g=g, phi=phi: _check_22_cli(_ok_json(res), g, phi))
    g, n, p = rng.randint(0, 2), rng.randint(2, 3), rng.randint(2, 4)
    path = put(_book_json(g, [(1, 0)] * n))
    add(["monodromy", "--book", path, "--cable", f"{p},1"],
        lambda res, g=g, n=n, p=p: _check_disconnected(_ok_json(res), g, n, p))
    g, p, q = 1, 2, rng.randint(3, 5)
    path = put(_book_json(g, [(1, 0)], [_dehn("c1"), _dehn("c2")]))
    add(["monodromy", "--book", path, "--cable", f"{p},{q}"],
        lambda res, p=p, q=q: _check_pq(_ok_json(res), p, q))

    # obstruction: 3 values of p
    for _ in range(3):
        p = rng.randint(1, 1000)
        add(["obstruction", "--p", str(p)], lambda res, p=p: _check_obstruction_json(_ok_json(res), p))

    # verify-word: a word against itself with a cancelling pair inserted
    for system, curves_ in (("sigma22_g1", SIGMA22_CURVES), ("resolved_neg_cable_g1", RESOLVED_CURVES)):
        w1 = [_dehn(rng.choice(curves_), rng.choice((1, -1))) for _ in range(6)]
        c = rng.choice(curves_)
        i = rng.randint(0, len(w1))
        w2 = w1[:i] + [_dehn(c, 1), _dehn(c, -1)] + w1[i:]
        add(["verify-word", "--system", system, put(w1), put(w2)],
            lambda res: require(_ok_json(res) == {"equal_on_homology": True}, "free reduction not equal"))

    # replay-script: two of the four shipped scripts
    for name in rng.sample(sorted(SCRIPT_TARGETS), 2):
        add(["replay-script", name], lambda res, name=name: _check_replay_json(_ok_json(res), name))

    # compose-cobordism: two connected pages
    for _ in range(2):
        g = rng.randint(1, 2)
        phi1, phi2 = chain_letters(rng, g, 3), chain_letters(rng, g, 3)
        add(["compose-cobordism", "--page", put(_book_json(g, [(1, 0)])),
             put([_dehn(c, s) for c, s in phi1]), put([_dehn(c, s) for c, s in phi2])],
            lambda res, n=2 * g + 1 + 6: _check_cobordism_json(_ok_json(res), n))

    # malformed: one of each kind
    bad = rng.choice(["-3/x", "1/2", "0/0", "abc"])
    add(["slopes", "ncf", bad], _usage_error)
    book = _book_json(1, [(1, 0)])
    del book["genus"]
    add(["classify", "--book", put(book), "--cable", "2,1"], _missing_genus)
    k, p = rng.randint(1, 5), rng.randint(2, 4)
    path = put(_book_json(-k, [(1, 0)]))
    add(["cable-page", "--book", path, "--cable", f"{p},1"], _negative_genus(-p * k))
    if rng.random() < 0.5:
        add(["obstruction", "--p", "0"], _usage_error)
    else:
        add(["classify", "--book", put(_book_json(1, [(1, 0)])), "--cable", "0,1"], _usage_error)

    rng.shuffle(reqs)
    return reqs


# curves of the bundled systems with nonzero homology classes
SIGMA22_CURVES = ["n1_1", "n1_2", "x1", "n2_1", "n2_2", "d1", "d2", "d3", "c1", "c3", "beta"]
RESOLVED_CURVES = ["n1_1", "n1_2", "x1", "n2_1", "n2_2"]

# shipped script -> (steps, final word curves or None, final word length);
# every final word is all positive
SCRIPT_TARGETS = {
    "stabilize_21_to_22": (24, ["delta3", "delta2", "delta1", "n1_1", "n1_2"], 5),
    "garside_square_boundary": (1, ["bdry_outer"], 1),
    "negative_cable_positive_refactor": (6, None, 18),
    "genlantern_from_two_lanterns": (14, ["dpartial", "D3g", "D2g", "D1g"], 4),
}


def _check_replay_json(payload, name):
    steps, curves_, length = SCRIPT_TARGETS[name]
    final = payload["final_word"]
    require(payload["steps"] == steps and payload["verified"] is True, f"{name}: {payload}")
    require(payload["all_positive"] is True and len(final) == length, f"{name}: final word")
    if curves_ is not None:
        require([g["curve"] for g in final] == curves_, f"{name}: final word curves")
    else:
        require([g["curve"] for g in final[-3:]] == ["D3g", "D2g", "D1g"], f"{name}: final word tail")


def _knot_class(rng, r, s):
    """A seeded nontrivial knot class (k, l), k >= 1, on the (r, s) torus."""
    while True:
        k, l = rng.randint(1, 15), rng.randint(-15, 15)
        if gcd(k, l) == 1 and (k, l) != (r, s):
            return k, l


def _lens_knot(rng):
    r = rng.randint(1, 30)
    s = 0 if r == 1 else rng.choice([s for s in range(r) if gcd(r, s) == 1])
    return (r, s, *_knot_class(rng, r, s))


def _cli_lens(payload):
    require(payload["trivial"] is False, "knot reported trivial")
    return (False, payload["rational_unknot"], payload["euler_characteristic"],
            payload["boundary_count"], payload["order"], payload["wrap"])


def _check_lens(K, got):
    r, s, k, l = K
    trivial, unknot, chi, b, order, wrap = got
    require(not trivial, f"{K} reported trivial")
    require(order == r // gcd(r, k), f"{K}: order {order}")
    require(b * wrap == order, f"{K}: boundary {b} x wrap {wrap} != order {order}")
    require((chi + b) % 2 == 0 and chi <= 1, f"{K}: chi {chi} with {b} boundary circles")
    require(unknot == (abs(k) == 1 or abs(r * l - s * k) == 1), f"{K}: rational unknot {unknot}")
    require((chi == 1) == unknot, f"{K}: disk fiber {chi == 1} but rational unknot {unknot}")
    if r == 1:
        require(chi == abs(k) + abs(l) - abs(k * l), f"{K}: chi {chi} in the three-sphere")


def _check_integral_verdict(payload, g, p, q):
    if q > 0:
        require(payload["kind"] == "SameContact" and payload["hopf_delta"] == 0, f"positive cable: {payload}")
    else:
        want = (1 - p) * (2 * g + abs(q) - 1)
        require(payload["kind"] == "Overtwisted" and payload["hopf_delta"] == want,
                f"negative ({p},{q}) cable of genus {g}: {payload}")
        require(bool(payload["lutz_recipe"]), "overtwisted verdict without a Lutz recipe")


def _cabled_page_data(g, p, q):
    boundary = gcd(p, abs(q))
    chi = p * (1 - 2 * g) + abs(q) - p * abs(q)
    return (2 - chi - boundary) // 2, boundary


def _check_cabled_page(payload, g, p, q):
    genus, boundary = _cabled_page_data(g, p, q)
    require(payload["genus"] == genus and payload["boundary_count_of_page"] == boundary,
            f"({p},{q}) cable of genus {g}: {payload}")


def _check_resolution(payload, g, r, kept):
    require(payload["genus"] == g and payload["boundary_count_of_page"] == r,
            f"(r,-1) resolution r={r} g={g}: {payload['genus']}, {payload['boundary_count_of_page']}")
    word = payload["monodromy"]
    tail = [(x["curve"], x["sign"]) for x in word[kept:]]
    require(len(word) == kept + r and tail == [(f"rb0_{j}", 1) for j in range(1, r + 1)],
            "resolution word lacks the boundary multitwist")
    require(all(x["kind"] != "fractional" for x in word), "fractional twist kept")


def _surgery_component(n):
    return (n, -1) if n > 1 else (1, 0)


def _check_surgery_cli(payload, n):
    comp = payload["book"]["components"][0]
    require(payload["admissible"] is True, "negative surgery not admissible")
    require((comp["order"], comp["seifert_numerator"]) == _surgery_component(n), f"-{n} surgery: {comp}")
    last = payload["book"]["monodromy"][-1]
    require(last["kind"] == "fractional" and last["amount"] == f"1/{n}", f"-{n} surgery word: {last}")


def _p1_counts(g, p, phi):
    pos, neg = sign_counts(s for _, s in phi)
    return (p - 1) * (2 * g + 1) * (4 * g + 1) + pos, 2 * (p - 1) + neg


def _check_p1_counts(payload, g, p, phi):
    require(sign_counts(x["sign"] for x in payload["word"]) == _p1_counts(g, p, phi),
            f"(p,1) word counts g={g} p={p}")
    require((payload["page"]["genus"], payload["page"]["boundary_count_of_page"]) == (p * g, 1),
            "(p,1) page")


def _check_22_cli(payload, g, phi):
    word = payload["word"]
    require(len(word) == 2 * g + 1 + len(phi), "(2,2) word length")
    require(all(x["sign"] > 0 for x in word[: 2 * g + 1]), "(2,2) rotation not positive")
    require((payload["page"]["genus"], payload["page"]["boundary_count_of_page"]) == (2 * g, 2),
            "(2,2) page")


def _check_disconnected(payload, g, n, p):
    d = (2 * g + 2) + 2 * (n - 2)
    word = payload["word"]
    require(len(word) == d * (p - 1) and all(x["sign"] > 0 for x in word),
            f"disconnected (p,1) word: {len(word)} letters, want d(p-1) = {d * (p - 1)}")


def _check_pq(payload, p, q):
    word = payload["word"]
    stabs = sum(1 for x in word if x["kind"] == "stab")
    require(stabs == (p - 1) * (q - 1), f"({p},{q}) word has {stabs} stabilization markers")
    require(len(word) - stabs == (p - 1) * (2 + 3 * 5) + 2, f"({p},{q}) word length")


def _check_obstruction_json(payload, p):
    require(payload["algebraic_length"] == p - 8 and payload["mod10_length"] == (p - 8) % 10,
            f"obstruction p={p}: {payload}")
    require(payload["required_mod10"] == (p + 3) % 10 and payload["obstructed"] is True,
            f"obstruction p={p}: {payload}")
    require(payload["verdict"] == "OBSTRUCTED", f"obstruction p={p}: verdict")


def _check_cobordism_json(payload, length):
    cert = payload["certificate"]
    require(cert.get("conjugation_lands_on_nodule_1") is True and cert.get("rotation_positive") is True,
            f"cobordism certificate {cert}")
    require(len(payload["word"]) == length, "cobordism word length")


# -- oracle_grid -----------------------------------------------------------


def oracle_pass(rng: random.Random) -> list[Request]:
    """22 cold cells in seeded order: the (p,1) word for 1 <= g <= 4 and
    2 <= p <= 4, the (2,2) word and the cobordism word for 0 <= g <= 4, each
    verified on homology.  Genus 0 (disk pages) has no chain, so its
    monodromies are empty."""
    cells = [("p1", g, p) for g in range(1, 5) for p in range(2, 5)]
    cells += [("r22", g, 2) for g in range(5)] + [("cobordism", g, 2) for g in range(5)]
    rng.shuffle(cells)
    reqs = []
    for kind, g, p in cells:
        phi = chain_letters(rng, g, 6) if g else []
        if kind == "p1":
            reqs.append(_p1_cell(g, p, phi))
        elif kind == "r22":
            reqs.append(_r22_cell(g, phi))
        else:
            reqs.append(_cobordism_cell(g, phi, chain_letters(rng, g, 6) if g else []))
    return reqs


def _p1_cell(g, p, phi):
    def run():
        cw = mono.monodromy_p1_connected(make_book(g, [(1, 0)], phi), p)
        return cw, cw.system.word_matrix(cw.word)

    def check(result):
        cw, m = result
        require(sign_counts(x.sign for x in cw.word) == _p1_counts(g, p, phi),
                f"(p,1) word counts g={g} p={p}")
        require(len(m) == 2 * p * g and is_symplectic(m), f"(p,1) g={g} p={p}: matrix not symplectic")
        m_phi = word_matrix_of(cw.system, [(f"n1_{c[1:]}", s) for c, s in phi])
        require(order_is(matmul(m, sp_inverse(m_phi)), p), f"(p,1) g={g} p={p}: rotation order != p")

    return Request(f"oracle.p1_g{g}_p{p}", run, check)


def _r22_cell(g, phi):
    def run():
        cw = mono.monodromy_22_connected(make_book(g, [(1, 0)], phi))
        return cw, cw.system.word_matrix(cw.word)

    def check(result):
        cw, m = result
        require(len(cw.word) == 2 * g + 1 + len(phi), f"(2,2) g={g}: word length")
        require(all(x.sign > 0 for x in list(cw.word)[: 2 * g + 1]), f"(2,2) g={g}: rotation not positive")
        require(len(m) == 4 * g and is_symplectic(m), f"(2,2) g={g}: matrix not symplectic")
        m_phi = word_matrix_of(cw.system, [(f"e{c[1:]}", s) for c, s in phi])
        require(g == 0 or order_is(matmul(m, sp_inverse(m_phi)), 2), f"(2,2) g={g}: rotation order != 2")

    return Request(f"oracle.r22_g{g}", run, check)


def _cobordism_cell(g, phi1, phi2):
    def run():
        tw = words.TwistWord.twists
        cw = mono.compose_cobordism_word(tw(*phi1), tw(*phi2), make_book(g, [(1, 0)]))
        return cw, cw.system.word_matrix(cw.word)

    def check(result):
        cw, m = result
        require(cw.notes.get("conjugation_lands_on_nodule_1") is True, f"cobordism g={g}: certificate")
        require(len(cw.word) == 2 * g + 1 + len(phi1) + len(phi2), f"cobordism g={g}: word length")
        require(len(m) == 4 * g and is_symplectic(m), f"cobordism g={g}: matrix not symplectic")

    return Request(f"oracle.cobordism_g{g}", run, check)


# -- obstruction_sweep -------------------------------------------------------

OBSTRUCTION_SAMPLE = 30


def obstruction_pass(rng: random.Random) -> list[Request]:
    """stein_obstruction_Lppm1(p) for p = 1..100, both ends of [10^3, 10^5],
    and a stratified seeded log-uniform sample of that interval."""
    ps = list(range(1, 101)) + [10 ** 3, 10 ** 5]
    n = OBSTRUCTION_SAMPLE
    ps += [round(10 ** (3 + 2 * (i + rng.random()) / n)) for i in range(n)]
    rng.shuffle(ps)
    return [_obstruction_request(p) for p in ps]


def _obstruction_request(p):
    def check(report):
        require(report.algebraic_length == p - 8, f"p={p}: algebraic length {report.algebraic_length}")
        require(report.mod10_length == (p - 8) % 10 and report.required_mod10 == (p + 3) % 10,
                f"p={p}: residues {report.mod10_length}, {report.required_mod10}")
        require(report.obstructed is True and report.word_length == p + 18, f"p={p}: report {report}")

    return Request("obstruction.small" if p <= 100 else "obstruction.large",
                   lambda: mono.stein_obstruction_Lppm1(p), check)


# -- calculus_sweep ----------------------------------------------------------


class CalculusContext:
    """Set-up shared by the calculus passes of one process: the bounded
    Farey graph for the breadth-first check and the shipped registries."""

    def __init__(self):
        self.graph = slopes.mediant_farey_graph(12)
        self.vertices = sorted(self.graph, key=lambda v: (v.numerator, v.denominator))
        regs = [library.sigma22_registry(), library.resolved_registry(),
                library.lantern_genus3_model()[1]]
        self.relations = []
        for reg in regs:
            extra = next(n for n, info in reg.system.curves.items() if any(info.homology))
            for rel in reg.relations.values():
                self.relations.append((reg.system, rel.lhs, rel.rhs, extra))


BFS_SAMPLE = 50


def calculus_pass(rng: random.Random, ctx: CalculusContext) -> list[Request]:
    reqs: list[Request] = []
    verts = ctx.vertices
    bfs = set(rng.sample(range(len(verts) * (len(verts) - 1) // 2), BFS_SAMPLE))
    idx = 0
    for i, a in enumerate(verts):
        for b in verts[i + 1:]:
            x, y = (b, a) if rng.random() < 0.5 else (a, b)
            reqs.append(_farey_request(x, y, ctx.graph if idx in bfs else None))
            idx += 1
    for _ in range(400):
        p = rng.randint(2, 60)
        q = rng.choice([q for q in range(1, p) if gcd(q, p) == 1])
        reqs.append(_ncf_request(-q, p))
        reqs.append(_exceptional_request(-q, p))
    reqs.append(Request("slopes.exceptional", lambda: slopes.exceptional_slopes(slopes.Slope(0)),
                        lambda out: require(out == [slopes.Slope(-1)], "exceptional slopes of 0")))
    for r in range(1, 31):
        for s in ([0] if r == 1 else [s for s in range(r) if gcd(r, s) == 1]):
            for _ in range(3):
                reqs.append(_lens_request(rng, r, s))
    for _ in range(200):
        reqs.extend(_openbook_requests(rng))
    for _ in range(50):
        k = rng.randint(1, 5)
        reqs.append(Request("openbook.validate", lambda k=k: openbook.validate(make_book(-k, [(1, 0)])),
                            lambda out: require(any("genus" in x for x in out), "negative genus accepted")))
    for _ in range(300):
        reqs.extend(_classify_requests(rng))
    for _ in range(100):
        reqs.append(_rational_verdict_request(rng))
        reqs.append(_resolve_request(rng))
        reqs.append(_surgery_request(rng))
    for system, lhs, rhs, extra in ctx.relations:
        reqs.append(Request("curves.equal", lambda s=system, a=lhs, b=rhs: curves.words_equal_on_homology(a, b, s),
                            lambda out: require(out is True, "registered relation unequal on homology")))
        reqs.append(Request("curves.unequal",
                            lambda s=system, a=lhs, c=extra: curves.words_equal_on_homology(
                                a, a.compose(words.TwistWord.twists(c)), s),
                            lambda out: require(out is False, "extra nonseparating twist not seen")))
    rng.shuffle(reqs)
    for _ in range(3):  # each replay needs the bundles its group loaded first
        at = rng.randrange(len(reqs) + 1)
        reqs[at:at] = _library_requests()
    return reqs


def _farey_request(a, b, graph):
    def check(path):
        check_farey_path([Fraction(v.numerator, v.denominator) for v in path],
                         Fraction(a.numerator, a.denominator), Fraction(b.numerator, b.denominator))
        if graph is not None:
            want = slopes.bfs_interval_path_length(graph, a, b)
            require(len(path) - 1 == want, f"path {a} -> {b} has {len(path) - 1} edges, BFS {want}")

    return Request("slopes.farey", lambda: slopes.farey_shortest_path(a, b), check)


def _ncf_request(q, p):
    s = slopes.Slope(q, p)

    def check(cf):
        require(all(t <= -2 for t in cf.terms) and eval_ncf(cf.terms) == Fraction(q, p),
                f"ncf of {q}/{p}: {cf.terms}")

    return Request("slopes.ncf", lambda: slopes.neg_cont_frac(s), check)


def _exceptional_request(q, p):
    s = slopes.Slope(q, p)
    seifert = Fraction(q, p)

    def check(out):
        vals = [Fraction(v.numerator, v.denominator) for v in out]
        require(vals[-1] == -1 and abs(det(seifert, vals[0])) == 1, f"exceptional slopes of {seifert}")
        chain = [seifert] + vals
        require(all(u > v and abs(det(u, v)) == 1 for u, v in zip(chain, chain[1:])),
                f"exceptional slopes of {seifert} are not a decreasing Farey chain")
        if q == -1:
            require(vals == [Fraction(-1, k) for k in range(p - 1, 0, -1)], f"exceptional slopes of -1/{p}")

    return Request("slopes.exceptional", lambda: slopes.exceptional_slopes(s), check)


def _lens_request(rng, r, s):
    k, l = _knot_class(rng, r, s)
    knot = (r, s, k, l)

    def run():
        K = lens.LensTorusKnot(r, s, k, l)
        return (lens.is_trivial(K), lens.is_rational_unknot(K), lens.euler_characteristic(K),
                lens.boundary_count(K), lens.homological_order(K), lens.boundary_wrap(K))

    return Request("lens.invariants", run, lambda got: _check_lens(knot, got))


def _random_book_json(rng):
    comps = [(1, 0)]
    for _ in range(rng.randint(0, 2)):
        r = rng.randint(1, 9)
        comps.append((r, 0 if r == 1 else rng.randint(-3 * r, 3 * r)))
    g = rng.randint(0, 4)
    word = [_dehn(c, s) for c, s in chain_letters(rng, g, rng.randint(0, 5))] if g else []
    return _book_json(g, comps, word)


def _openbook_requests(rng):
    obj = _random_book_json(rng)
    comps = [(c["order"], c["seifert_numerator"]) for c in obj["components"]]
    mult = [1 if s == 0 else gcd(r, abs(s)) for r, s in comps]
    genus, boundary = obj["genus"], sum(mult)
    book = openbook.RationalOpenBook.from_json(obj)

    def check_round_trip(out):
        got = [(c["order"], c["seifert_numerator"], c["multiplicity"]) for c in out["components"]]
        require(got == [(r, s, m) for (r, s), m in zip(comps, mult)], f"components {got}")
        require(out["genus"] == genus and out["boundary_count_of_page"] == boundary, "page data")
        require(out.get("monodromy", []) == obj["monodromy"], "monodromy word")

    def check_stabilized(out):
        require(out.genus == genus and out.boundary_count_of_page == boundary + 1, "stabilized page")
        require(len(out.monodromy) == len(obj["monodromy"]) + 1 and out.monodromy[-1].sign > 0,
                "stabilization twist")

    r, s = comps[-1]

    def check_window(out):
        require(out.order == r and -r < out.seifert_numerator <= 0 and (out.seifert_numerator - s) % r == 0,
                f"window of ({r},{s}): {out}")

    return [
        Request("openbook.round_trip",
                lambda: openbook.RationalOpenBook.from_json(obj).to_json(), check_round_trip),
        Request("openbook.validate", lambda: openbook.validate(book),
                lambda out: require(out == [], f"valid book rejected: {out}")),
        Request("openbook.stabilize", lambda: openbook.positive_stabilize(book, 0, mode="same"),
                check_stabilized),
        Request("openbook.window",
                lambda: openbook.normalize_to_window(openbook.BindingComponent(r, s)), check_window),
    ]


def _classify_requests(rng):
    g, p, q = rng.randint(1, 4), rng.randint(2, 6), rng.choice([-1, 1]) * rng.randint(1, 6)
    book = make_book(g, [(1, 0)])
    coeffs = cls_.CableCoefficients(((p, q),))

    def check_page(out):
        _check_cabled_page({"genus": out.genus, "boundary_count_of_page": out.boundary_count_of_page}, g, p, q)

    return [
        Request("classify.verdict", lambda: cls_.classify_cable(book, coeffs).to_json(),
                lambda out: _check_integral_verdict(out, g, p, q)),
        Request("classify.cabled_page", lambda: cls_.cabled_page(book, coeffs), check_page),
    ]


def _rational_verdict_request(rng):
    g, r = rng.randint(1, 3), rng.randint(3, 9)
    choice = rng.randrange(3)
    if choice == 0:
        pq, want = (rng.randint(2, r - 1), -1), "ExceptionalTightPossible"
    elif choice == 1:
        pq, want = (rng.randint(r + 1, 2 * r), -1), "SameContact"
    else:
        pq, want = (2, -2), "Overtwisted"
    book = make_book(g, [(r, -1)])
    coeffs = cls_.CableCoefficients((pq,))
    return Request("classify.rational_verdict", lambda: cls_.classify_cable(book, coeffs),
                   lambda out: require(out.kind.value == want, f"({r},-1) book, {pq} cable: {out.kind}"))


def _resolve_request(rng):
    g, r = rng.randint(1, 3), rng.randint(2, 9)
    word = words.TwistWord.of(
        words.Generator.fractional_boundary("1", Fraction(1, r)),
        words.Generator.dehn_twist("bdry_1"),
        words.Generator.dehn_twist(f"c{rng.randint(1, 2 * g)}", -1),
    )
    book = openbook.RationalOpenBook(genus=g, components=(openbook.BindingComponent(r, -1),), monodromy=word)
    return Request("classify.resolve", lambda: cls_.resolve(book, [0]),
                   lambda out: _check_resolution(out.to_json(), g, r, kept=2))


def _surgery_request(rng):
    g, n = rng.randint(1, 4), rng.randint(1, 9)
    book = make_book(g, [(1, 0)], [("c1", 1)])

    def check(out):
        comp = out.components[0]
        require((comp.order, comp.seifert_numerator) == _surgery_component(n), f"-{n} surgery: {comp}")
        last = out.monodromy[-1]
        require(last.kind == "fractional" and last.amount == Fraction(1, n), f"-{n} surgery word: {last}")

    return Request("classify.surgery",
                   lambda: cls_.induced_open_book_from_surgery(book, 0, slopes.Slope(-n)), check)


def _library_requests():
    bundles = {}

    def load():
        bundles.update(library.shipped_scripts())
        return sorted(bundles)

    reqs = [Request("library.shipped_scripts", load,
                    lambda names: require(names == sorted(SCRIPT_TARGETS), f"shipped scripts {names}"))]
    for name in sorted(SCRIPT_TARGETS):
        def check(result, name=name):
            _check_replay_json({"final_word": result.word.to_json(), "steps": SCRIPT_TARGETS[name][0],
                                "verified": result.verified, "all_positive": result.word.is_positive()}, name)
        reqs.append(Request("rewrite.replay", lambda name=name: bundles[name].replay(), check))
    return reqs


# -- registry ----------------------------------------------------------------


def build_pass(workload: str, seed: int, index: int, workdir: Path, context=None) -> list[Request]:
    rng = random.Random(f"{workload}:{seed}:{index}")
    if workload == "cli_batch":
        return cli_pass(rng, workdir)
    if workload == "oracle_grid":
        return oracle_pass(rng)
    if workload == "obstruction_sweep":
        return obstruction_pass(rng)
    if workload == "calculus_sweep":
        return calculus_pass(rng, context)
    raise KeyError(workload)


def make_context(workload: str):
    return CalculusContext() if workload == "calculus_sweep" else None

