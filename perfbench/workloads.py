"""The benchmark's workloads: three exhaustive sweeps and a query stream.

Each sweep is a fixed list of CLI commands run through ``skewsupport.cli.main``
with stdout captured; the sweeps are exhaustive, so their inputs do not depend
on the seed.  ``queries`` is a seeded stream of interactive requests through
the public library API.  Package functions are always reached through their
module (``relations.relate``, never a copied name), so a traced worker's
rebound wrappers see every call.

Sizes are chosen so that one repetition takes under a second (queries:
about three) with the pure-Python kernels on a 2-core host, so that a 30 s
run holds 10 to 60 repetitions; "tiny" sizes serve the smoke check.
"""

import random
from dataclasses import dataclass
from itertools import accumulate


@dataclass(frozen=True)
class Command:
    argv: tuple[str, ...]
    # paths into the JSON report that must all be true
    flags: tuple[tuple[str, ...], ...] = ()
    # whether the report's pairs_checked comes from a posets pair loop
    posets_pairs: bool = False


SWEEPS = {
    "conjecture": {
        "full": (
            Command(("verify", "conjecture", "--n", "8"),
                    (("pass_theorem",), ("pass_conjecture",)), True),
            Command(("saturation", "--n", "5", "--scale", "2"),
                    (("agreement",), ("schur_regression", "confirmed")), True),
        ),
        "tiny": (
            Command(("verify", "conjecture", "--n", "5"),
                    (("pass_theorem",), ("pass_conjecture",)), True),
            Command(("saturation", "--n", "3", "--scale", "2"),
                    (("agreement",), ("schur_regression", "confirmed")), True),
        ),
    },
    "figure6": {
        "full": (Command(("verify", "figure6", "--n", "4"), (("pass",),)),),
        "tiny": (Command(("verify", "figure6", "--n", "3"), (("pass",),)),),
    },
    "posets": {
        "full": (
            Command(("multfree", "--n", "6"), (("pass",),)),
            Command(("poset", "--n", "7", "--which", "suppf")),
            Command(("poset", "--n", "7", "--which", "nc", "--format", "dot")),
        ),
        "tiny": (
            Command(("multfree", "--n", "5"), (("pass",),)),
            Command(("poset", "--n", "5", "--which", "suppf")),
            Command(("poset", "--n", "5", "--which", "nc", "--format", "dot")),
        ),
    },
}

# queries: (request count, shape sizes) per size class
QUERY_SIZES = {"full": (2000, (6, 7, 8)), "tiny": (60, (3, 4))}
QUERY_MIX = (("compare", 0.5), ("expand", 0.4), ("overlaps", 0.1))
# Seeds the draw of the request multiset; --seed sets only the arrival
# order.  Multisets drawn from --seed differed by 10-13% in kernel work
# (descent and LR fillings over 20 seeds), more than a run-to-run bound can
# absorb, while a fixed multiset asks every seed for the same work.
QUERY_DRAW_SEED = 20130723

WORKLOADS = tuple(SWEEPS) + ("queries",)


def command_key(cmd: Command) -> str:
    return " ".join(cmd.argv)


def flags_hold(report: dict, cmd: Command) -> bool:
    """Whether every pass flag the command names is true in its report."""
    for path in cmd.flags:
        value = report
        for key in path:
            value = value.get(key) if isinstance(value, dict) else None
        if value is not True:
            return False
    return True


def make_queries(pkg, seed: int, size: str) -> list[tuple[str, ...]]:
    """A request stream: Zipf(1) shapes over a shuffled enumeration.

    The multiset of requests is fixed; the seed sets the order they arrive
    in, and so which request meets each cold cache miss.  Each request is a
    tuple of strings, so the timed loop parses its input like an interactive
    caller would.
    """
    count, sizes = QUERY_SIZES[size]
    rng = random.Random(QUERY_DRAW_SEED)
    by_size = {}
    for n in sizes:
        shapes = [pkg.shapes.format_shape(s)
                  for s in pkg.shapes.enumerate_shapes(n)]
        rng.shuffle(shapes)
        zipf = accumulate(1.0 / rank for rank in range(1, len(shapes) + 1))
        by_size[n] = (shapes, list(zipf))
    ops = [op for op, _ in QUERY_MIX]
    op_weights = [w for _, w in QUERY_MIX]
    bases = pkg.tableaux.BASES
    requests = []
    for _ in range(count):
        shapes, cum = by_size[rng.choice(sizes)]
        op = rng.choices(ops, op_weights)[0]
        a = rng.choices(shapes, cum_weights=cum)[0]
        if op == "compare":
            b = rng.choices(shapes, cum_weights=cum)[0]
            requests.append((op, a, b))
        elif op == "expand":
            requests.append((op, a, rng.choice(bases)))
        else:
            requests.append((op, a))
    random.Random(seed).shuffle(requests)
    return requests


def answer(pkg, request) -> dict:
    """The response object for one request, as the CLI would print it."""
    op = request[0]
    parse = pkg.shapes.parse_shape
    if op == "compare":
        return pkg.relations.relate(parse(request[1]),
                                    parse(request[2])).to_json_obj()
    if op == "expand":
        exp = pkg.bases.expansion_of(parse(request[1]), request[2])
        return {"shape": request[1], "basis": request[2],
                "terms": exp.to_json_obj()}
    profile = pkg.overlaps.OverlapProfile.of(parse(request[1]))
    return {"shape": request[1],
            "rows": [",".join(str(p) for p in row) for row in profile.rows]}


def query_failures(pkg, requests, responses) -> dict:
    """Cross-route checks, run after the timed loop: {request index: reason}.

    Compare responses must list no violations.  Schur expansions must match
    the Kostka-inversion route and F expansions the route through Schur.
    """
    parse = pkg.shapes.parse_shape
    routes = {"schur": pkg.tableaux.schur_expansion_kostka,
              "f": pkg.tableaux.f_expansion_via_schur}
    independent = {}
    failures = {}
    for i, (request, response) in enumerate(zip(requests, responses)):
        if response is None:
            continue  # already counted: the request raised
        op = request[0]
        if op == "compare" and response["violations"]:
            failures[str(i)] = f"{request}: violations {response['violations']}"
        elif op == "expand" and request[2] in routes:
            key = request[1:]
            if key not in independent:
                try:
                    other = routes[request[2]](parse(request[1]))
                    independent[key] = other.to_json_obj()
                except Exception as exc:  # counted as a failed request
                    independent[key] = f"raised {exc!r}"
            if independent[key] != response["terms"]:
                failures[str(i)] = f"{request}: differs from the other route"
    return failures
