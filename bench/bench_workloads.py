"""The three benchmark workloads: seeded inputs, one verdict per item, and
the gates that check each verdict against an answer known independently
of the library.

A workload hands the runner a list of *rounds* (lists of items).  The
runner times whole rounds, so every run sees the same mix of sizes; the
random workloads fill each round from a fixed size histogram, so the work
in a round barely depends on the seed while the inputs themselves do.
"""
from __future__ import annotations

import contextlib
import dataclasses
import io
import itertools
import random
import statistics
from pathlib import Path

# ---------------------------------------------------------------------------
# Oracles (own code, no library calls)


def path_count(pres, nilpotent_loops=(), cap: int = 100000) -> int:
    """Dimension of a monomial quadratic path algebra by enumeration: the
    empty path at each vertex plus every composable arrow sequence that
    avoids the single-term length-two relations (and ``e*e`` for each
    loop in ``nilpotent_loops``).  Two-term relations are ignored."""
    pairs = {tuple(rel[0]) for rel in pres.relations if len(rel) == 1 and len(rel[0]) == 2}
    pairs.update((e, e) for e in nilpotent_loops)
    by_source = {v: [] for v in pres.vertices}
    for a in pres.arrows:
        by_source[a.source].append(a)
    total = len(pres.vertices)
    stack = [(a,) for a in pres.arrows]
    while stack:
        path = stack.pop()
        total += 1
        if total > cap:
            return cap
        for nxt in by_source[path[-1].target]:
            if (path[-1].id, nxt.id) not in pairs:
                stack.append(path + (nxt,))
    return total


def surface_counts(text: str) -> dict[str, int]:
    """Euler characteristic, boundary circles, genus and orbifold points
    of a surface file, read straight off its records."""
    points = arcs = polys = orbifold = 0
    head_of: dict[str, str] = {}
    tail_to_bseg: dict[str, str] = {}
    for line in text.splitlines():
        words = line.split()
        if not words:
            continue
        if words[0] == "point":
            points += 1
            orbifold += words[2] == "kind=orbifold"
        elif words[0] == "arc":
            arcs += 1
        elif words[0] == "poly":
            polys += 1
        elif words[0] == "bseg":
            tail, head = words[2][len("from="):], words[3][len("to="):]
            head_of[words[1]] = head
            tail_to_bseg[tail] = words[1]
    chi = points - (arcs + len(head_of)) + polys
    seen: set[str] = set()
    circles = 0
    for start in head_of:
        if start in seen:
            continue
        circles += 1
        cur = start
        while cur not in seen:
            seen.add(cur)
            cur = tail_to_bseg[head_of[cur]]
    genus2 = 2 - chi - circles
    return {"chi": chi, "circles": circles, "genus": genus2 // 2, "orbifold": orbifold}


def table_density(alg) -> tuple[int, int]:
    """(cells, nonzero cells) of a ``TableAlgebra`` product table."""
    n = len(alg.labels)
    return n * n, sum(1 for row in alg.table for cell in row if cell)


def stratified_rounds(draw, key, quotas: dict, rounds: int) -> list[list]:
    """Draw items until every round holds ``quotas[b]`` items of bin ``b``."""
    got = {b: [] for b in quotas}
    while any(len(got[b]) < q * rounds for b, q in quotas.items()):
        item = draw()
        b = key(item)
        if len(got[b]) < quotas[b] * rounds:
            got[b].append(item)
    return [
        [x for b, q in quotas.items() for x in got[b][r * q : (r + 1) * q]]
        for r in range(rounds)
    ]


def _bin(value: int, edges: tuple[int, ...]) -> int:
    """Index of the first edge ``value`` does not exceed (last bin open)."""
    for i, edge in enumerate(edges):
        if value <= edge:
            return i
    return len(edges)


def _spread(values) -> dict:
    values = sorted(values)
    return {"min": values[0], "median": statistics.median(values), "max": values[-1]}


# ---------------------------------------------------------------------------
# Cover/reduction verdicts (cover_ladder, random_skewgroup)


@dataclasses.dataclass
class CoverItem:
    name: str
    surface: object  # base surface, or the total surface when ``involution`` is set
    involution: object = None
    sheet_choice: dict | None = None
    iterated: bool = False


class _CoverWorkload:
    """Shared verdict: cover (or quotient), reduction, dual reduction and,
    where asked, the iterated crossed product."""

    def __init__(self):
        self._density: dict[str, tuple[int, int]] = {}
        self._oracle: dict[str, int] = {}

    def verdict(self, sg, item: CoverItem):
        # A fresh copy drops the surface's cached lookups, so a repeated
        # item costs what its first run cost.
        surface = dataclasses.replace(item.surface)
        if item.involution is None:
            cov = sg.double_cover(surface)
        else:
            cov = sg.quotient(surface, item.involution)
        red = sg.verify_skew_group_reduction(cov, item.sheet_choice)
        dual = sg.verify_dual_reduction(cov)
        it = None
        if item.iterated:
            it = sg.verify_iterated_skew_group(red.cover_algebra.algebra, red.deck_action)
        return red, dual, it

    def record(self, item: CoverItem, raw) -> dict:
        red, dual, it = raw
        if item.name not in self._density:
            self._density[item.name] = table_density(red.cover_algebra.algebra)
        return {
            "name": item.name,
            "cover_dim": red.cover_algebra.dimension,
            "skew_dim": red.skew.dimension,
            "reduction_iso": red.verdict.is_isomorphism,
            "dual_iso": dual.verdict.is_isomorphism,
            "dual_equivariant": bool(dual.equivariant) and all(dual.equivariant.values()),
            "iterated_ok": None if it is None else it.ok,
            "cover_pair": red.cover_pair,
        }

    def check(self, sg, item: CoverItem, rec: dict) -> list[str]:
        """Failed gates of one verdict (empty when it is right)."""
        bad = []
        for gate in ("reduction_iso", "dual_iso", "dual_equivariant"):
            if not rec[gate]:
                bad.append(gate)
        if rec["iterated_ok"] is False:
            bad.append("iterated_ok")
        if rec["skew_dim"] != 2 * rec["cover_dim"]:
            bad.append("skew_dim")
        if item.name not in self._oracle:
            self._oracle[item.name] = path_count(rec["cover_pair"])
        if self._oracle[item.name] != rec["cover_dim"]:
            bad.append("cover_dim_oracle")
        return bad

    def properties(self, records: list[dict]) -> dict:
        dims = {r["name"]: r["cover_dim"] for r in records}
        cells = sum(self._density[n][0] for n in dims)
        nnz = sum(self._density[n][1] for n in dims)
        return {
            "items": len(dims),
            "cover_dim": _spread(dims.values()),
            "cover_table_density": nnz / cells,
            "defect_share": 0.0,
        }


class CoverLadder(_CoverWorkload):
    """A few large inputs; ``algebra`` does almost all the work."""

    name = "cover_ladder"

    def generate(self, sg, seed: int, tiny: bool, workdir: Path) -> list[list[CoverItem]]:
        rng = random.Random(seed)
        items = []
        for v in (1,) if tiny else (1, 2, 3, 4):
            items.append(CoverItem(f"cylinder{v}", sg.two_orbifold_cylinder(v), iterated=True))
        total, inv = sg.two_hole_torus_surface()
        items.append(CoverItem("torus_quotient", total, inv, iterated=True))
        if not tiny:
            items.append(CoverItem("two_orbifold_disc", sg.two_orbifold_disc(), iterated=True))
        for n in (4,) if tiny else (4, 6, 8, 10, 12, 14):
            items.append(CoverItem(f"disc{n}", sg.one_orbifold_disc(n), iterated=n <= 8))
        # The seed picks which lift of every ordinary base vertex the
        # reduction uses; any choice must give an isomorphism.
        for item in items:
            base = item.surface
            if item.involution is not None:
                base = sg.quotient(item.surface, item.involution).base
            triple = sg.triple_from_x_dissection(base)
            special = {triple.arrow_by_id[e].source for e in triple.special}
            item.sheet_choice = {
                v: rng.choice((1, -1)) for v in triple.vertices if v not in special
            }
        return [items]


class RandomSkewgroup(_CoverWorkload):
    """Many small random dissections, each given the ``skewgroup`` verdict."""

    name = "random_skewgroup"
    MAX_ARROWS = 6
    # Bins of the triple's path count (special loops nilpotent), which
    # predicts the verdict's cost, with the items per round drawn from
    # each; the quotas follow the generator's own frequencies (2300 draws).
    EDGES = (2, 5, 8, 9, 12, 13, 16, 17, 18, 20)
    QUOTAS = {0: 4, 1: 4, 2: 6, 3: 4, 4: 2, 5: 5, 6: 2, 7: 3, 8: 6, 9: 1, 10: 3}
    ROUNDS = 12

    def generate(self, sg, seed: int, tiny: bool, workdir: Path) -> list[list[CoverItem]]:
        rng = random.Random(seed)
        count = itertools.count()

        def draw():
            triple = sg.random_triple(rng, max_arrows=self.MAX_ARROWS)
            return triple, f"r{next(count)}"

        def key(drawn):
            triple = drawn[0]
            return _bin(path_count(triple, nilpotent_loops=triple.special), self.EDGES)

        rounds = stratified_rounds(draw, key, self.QUOTAS, 1 if tiny else self.ROUNDS)
        if tiny:
            rounds = [rounds[0][::4]]
        return [
            [CoverItem(name, sg.surface_from_triple(triple)) for triple, name in rnd]
            for rnd in rounds
        ]


# ---------------------------------------------------------------------------
# CLI verdicts (random_cli)

KNOWN_DEFECT = "CURVE_THROUGH_BRANCH"
# Subcommands on which the defect is recorded: they lift boundary curves
# of the base to the cover, and a curve crossing a slit raises.
DEFECT_COMMANDS = ("invariants", "compare_ghat")


@dataclasses.dataclass
class CliItem:
    name: str
    path: Path
    roundtrip: Path
    cover: Path


def run_cli(sg, argv: list[str]) -> tuple[object, str, str]:
    """Run ``skewgentle.cli.main`` in-process; (exit code, stdout, stderr).
    An exception escaping the CLI is a failure of the verdict, recorded as
    its repr in place of the exit code."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = sg.cli.main(argv)
        except SystemExit as exc:
            rc = exc.code
        except Exception as exc:  # noqa: BLE001 - the run goes on; the gate reports it
            rc = repr(exc)
    return rc, out.getvalue(), err.getvalue()


class RandomCli:
    """Random slit dissections as files through the in-process CLI; the
    algebra layer does no work here."""

    name = "random_cli"
    # Bins of the arc count, with quotas per round that follow the
    # frequencies of ``random_x_dissection`` (2600 draws).  Every
    # single-arc dissection hits the recorded defect, so the first quota
    # (3 of 40) is also the defect's share: it must stay at the
    # generator's own rate (about 7%).
    EDGES = (1, 2, 3, 4, 5, 6)
    QUOTAS = {0: 3, 1: 7, 2: 11, 3: 10, 4: 5, 5: 2, 6: 2}
    ROUNDS = 8

    def __init__(self):
        self._checked: dict[str, tuple] = {}

    def generate(self, sg, seed: int, tiny: bool, workdir: Path) -> list[list[CliItem]]:
        rng = random.Random(seed)
        count = itertools.count()

        def draw():
            return sg.random_x_dissection(rng), f"x{next(count)}"

        rounds = stratified_rounds(
            draw, lambda d: _bin(len(d[0].arcs), self.EDGES), self.QUOTAS,
            1 if tiny else self.ROUNDS,
        )
        if tiny:
            rounds = [rounds[0][::4]]
        workdir.mkdir(parents=True, exist_ok=True)
        out = []
        for rnd in rounds:
            items = []
            for surface, name in rnd:
                item = CliItem(
                    name,
                    workdir / f"{name}.surf",
                    workdir / f"{name}.rt.surf",
                    workdir / f"{name}.cover.surf",
                )
                item.path.write_text(sg.format_surface_file(sg.SurfaceFile(surface)))
                items.append(item)
            out.append(items)
        return out

    def verdict(self, sg, item: CliItem) -> dict:
        text = item.path.read_text()
        roundtrip = sg.format_surface_file(sg.parse_surface_file(text))
        item.roundtrip.write_text(roundtrip)
        src, rt, cover = str(item.path), str(item.roundtrip), str(item.cover)
        runs = {}
        for key, argv in (
            ("validate", ["validate", src]),
            ("cover", ["cover", src]),
            ("quotient", ["quotient", cover]),
            ("invariants", ["invariants", src]),
            ("winding", ["winding", src]),
            ("compare_tilting", ["compare", "--mode", "tilting", src, rt]),
            ("compare_ghat", ["compare", "--mode", "ghat", src, rt]),
        ):
            runs[key] = run_cli(sg, argv)
            if key == "cover":
                item.cover.write_text(runs[key][1])
        return {"text": text, "roundtrip_same": roundtrip == text, "runs": runs}

    def record(self, item: CliItem, raw: dict) -> dict:
        return dict(raw, name=item.name)

    def check(self, sg, item: CliItem, rec: dict) -> list[str]:
        """Failed gates; a known-defect exit reads ``defect:<command>``."""
        signature = (rec["roundtrip_same"], tuple(sorted(rec["runs"].items())))
        cached = self._checked.get(item.name)
        if cached is not None and cached[0] == signature:
            return cached[1]
        bad = self._gates(sg, rec)
        self._checked[item.name] = (signature, bad)
        return bad

    def _gates(self, sg, rec: dict) -> list[str]:
        bad = []
        runs = rec["runs"]
        for key, (rc, _, err) in runs.items():
            if rc == 0:
                continue
            if rc == 2 and key in DEFECT_COMMANDS and KNOWN_DEFECT in err:
                bad.append(f"defect:{key}")
            else:
                bad.append(f"exit:{key}")
        if not rec["roundtrip_same"]:
            bad.append("roundtrip")
        base = surface_counts(rec["text"])
        if runs["validate"][0] == 0 and not runs["validate"][1].startswith("OK "):
            bad.append("validate_output")
        if runs["cover"][0] == 0:
            up = surface_counts(runs["cover"][1])
            if up["chi"] != 2 * base["chi"] - base["orbifold"]:
                bad.append("cover_euler")
        if runs["quotient"][0] == 0:
            back = sg.parse_surface_file(runs["quotient"][1]).surface
            if not sg.surfaces_isomorphic(back, sg.parse_surface_file(rec["text"]).surface):
                bad.append("quotient_iso")
        if runs["invariants"][0] == 0:
            if runs["invariants"][1].splitlines()[0] != f"genus {base['genus']}":
                bad.append("invariants_genus")
        expected = {
            "compare_tilting": "EQUIVALENT" if base["genus"] == 0 else "INCONCLUSIVE",
            "compare_ghat": "INCONCLUSIVE",
        }
        for key, verdict in expected.items():
            if runs[key][0] == 0 and runs[key][1].splitlines()[0] != verdict:
                bad.append(f"{key}_verdict")
        return bad

    def properties(self, records: list[dict]) -> dict:
        by_name = {r["name"]: r for r in records}
        polys = [r["runs"]["cover"][1].count("\npoly ") for r in by_name.values()]
        hit = sum(
            1 for r in by_name.values()
            if any(KNOWN_DEFECT in r["runs"][k][2] for k in DEFECT_COMMANDS)
        )
        return {
            "items": len(by_name),
            "cover_polygons": _spread(polys),
            "cover_table_density": None,
            "defect_share": hit / len(by_name),
        }


WORKLOADS = {w.name: w for w in (CoverLadder, RandomSkewgroup, RandomCli)}
