"""Standing mutants: small deliberate bugs that the Tier-1 tests must catch.

    python3 tools/mutants.py

Each mutant replaces one exact text in one source file.  For each mutant the
tool copies the repository (without ``.git`` and caches) to a temporary
directory, applies the mutant there, runs the Tier-1 command in the copy
(without the test that checks this list, which no mutated copy can pass) and
reports the mutant as killed (the tests fail) or survived (they pass).  It
exits 1 when a mutant survives, and also when a mutant's old text does not
occur exactly once in its file, so the list has to follow refactors; it exits
2 when the tests already fail on the unmutated copy.
Standard library only; a full run takes a few minutes.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIER1 = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
         "--continue-on-collection-errors"]
# the Tier-1 test that checks this list fails on every mutated copy, since the
# copy no longer holds the old text; it says nothing about the mutant
LIST_CHECK = "tests/test_tooling.py::test_standing_mutants_match_the_source"
TIMEOUT_S = 900
IGNORED = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis",
                                 "*.egg-info", ".bench_*")

PROJECTIVE = "src/hookpair/projective.py"
DIAGRAMS = "src/hookpair/diagrams.py"
BIJECTIONS = "src/hookpair/bijections.py"
SWEEP = "src/hookpair/sweep.py"
DYCK = "src/hookpair/dyck.py"
PACKAGE_INIT = "src/hookpair/__init__.py"
CLI = "src/hookpair/cli.py"


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str
    old: str
    new: str
    why: str


def shift_cache(key: str) -> str:
    """The shifted-strip cache of ``projective._cut_legs``, keyed by ``key``."""
    return (
        f"        if {key} not in shifted:\n"
        "            ti = _shifted_rows(strip, u, a1)\n"
        "            star = _rotated_rows(ti)\n"
        f"            shifted[{key}] = ["
        "(rows, _check_rising(rows), _row_sums(rows)) for rows in (ti, star)]\n"
        f"        (ti, ti_ends, ti_sums), (star, star_ends, star_sums) = shifted[{key}]\n"
    )


MUTANTS = (
    Mutant(
        "m11-diagonal-strict", PROJECTIVE,
        "bisect_right(ti_sums, diag_t + i - 1)",
        "bisect_left(ti_sums, diag_t + i - 1)",
        "cells on the strip diagonal move from m11 to m12",
    ),
    Mutant(
        "m22-column-inclusive", PROJECTIVE,
        "bisect_right(star_ends, k + i)",
        "bisect_right(star_ends, k + i - 1)",
        "the column k+1 of the rotation counts in m22, not in m21",
    ),
    Mutant(
        "m23-diagonal-inclusive", PROJECTIVE,
        "bisect_right(star_sums, 2 * k + 1 + i)",
        "bisect_left(star_sums, 2 * k + 1 + i)",
        "cells on the rotated diagonal count in m23",
    ),
    Mutant(
        "m3-diagonal-strict", PROJECTIVE,
        "bisect_right(strip_sums, diag_t + i - 1)",
        "bisect_left(strip_sums, diag_t + i - 1)",
        "cells on the strip diagonal leave m3",
    ),
    Mutant(
        "m3-ends-unsliced", PROJECTIVE,
        "_arm_slice_legs(strip[:j3], strip_ends[:j3], i)",
        "_arm_slice_legs(strip[:j3], strip_ends, i)",
        "m3's rows are measured against the row ends of the whole strip",
    ),
    Mutant(
        "m12-range-short", PROJECTIVE,
        "sorted(m12) == list(range(u - s_eff, k - s_eff + 1))",
        "sorted(m12) == list(range(u - s_eff, k - s_eff))",
        "the m12 range check is one leg shorter",
    ),
    Mutant(
        "m22-range-short", PROJECTIVE,
        "sorted(m22) == list(range(u - s_eff, i - 1))",
        "sorted(m22) == list(range(u - s_eff, i - 2))",
        "the m22 range check is one leg shorter",
    ),
    Mutant(
        "low-legs-short", PROJECTIVE,
        "m4_sorted + list(range(0, i - 1))",
        "m4_sorted + list(range(0, i - 2))",
        "the low legs added to m4 are one short",
    ),
    Mutant(
        "legs-compared-as-sets", PROJECTIVE,
        "\"m1_vs_m2\": sorted(m1) == sorted(m2),",
        "\"m1_vs_m2\": set(m1) == set(m2),",
        "m1 and m2 compared as sets ignore multiplicities",
    ),
    Mutant(
        "shift-row-scan-strict", PROJECTIVE,
        "while u <= k and u - parts[u - 1] < i:",
        "while u <= k and u - parts[u - 1] <= i:",
        "the shift row needs a - alpha_a > i instead of >= i",
    ),
    Mutant(
        "split-index-scan-strict", PROJECTIVE,
        "while s > 1 and parts[s - 2] <= i - 1:",
        "while s > 1 and parts[s - 2] < i - 1:",
        "the split index needs alpha_j < i-1 instead of <= i-1",
    ),
    Mutant(
        "strip-cached-per-cut", PROJECTIVE, shift_cache("u"), shift_cache("i - 1"),
        "every cut builds its own shifted strip: the legs stay right, the work does not",
    ),
    Mutant(
        "strip-cached-under-s", PROJECTIVE, shift_cache("u"), shift_cache("s"),
        "cuts with the same split index share one shifted strip",
    ),
    Mutant(
        "rotation-unreversed", DIAGRAMS,
        "for lo, hi in reversed(rows)]",
        "for lo, hi in rows]",
        "the rotation keeps the row order",
    ),
    Mutant(
        "clamp-off-by-one", PROJECTIVE,
        "(lo, min(hi, total - r))",
        "(lo, min(hi, total - r + 1))",
        "the part on or below a diagonal takes one cell too many",
    ),
    Mutant(
        "m4-cut-inclusive", PROJECTIVE,
        "bisect_right(dgm_sums, diag_d + i - 1)",
        "bisect_left(dgm_sums, diag_d + i - 1)",
        "cells of D on its diagonal count in m4",
    ),
    Mutant(
        "short-row-unchecked", DYCK,
        "            raise IndexOutOfRange("
        "f\"row {r} has only {hi - lo + 1} cells, need {p.n}\")\n",
        "            pass\n",
        "a strip row shorter than n puts some x of the pairing kernel left of its row",
    ),
    Mutant(
        "arm-slice-column-short", DYCK,
        "Label(\"x\", j, (j, hi - i + 1))",
        "Label(\"x\", j, (j, hi - i))",
        "label_cells puts x_j on the arm-i cell of its row instead of the arm-(i-1) one",
    ),
    Mutant(
        "t1star-split-wide", DIAGRAMS,
        "min(hi, n - ak)",
        "min(hi, n - ak + 1)",
        "T1star keeps one column of T2star",
    ),
    Mutant(
        "stats-measure-whole-shape", DIAGRAMS,
        "enumerate(zip(rows, part), 1)",
        "enumerate(zip(rows, rows), 1)",
        "the run map of a part holds every cell of its shape",
    ),
    Mutant(
        "stats-run-last-cell-dropped", DIAGRAMS,
        "for c in range(c0, c1 + 1)",
        "for c in range(c0, c1)",
        "the (arm, leg) table loses the last cell of every run",
    ),
    Mutant(
        "no-rising-check", DIAGRAMS,
        "        if prev_lo is not None and (lo < prev_lo or hi < prev_hi):\n"
        "            raise NotRising(",
        "        if False:\n"
        "            raise NotRising(",
        "legs of a falling shape are counted by the row walk anyway",
    ),
    Mutant(
        "run-start-off-by-one", DIAGRAMS,
        "runs[leg, a0] = runs.get((leg, a0), 0) + 1",
        "runs[leg, a0 + 1] = runs.get((leg, a0 + 1), 0) + 1",
        "every run of a run map starts one arm late",
    ),
    Mutant(
        "run-breakpoint-at-h", DIAGRAMS,
        "start = h + 1",
        "start = h",
        "the leg drops at the column h of a row end below, not at h + 1",
    ),
    Mutant(
        "run-sign-flipped", PROJECTIVE,
        "_same_runs(sq_runs, [r_runs, d_runs])",
        "_same_runs(r_runs, [sq_runs, d_runs])",
        "the run map of D's part is added to SQ's side, not to R's",
    ),
    Mutant(
        "merge-pointer-inclusive", DIAGRAMS,
        "while ends[left] < c:",
        "while ends[left] <= c:",
        "the leg kernel skips the rows below that end at the cell's own column",
    ),
    Mutant(
        "leg-kernel-short-row-unchecked", DIAGRAMS,
        "        if hi - lo + 1 < i:\n"
        "            r = first + len(out)\n"
        "            raise IndexOutOfRange(f\"row {r} has only {hi - lo + 1} cells, need {i}\")\n",
        "",
        "the leg kernel reads a leg for a row shorter than i, left of the row",
    ),
    Mutant(
        "leg-kernel-column-short", DIAGRAMS,
        "        c = hi - i + 1\n",
        "        c = hi - i\n",
        "the leg kernel measures the arm-i cell of each row instead of the arm-(i-1) one",
    ),
    Mutant(
        "rightmost-walk-column-short", DIAGRAMS,
        "out.append((r, cols[-i:]))",
        "out.append((r, cols[-i + 1:]))",
        "arm_slice and arm_prefix read each row's i-1 rightmost columns, not i",
    ),
    Mutant(
        "subset-check-strict", DIAGRAMS,
        "    if not members <= g.cells:",
        "    if not members < g.cells:",
        "al_multiset and hook_multiset reject the whole diagram as not a subset",
    ),
    Mutant(
        "bounds-without-empty-check", DIAGRAMS,
        "        if not self._cells:\n"
        "            raise EmptySet(\"operation needs a non-empty cell set\")\n",
        "",
        "bounds and the transforms built on it fail on an empty set with min()'s ValueError",
    ),
    Mutant(
        "repro-without-theorem", DIAGRAMS,
        "--alpha {alpha} --theorem {theorem}\"",
        "--alpha {alpha}\"",
        "the repro command line of a counterexample does not name its identity",
    ),
    Mutant(
        "counterexample-drops-extra", DIAGRAMS,
        "case = _case(p, theorem, extra)",
        "case = _case(p, theorem)",
        "a counterexample's case loses its extra keys, such as m_decomposition's cut i",
    ),
    Mutant(
        "zeta1-drop-short", BIJECTIONS,
        "L = sum(lo <= c for lo in v_starts)",
        "L = sum(lo < c for lo in v_starts)",
        "zeta_1's row drop L misses the V row that starts at the column",
    ),
    Mutant(
        "star-split-strict", BIJECTIONS,
        "    if c <= cut:\n",
        "    if c < cut:\n",
        "the last column of T*1 is sent to D instead of R2",
    ),
    Mutant(
        "hook-multiset-without-one", BIJECTIONS,
        "hooks[arm + leg + 1] += count",
        "hooks[arm + leg] += count",
        "the hook multisets of the oracle count arm + leg, not arm + leg + 1",
    ),
    Mutant(
        "hook-identity-reads-pairs", BIJECTIONS,
        "left, right, cert = _hook_image(left), _hook_image(right), cert.hook_view()",
        "cert = cert.hook_view()",
        "identity 1's oracle compares the (arm, leg) multisets, not their hook image",
    ),
    Mutant(
        "witnesses-per-identity", BIJECTIONS,
        "    for stat, source, targets in specs:\n",
        "    for stat, source, targets in specs:\n        found = {}\n",
        "identities 1 and 2 each count SQ's, R's and D's cells and certify psi anew",
    ),
    Mutant(
        "hook-view-without-one", BIJECTIONS,
        "(a + l + 1,), (b + m + 1,)",
        "(a + l,), (b + m,)",
        "the hooks a certificate records are arm + leg, not arm + leg + 1",
    ),
    Mutant(
        "hook-view-keeps-equal-hooks", BIJECTIONS,
        "                if a + l == b + m:\n"
        "                    continue\n",
        "",
        "identity 1 fails on a stat-mismatch of (arm, leg) pairs whose hooks agree",
    ),
    Mutant(
        "hook-view-copies-verdict", BIJECTIONS,
        "BijectionCertificate(records, not failures, tuple(failures))",
        "BijectionCertificate(records, self.verdict, tuple(failures))",
        "identity 1's certificate takes the (arm, leg) verdict, not the one of its own failures",
    ),
    Mutant(
        "coverage-pooled", BIJECTIONS,
        "{cell for t, cell in seen if t == tag}",
        "{cell for _, cell in seen}",
        "a certificate counts an image cell as covered under any tag",
    ),
    Mutant(
        "report-equal-inverted", BIJECTIONS,
        "\"equal\": difference is None,",
        "\"equal\": difference is not None,",
        "a report's oracle says its multisets are equal exactly when they differ",
    ),
    Mutant(
        "report-verdict-either-witness", BIJECTIONS,
        "\"pass\" if difference is None and cert.verdict else",
        "\"pass\" if difference is None or cert.verdict else",
        "a report passes when either witness passes, not only when both do",
    ),
    Mutant(
        "identity-1-reads-al", DIAGRAMS,
        "1: (\"hook\", \"SQ\", (\"R\", \"D\")),",
        "1: (\"al\", \"SQ\", (\"R\", \"D\")),",
        "identity 1 compares (arm, leg) pairs instead of hooks",
    ),
    Mutant(
        "identity-3-from-sq", DIAGRAMS,
        "3: (\"al\", \"T\", (\"Tstar\",)),",
        "3: (\"al\", \"SQ\", (\"Tstar\",)),",
        "identity 3 measures SQ and certifies psi against T*",
    ),
    Mutant(
        "sweep-first-verdict-for-all", SWEEP,
        "oks = [left == right and cert.verdict for _, left, right, cert in witnesses]",
        "oks = [left == right and cert.verdict for _, left, right, cert in witnesses][:1]"
        " * len(entries)",
        "a box sweep gives every identity of a partition the first identity's verdict",
    ),
    Mutant(
        "pool-at-module-top", SWEEP,
        "import time\n",
        "import time\nfrom multiprocessing import Pool\n",
        "every import of hookpair loads multiprocessing, which only a parallel sweep uses",
    ),
    Mutant(
        "partition-make-unchecked", DIAGRAMS,
        "class Partition(_Checked, namedtuple(",
        "class Partition(namedtuple(",
        "Partition._make and _replace build a partition without its checks",
    ),
    Mutant(
        "sweep-config-empty-unchecked", SWEEP,
        "        theorems = tuple(theorems)\n"
        "        if not theorems:\n"
        "            raise UnknownChoice(\"at least one identity must be selected\")\n",
        "        if not theorems:\n"
        "            raise UnknownChoice(\"at least one identity must be selected\")\n"
        "        theorems = tuple(theorems)\n",
        "an empty iterator of identities is truthy and passes as a sweep of no identity",
    ),
    Mutant(
        "out-empty-unchecked", SWEEP,
        "if not path or not os.path.isdir(parent):",
        "if not os.path.isdir(parent):",
        "a sweep with an empty report path runs every case and writes nothing",
    ),
    Mutant(
        "pool-ignores-cap", SWEEP,
        "with Pool(workers) as pool:",
        "with Pool(cfg.jobs) as pool:",
        "a parallel sweep opens one process per job, past the CPUs and the cases",
    ),
    Mutant(
        "sweep-theorems-duplicates", SWEEP,
        "        if len(set(theorems)) != len(theorems):\n"
        "            raise UnknownChoice(f\"an identity is named twice in {theorems}\")\n",
        "",
        "a sweep that names an identity twice checks each of its cases twice",
    ),
    Mutant(
        "fold-keeps-last-failure", SWEEP,
        "if first is None and entry[\"verdict\"] == \"fail\":",
        "if entry[\"verdict\"] == \"fail\":",
        "a sweep reports its last failing case instead of its first",
    ),
    Mutant(
        "write-drops-newline", SWEEP,
        "            fh.write(\"\\n\")\n",
        "",
        "a written sweep report lacks its final newline",
    ),
    Mutant(
        "write-unsorted", SWEEP,
        "json.dump(self.to_json(), fh, indent=2, sort_keys=True)",
        "json.dump(self.to_json(), fh, indent=2)",
        "a written sweep report keeps its keys in insertion order",
    ),
    Mutant(
        "dyck-steps-swapped", DYCK,
        "d = 1 if lab.kind == \"x\" else -1",
        "d = 1 if lab.kind == \"z\" else -1",
        "z labels step up and x labels down",
    ),
    Mutant(
        "pairing-tie-toward-z", DYCK,
        "while j < m and xs[j] <= z:",
        "while j < m and xs[j] < z:",
        "the pairing kernel's merge puts a z before an x in the same column",
    ),
    Mutant(
        "pairing-pops-oldest", DYCK,
        "pairing[stack.pop()] = k - r",
        "pairing[stack.pop(0)] = k - r",
        "the pairing kernel matches a down step with the oldest open up step",
    ),
    Mutant(
        "pairing-x-column-short", DYCK,
        "[hi - i + 1 for hi in ends]",
        "[hi - i for hi in ends]",
        "the pairing kernel places x_j at the arm-i cell of its row, one column left",
    ),
    Mutant(
        "decimal-takes-plus", DIAGRAMS,
        "r\"-?[0-9]+\"",
        "r\"[-+]?[0-9]+\"",
        "outside text such as +3 becomes an int",
    ),
    Mutant(
        "require-int-takes-bool", DIAGRAMS,
        "if type(value) is not int:",
        "if not isinstance(value, int):",
        "True and False pass the integer check as 1 and 0",
    ),
    Mutant(
        "package-name-under-wrong-module", PACKAGE_INIT,
        "        \"run_sweep\",\n"
        "    ),\n"
        "    \"render\": (\"render_ascii\",),\n",
        "    ),\n"
        "    \"render\": (\"render_ascii\", \"run_sweep\"),\n",
        "the table lists a name under a module that does not define it",
    ),
    Mutant(
        "package-caches-objects", PACKAGE_INIT,
        "    return getattr(_module(_OWNER[name]), name)\n",
        "    value = globals()[name] = getattr(_module(_OWNER[name]), name)\n"
        "    return value\n",
        "the package keeps the first object it read, so a name rebound in its module "
        "(a timing wrapper) does not show",
    ),
    Mutant(
        "package-unknown-searches", PACKAGE_INIT,
        "    if name not in _OWNER:\n",
        "    if name not in _OWNER:\n"
        "        for m in _EXPORTS:\n"
        "            _module(m)\n",
        "a name no row lists loads every module before it fails",
    ),
    Mutant(
        "package-unknown-is-none", PACKAGE_INIT,
        "        raise AttributeError(f\"module {__name__!r} has no attribute {name!r}\")\n",
        "        return None\n",
        "a misspelt name reads as None instead of failing",
    ),
    Mutant(
        "package-cli-unknown", PACKAGE_INIT,
        "if name in _EXPORTS or name == \"cli\":",
        "if name in _EXPORTS:",
        "hookpair.cli fails unless hookpair.cli was imported first",
    ),
    Mutant(
        "sweep-loads-projective", SWEEP,
        "from .errors import UnknownChoice\n",
        "from .errors import UnknownChoice\nfrom .projective import projective_report\n",
        "SweepConfig and every box sweep load projective",
    ),
    Mutant(
        "sweep-loads-bijections", SWEEP,
        "from . import _EXPORTS\n",
        "from . import _EXPORTS\nfrom .bijections import _witnesses\n",
        "SweepConfig and every projective sweep load bijections and dyck",
    ),
    Mutant(
        "cli-loads-bijections", CLI,
        "from .errors import CounterexampleFound",
        "from .bijections import verify_theorem\nfrom .errors import CounterexampleFound",
        "every subcommand loads bijections and dyck",
    ),
)


def unmatched() -> list[str]:
    """'name: reason' for every mutant whose old text does not occur exactly
    once in its file."""
    bad = []
    for m in MUTANTS:
        path = ROOT / m.path
        if not path.is_file():
            bad.append(f"{m.name}: no file {m.path}")
            continue
        count = path.read_text(encoding="utf-8").count(m.old)
        if count != 1:
            bad.append(f"{m.name}: old text occurs {count} times in {m.path}")
    return bad


def tier1_fails(mutant: Mutant | None) -> bool:
    """Whether the Tier-1 tests fail on a copy of the tree with the mutant
    applied (with none applied when it is None)."""
    with tempfile.TemporaryDirectory(prefix="hookpair-mutant-") as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=IGNORED)
        if mutant is not None:
            path = copy / mutant.path
            text = path.read_text(encoding="utf-8")
            path.write_text(text.replace(mutant.old, mutant.new, 1), encoding="utf-8")
            command = TIER1 + ["--deselect", LIST_CHECK]
        else:
            command = TIER1
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(copy / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        try:
            done = subprocess.run(command, cwd=copy, env=env, capture_output=True,
                                  timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return True
        return done.returncode != 0


def main() -> int:
    bad = unmatched()
    for line in bad:
        print(f"stale    {line}")
    if tier1_fails(None):
        print("the Tier-1 tests fail without a mutant; nothing to measure")
        return 2
    survived = 0
    for m in MUTANTS:
        if any(line.startswith(f"{m.name}:") for line in bad):
            continue
        killed = tier1_fails(m)
        survived += not killed
        print(f"{'killed' if killed else 'SURVIVED':<8} {m.name}: {m.why}", flush=True)
    print(f"{len(MUTANTS) - len(bad) - survived} killed, {survived} survived, "
          f"{len(bad)} stale")
    return 1 if bad or survived else 0


if __name__ == "__main__":
    sys.exit(main())
