#!/usr/bin/env python3
"""accpar_lint — repo-invariant static lint for the AccPar tree.

Grown out of check_diag_codes.py: the same diagnostic-catalog and
checker-independence invariants, now one rule each in a multi-rule
linter with stable codes, JSON output and self-test fixtures. Run by
ctest (`accpar_lint` against the repo, `lint_selftest` against the
fixtures) and as a standalone CI step.

Rules (stable codes — never reuse or renumber):

  ALINT01  Raw standard-library synchronization (std::mutex,
           std::lock_guard, std::unique_lock, std::shared_mutex,
           std::scoped_lock, std::shared_lock, std::condition_variable,
           recursive/timed variants) appears in src/ outside
           util/sync.h. All locking must go through the
           capability-annotated util::sync wrappers so the Clang
           -Wthread-safety build sees every acquisition.
  ALINT02  Nondeterministic float emission: a printf-style float
           conversion (%f/%e/%g/%a family) or a floating
           std::to_chars call outside the deterministic %.17g
           emitters (util/json.cpp, core/planner.cpp), a non-%.17g
           float conversion or a to_chars call without
           chars_format::general and precision 17 inside one, or
           std::to_string of a floating-point expression anywhere in
           src/. Comments are not code: only what survives stripping
           // and /* */ comments is scanned. A to_chars call counts as
           the (allowed) integer overload only when it says so — a
           static_cast to an integer type or an integer literal as the
           value, or a base argument; any other call is floating.
           Serialized floats must round-trip byte-identically (plans,
           certificates, fingerprints), which only the shared %.17g
           emitter guarantees.
  ALINT03  A frozen file (recorded in tools/frozen_manifest.json with
           its SHA-256) was modified or deleted. The frozen set — the
           pre-flattening legacy DP solver and the independent
           certificate-recurrence checker — is the reference against
           which bit-identity and audit guarantees are stated; changing
           one is a deliberate act that must update the manifest in the
           same commit.
  ALINT04  Diagnostic-code catalog incoherence: a stable code (AG*,
           AP*, APIO*, AMIO*, AC*, ACIO*, ASRV*, ADOT*, AONX*, ALINT*)
           is emitted from a src/ string literal but undocumented in
           DESIGN.md, documented but never emitted, or documented more
           than once.
  ALINT05  The certificate checker reaches the solver kernel: the
           quoted-include graph from the checker roots reaches
           core/dp_kernel.h, which would void the independence of the
           audit. When ACCPAR_ANALYZE_BIN names the compiled
           accpar-analyze binary, this rule is a thin shim over its
           lexer-accurate include graph (`--rules ALINT08` forbid
           reachability); without the binary it falls back to the
           original regex include walk, so the build-free repo-lint CI
           job and the fixture self-test still work.
  ALINT06  Raw standard-library randomness (std::rand, std::srand,
           std::mt19937/_64, std::minstd_rand/0, std::random_device,
           std::default_random_engine) appears in src/ outside
           util/rng.h. All stochastic code — the annealing search,
           fuzzers, synthetic workloads — must draw from a seeded
           util::Rng so every run is replayable from its seed and
           results do not vary across standard-library
           implementations.
  ALINT12  The git index disagrees with what the build needs: a
           path under build*/ or Testing/ is tracked, or a tests/data
           file the tests name is not. Build output is machine-local
           state; committing it bloats history and invites
           stale-artifact confusion. A named data file that exists
           only locally (say, hidden by a .gitignore pattern) passes
           every local run and fails on a fresh clone. Data paths are
           read from tests/CMakeLists.txt (${ACCPAR_TEST_DATA}/...,
           ${CMAKE_CURRENT_SOURCE_DIR}/data/..., tests/data/...),
           tests/*.cpp (tests/data/... literals, and bare file-name
           literals naming a file present under tests/data) and
           .github/workflows/ci.yml (tests/data/... paths; a glob must
           match a tracked file). The rule is skipped outside a git
           work tree; the self-test runs each fixture in a fresh one.

ALINT08-ALINT11 (layer-DAG architecture, unordered-iteration taint,
wall-clock/locale determinism, failure-path audit) live in the
compiled sibling `accpar-analyze` (tools/analyzer/, DESIGN.md §18):
they need a real C++ lexer and a resolved include graph, which regexes
cannot provide.

Usage:
  accpar_lint.py [repo_root] [--json] [--rules ALINT01,ALINT03]
  accpar_lint.py --self-test [fixtures_dir]

Exit status: 0 clean, 1 findings (or a self-test mismatch), 2 usage.
"""

import argparse
import fnmatch
import hashlib
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

TOOL_VERSION = "1.0.0"

CODE_RE = re.compile(r"\bA[A-Z]{1,6}[0-9]{2,3}\b")
STRING_RE = re.compile(r'"((?:[^"\\\n]|\\.)*)"')
INCLUDE_RE = re.compile(r'^\s*#\s*include\s+"([^"]+)"', re.MULTILINE)
DESIGN_ROW_RE = re.compile(r"^\|\s*(A[A-Z]{1,6}[0-9]{2,3})\s*\|")

RAW_SYNC_RE = re.compile(
    r"std::(?:recursive_|timed_|recursive_timed_)?mutex\b"
    r"|std::shared_(?:mutex|timed_mutex|lock)\b"
    r"|std::condition_variable(?:_any)?\b"
    r"|std::(?:lock_guard|unique_lock|scoped_lock)\b")
# A printf conversion consuming a floating argument: %[flags][width]
# [.precision](length)[aefgAEFG]. The space flag is deliberately not
# matched: it is never used here and "% a" appears in prose literals.
FLOAT_CONV_RE = re.compile(
    r"%[-+#0']*[0-9*]*(?:\.[0-9*]+)?(?:[lLh]*)[aefgAEFG]")
CANONICAL_FLOAT_CONV = "%.17g"
TO_STRING_RE = re.compile(r"std::to_string\s*\(([^()]*(?:\([^()]*\))?[^()]*)\)")
TO_CHARS_RE = re.compile(r"\bto_chars\s*\(")
INT_VALUE_RE = re.compile(
    r"^-?\d+[uUlL]*$"
    r"|^static_cast<\s*(?:(?:std::)?u?int(?:8|16|32|64)_t|(?:std::)?size_t"
    r"|(?:unsigned\s+|signed\s+)?(?:char|short|int|long(?:\s+long)?)"
    r"|unsigned)\s*>")
FLOAT_ARG_RE = re.compile(
    r"\d\.\d|\d\.[fF]?\)|\de[-+]?\d"
    r"|static_cast<\s*(?:double|float|long double)\s*>"
    r"|\(\s*(?:double|float)\s*\)")

# ALINT01: the one file allowed to name the raw primitives (it wraps
# them). Its .cpp deliberately avoids them too (POSIX mutex inside), so
# the allowlist is exactly what the acceptance `rg` exempts.
SYNC_ALLOWED = {"src/util/sync.h"}
RAW_RANDOM_RE = re.compile(
    r"std::s?rand\b"
    r"|std::mt19937(?:_64)?\b"
    r"|std::minstd_rand0?\b"
    r"|std::random_device\b"
    r"|std::default_random_engine\b")
# ALINT06: the one randomness source (the seeded SplitMix64 wrapper);
# it may name the raw engines in its policy comment.
RANDOM_ALLOWED = {"src/util/rng.h"}
# ALINT02: the deterministic emitters every serialized float goes
# through (JSON output and the planner's cache-key fingerprint), and
# the only conversion they may use.
FLOAT_EMITTERS = {"src/util/json.cpp", "src/core/planner.cpp"}
# ALINT05: roots of the independence walk (relative to src/) and the
# header that must stay unreachable.
CHECKER_ROOTS = [
    "analysis/certificate_checker.h",
    "analysis/certificate_checker.cpp",
    "core/certificate.h",
]
FORBIDDEN_HEADER = "core/dp_kernel.h"

MANIFEST_PATH = "tools/frozen_manifest.json"

RULES = {
    "ALINT01": "raw std synchronization primitive outside util/sync.h",
    "ALINT02": "nondeterministic float emission outside the %.17g emitter",
    "ALINT03": "frozen file modified without updating the manifest",
    "ALINT04": "diagnostic-code catalog incoherent with DESIGN.md",
    "ALINT05": "certificate checker reaches the solver kernel",
    "ALINT06": "raw std randomness outside util/rng.h",
    "ALINT12": "a build tree is tracked by git, or a named tests/data "
               "file is not",
}

# ALINT12: tracked paths that are build output. Anchored at the repo
# root; build-*/ covers the multi-config trees (build-perf, build-scalar)
# and Testing/ is ctest's dashboard scratch.
TRACKED_BUILD_RE = re.compile(r"^(?:build[^/]*|Testing)/")
# ALINT12: spellings of a tests/data path; group 1 is the part below
# tests/data/.
DATA_PATH_CHARS = r"([A-Za-z0-9_.*?/-]*[A-Za-z0-9_*?])"
CMAKE_DATA_RE = re.compile(
    r"(?:\$\{ACCPAR_TEST_DATA\}|\$\{CMAKE_CURRENT_SOURCE_DIR\}/data"
    r"|\btests/data)/" + DATA_PATH_CHARS)
REPO_DATA_RE = re.compile(r"\btests/data/" + DATA_PATH_CHARS)


class Finding:
    def __init__(self, code, path, line, message):
        self.code = code
        self.path = path
        self.line = line
        self.message = message

    def render(self):
        where = f"{self.path}:{self.line}" if self.line else self.path
        return f"accpar_lint: {self.code} {where}: {self.message}"

    def to_json(self):
        return {
            "code": self.code,
            "path": self.path,
            "line": self.line,
            "message": self.message,
        }


def iter_sources(src: Path):
    for path in sorted(src.rglob("*")):
        if path.suffix in (".h", ".cpp"):
            yield path


def code_lines(text: str):
    """Yields (line number, code) for each line of @p text with // and
    /* */ comments (including multi-line doc comments) blanked out.
    String and character literals are kept verbatim, so a "//" or
    "/*" inside one does not start a comment."""
    in_block = False
    for number, line in enumerate(text.splitlines(), start=1):
        out = []
        quote = None
        i = 0
        while i < len(line):
            if in_block:
                end = line.find("*/", i)
                if end < 0:
                    break
                in_block = False
                i = end + 2
                out.append(" ")
                continue
            ch = line[i]
            if quote:
                out.append(line[i:i + 2] if ch == "\\" else ch)
                if ch == quote:
                    quote = None
                i += 2 if ch == "\\" else 1
                continue
            if line.startswith("//", i):
                break
            if line.startswith("/*", i):
                in_block = True
                i += 2
                continue
            # A ' after an alphanumeric is a digit separator (1'000),
            # not the start of a character literal.
            if ch == '"' or (ch == "'" and not (
                    out and out[-1][-1:].isalnum())):
                quote = ch
            out.append(ch)
            i += 1
        yield number, "".join(out)


def call_arguments(text: str, open_paren: int):
    """Top-level comma-separated arguments of the call whose "(" is at
    @p open_paren in @p text, or None when the parentheses do not
    close."""
    args = []
    depth = 0
    start = open_paren + 1
    for i in range(open_paren, len(text)):
        ch = text[i]
        if ch in "([{":
            depth += 1
        elif ch in ")]}":
            depth -= 1
            if depth == 0:
                args.append(text[start:i].strip())
                return args
        elif ch == "," and depth == 1:
            args.append(text[start:i].strip())
            start = i + 1
    return None


def check_raw_sync(root: Path):
    """ALINT01 — including comments: the invariant is checked with a
    plain grep in CI docs, so the tool flags exactly what rg would."""
    findings = []
    src = root / "src"
    for path in iter_sources(src):
        rel = path.relative_to(root).as_posix()
        if rel in SYNC_ALLOWED:
            continue
        for number, line in enumerate(
                path.read_text(encoding="utf-8").splitlines(), start=1):
            match = RAW_SYNC_RE.search(line)
            if match:
                findings.append(Finding(
                    "ALINT01", rel, number,
                    f"raw {match.group(0)} — use the util::sync "
                    f"wrappers (util/sync.h) so the thread-safety "
                    f"analysis sees this acquisition"))
    return findings


def to_chars_findings(rel: str, code: str, is_emitter: bool):
    """ALINT02's std::to_chars half over one file's comment-free code:
    floating calls belong in the emitters, and there only as
    chars_format::general with precision 17 (what %.17g prints)."""
    findings = []
    for match in TO_CHARS_RE.finditer(code):
        args = call_arguments(code, match.end() - 1)
        if args is None or len(args) < 3:
            continue
        number = code.count("\n", 0, match.start()) + 1
        named_format = any("chars_format" in arg for arg in args)
        floating = named_format or FLOAT_ARG_RE.search(args[2])
        if not floating and (INT_VALUE_RE.search(args[2])
                             or len(args) == 4):
            continue  # the integer overload
        if not is_emitter:
            findings.append(Finding(
                "ALINT02", rel, number,
                "floating std::to_chars outside the deterministic "
                "emitter — serialize doubles through util::json (an "
                "integer conversion must static_cast its value to the "
                "integer type)"))
        elif not (len(args) == 5 and "chars_format::general" in args[3]
                  and args[4] == "17"):
            findings.append(Finding(
                "ALINT02", rel, number,
                "emitter calls std::to_chars without "
                "chars_format::general and precision 17; the "
                f"deterministic emitter must print "
                f"{CANONICAL_FLOAT_CONV}"))
    return findings


def check_float_emission(root: Path):
    """ALINT02 over the string literals, std::to_string and
    std::to_chars calls of each file's code (comments excluded)."""
    findings = []
    src = root / "src"
    for path in iter_sources(src):
        rel = path.relative_to(root).as_posix()
        is_emitter = rel in FLOAT_EMITTERS
        numbered = list(code_lines(path.read_text(encoding="utf-8")))
        for number, code_part in numbered:
            for literal in STRING_RE.findall(code_part):
                for conv in FLOAT_CONV_RE.findall(literal):
                    if is_emitter and conv == CANONICAL_FLOAT_CONV:
                        continue
                    if is_emitter:
                        findings.append(Finding(
                            "ALINT02", rel, number,
                            f"emitter uses {conv}; the deterministic "
                            f"emitter must only use "
                            f"{CANONICAL_FLOAT_CONV}"))
                    else:
                        findings.append(Finding(
                            "ALINT02", rel, number,
                            f"printf float conversion {conv} outside "
                            f"the deterministic emitter — serialize "
                            f"doubles through util::json"))
            for call in TO_STRING_RE.finditer(code_part):
                if FLOAT_ARG_RE.search(call.group(1)):
                    findings.append(Finding(
                        "ALINT02", rel, number,
                        "std::to_string of a floating-point "
                        "expression is locale/precision-dependent — "
                        "serialize doubles through util::json"))
        findings += to_chars_findings(
            rel, "\n".join(code for _, code in numbered), is_emitter)
    return findings


def check_frozen(root: Path):
    """ALINT03 against tools/frozen_manifest.json (absent = no frozen
    set, e.g. in fixture trees that exercise other rules)."""
    manifest_file = root / MANIFEST_PATH
    if not manifest_file.exists():
        return []
    findings = []
    try:
        manifest = json.loads(manifest_file.read_text(encoding="utf-8"))
        entries = manifest["frozen"]
    except (json.JSONDecodeError, KeyError, TypeError) as error:
        return [Finding("ALINT03", MANIFEST_PATH, 0,
                        f"unreadable manifest: {error}")]
    for entry in entries:
        rel = entry["path"]
        recorded = entry["sha256"]
        target = root / rel
        if not target.exists():
            findings.append(Finding(
                "ALINT03", rel, 0,
                "frozen file deleted; remove its manifest entry only "
                "with the change that retires the guarantee"))
            continue
        actual = hashlib.sha256(target.read_bytes()).hexdigest()
        if actual != recorded:
            findings.append(Finding(
                "ALINT03", rel, 0,
                f"frozen file changed (sha256 {actual[:12]}…, manifest "
                f"records {recorded[:12]}…) — if intentional, update "
                f"{MANIFEST_PATH} in the same commit and say why"))
    return findings


def source_codes(src: Path):
    found = {}
    for path in iter_sources(src):
        text = path.read_text(encoding="utf-8")
        for literal in STRING_RE.findall(text):
            for code in CODE_RE.findall(literal):
                found.setdefault(code, set()).add(
                    str(path.relative_to(src.parent)))
    return found


def documented_codes(design: Path):
    rows = {}
    if not design.exists():
        return rows
    for number, line in enumerate(
            design.read_text(encoding="utf-8").splitlines(), start=1):
        match = DESIGN_ROW_RE.match(line)
        if match:
            rows.setdefault(match.group(1), []).append(number)
    return rows


def check_catalog(root: Path):
    """ALINT04 — source literals vs DESIGN.md rows. When linting the
    real repo (the tree that contains this tool) the linter's own rule
    codes count as emitted, so ALINT* rows are required in DESIGN.md."""
    findings = []
    design = root / "DESIGN.md"
    in_source = source_codes(root / "src")
    if (root / "tools" / Path(__file__).name).exists():
        for code in RULES:
            in_source.setdefault(code, set()).add(
                f"tools/{Path(__file__).name}")
    # The compiled analyzer emits ALINT08-11 from tools/analyzer/
    # string literals; count those so its codes need catalog rows too.
    analyzer_dir = root / "tools" / "analyzer"
    if analyzer_dir.exists():
        for path in iter_sources(analyzer_dir):
            rel = path.relative_to(root).as_posix()
            for literal in STRING_RE.findall(
                    path.read_text(encoding="utf-8")):
                for code in CODE_RE.findall(literal):
                    in_source.setdefault(code, set()).add(rel)
    in_design = documented_codes(design)

    for code in sorted(set(in_source) - set(in_design)):
        findings.append(Finding(
            "ALINT04", "DESIGN.md", 0,
            f"{code} is emitted from {sorted(in_source[code])} but has "
            f"no catalog row"))
    for code in sorted(set(in_design) - set(in_source)):
        findings.append(Finding(
            "ALINT04", "DESIGN.md", in_design[code][0],
            f"{code} is documented but no source emits it (stale "
            f"catalog entry)"))
    for code, lines in sorted(in_design.items()):
        if len(lines) > 1:
            findings.append(Finding(
                "ALINT04", "DESIGN.md", lines[1],
                f"{code} is documented more than once (lines {lines})"))
    return findings


def _independence_via_analyzer(root: Path, binary: str):
    """Delegates ALINT05 to accpar-analyze's resolved include graph.

    The analyzer's ALINT08 `forbid` statements (DESIGN.md §18) encode
    the same checker-independence ban; any forbidden-reach finding that
    names the solver kernel is re-badged ALINT05 so downstream
    consumers see the historical stable code. Returns None when the
    delegation cannot run (caller falls back to the regex walk)."""
    try:
        proc = subprocess.run(
            [binary, str(root), "--rules", "ALINT08", "--json"],
            capture_output=True, text=True, timeout=120, check=False)
        report = json.loads(proc.stdout)
    except (OSError, subprocess.TimeoutExpired,
            json.JSONDecodeError):
        return None
    findings = []
    for item in report.get("findings", []):
        message = item.get("message", "")
        if "forbidden reach" not in message:
            continue
        if FORBIDDEN_HEADER not in message:
            continue
        findings.append(Finding(
            "ALINT05", item.get("path", ""), item.get("line", 0),
            message + " (via accpar-analyze)"))
    return findings


def check_independence(root: Path):
    """ALINT05 — the quoted-include graph from the checker roots must
    not reach the solver kernel. Prefers the compiled analyzer's
    lexer-accurate graph (ACCPAR_ANALYZE_BIN); falls back to the
    original regex BFS when the binary is unavailable."""
    binary = os.environ.get("ACCPAR_ANALYZE_BIN")
    if binary and Path(binary).exists() and (root / "DESIGN.md").exists():
        delegated = _independence_via_analyzer(root, binary)
        if delegated is not None:
            return delegated
    src = root / "src"
    reached = {}
    queue = []
    for start in CHECKER_ROOTS:
        if (src / start).exists():
            reached[start] = "(root)"
            queue.append(start)
    while queue:
        current = queue.pop()
        text = (src / current).read_text(encoding="utf-8")
        for include in INCLUDE_RE.findall(text):
            if include in reached or not (src / include).exists():
                continue
            reached[include] = current
            queue.append(include)
    if FORBIDDEN_HEADER not in reached:
        return []
    chain = [FORBIDDEN_HEADER]
    while reached[chain[-1]] != "(root)":
        chain.append(reached[chain[-1]])
    return [Finding(
        "ALINT05", "src/" + chain[-1], 0,
        "certificate checker reaches the solver kernel: "
        + " <- ".join(chain)
        + " — the audit must stay independent of dp_kernel.h")]


def check_raw_random(root: Path):
    """ALINT06 — like ALINT01, including comments: the policy is stated
    as a grep-checkable invariant, so the tool flags what rg would."""
    findings = []
    src = root / "src"
    for path in iter_sources(src):
        rel = path.relative_to(root).as_posix()
        if rel in RANDOM_ALLOWED:
            continue
        for number, line in enumerate(
                path.read_text(encoding="utf-8").splitlines(), start=1):
            match = RAW_RANDOM_RE.search(line)
            if match:
                findings.append(Finding(
                    "ALINT06", rel, number,
                    f"raw {match.group(0)} — draw from a seeded "
                    f"util::Rng (util/rng.h) so the run is replayable "
                    f"from its seed"))
    return findings


def tracked_files(root: Path):
    """`git ls-files` of @p root, or None outside a git work tree."""
    if not (root / ".git").exists():
        return None
    try:
        proc = subprocess.run(
            ["git", "-C", str(root), "ls-files"],
            capture_output=True, text=True, timeout=60, check=True)
    except (OSError, subprocess.TimeoutExpired,
            subprocess.CalledProcessError):
        return None
    return proc.stdout.splitlines()


def named_data_paths(root: Path):
    """ALINT12 — every (file, line, tests/data path) the build names.
    Bare file-name literals in tests/*.cpp count only when they name a
    file present under tests/data: a literal alone cannot say it is a
    data path, and a missing file already fails its test locally."""
    data_dir = root / "tests" / "data"
    on_disk = {p.name for p in data_dir.iterdir()} \
        if data_dir.is_dir() else set()
    sources = [(root / "tests" / "CMakeLists.txt", CMAKE_DATA_RE),
               (root / ".github" / "workflows" / "ci.yml", REPO_DATA_RE)]
    sources += [(path, REPO_DATA_RE)
                for path in sorted((root / "tests").glob("*.cpp"))]
    for path, pattern in sources:
        if not path.is_file():
            continue
        rel = path.relative_to(root).as_posix()
        for number, line in enumerate(
                path.read_text(encoding="utf-8").splitlines(), start=1):
            for match in pattern.finditer(line):
                yield rel, number, "tests/data/" + match.group(1)
            if path.suffix == ".cpp":
                for literal in STRING_RE.findall(line):
                    name = literal.lstrip("/")
                    if name in on_disk:
                        yield rel, number, "tests/data/" + name


def check_git_index(root: Path):
    """ALINT12 — no build output in the index, and every tests/data
    path the build names is in it. Skipped when the root is not a git
    work tree."""
    tracked = tracked_files(root)
    if tracked is None:
        return []
    findings = []
    for path in tracked:
        if TRACKED_BUILD_RE.match(path):
            findings.append(Finding(
                "ALINT12", path, 0,
                "build output is tracked by git — `git rm -r --cached` "
                "it; build*/ and Testing/ are ignored by .gitignore"))
    tracked_set = set(tracked)
    seen = set()
    for source, line, data in named_data_paths(root):
        if (source, data) in seen:
            continue
        seen.add((source, data))
        if any(ch in data for ch in "*?"):
            present = bool(fnmatch.filter(tracked, data))
        else:
            present = data in tracked_set or any(
                t.startswith(data + "/") for t in tracked)
        if not present:
            findings.append(Finding(
                "ALINT12", source, line,
                f"{data} is named here but not tracked by git — a fresh "
                "clone lacks it; `git add` it (check .gitignore)"))
    return findings


CHECKS = {
    "ALINT01": check_raw_sync,
    "ALINT02": check_float_emission,
    "ALINT03": check_frozen,
    "ALINT04": check_catalog,
    "ALINT05": check_independence,
    "ALINT06": check_raw_random,
    "ALINT12": check_git_index,
}


def run_rules(root: Path, rules):
    findings = []
    for code in rules:
        findings.extend(CHECKS[code](root))
    findings.sort(key=lambda f: (f.code, f.path, f.line))
    return findings


def render_json(root: Path, rules, findings):
    return json.dumps({
        "tool": "accpar_lint",
        "version": TOOL_VERSION,
        "root": str(root),
        "rules": {code: RULES[code] for code in rules},
        "findings": [f.to_json() for f in findings],
        "ok": not findings,
    }, indent=2) + "\n"


def run_in_git_copy(tree: Path):
    """Runs every rule over a copy of @p tree staged in a fresh git
    work tree, so ALINT12 sees an index: everything present is
    tracked. Findings keep paths relative to the copy."""
    with tempfile.TemporaryDirectory(prefix="accpar_lint_") as tmp:
        copy = Path(tmp) / tree.name
        shutil.copytree(tree, copy)
        try:
            for cmd in (["git", "init", "-q"], ["git", "add", "-A"]):
                subprocess.run(cmd, cwd=copy, capture_output=True,
                               timeout=60, check=True)
        except (OSError, subprocess.TimeoutExpired,
                subprocess.CalledProcessError):
            pass  # no git: ALINT12 is skipped and its fixture fails
        return run_rules(copy, sorted(CHECKS))


def self_test(fixtures: Path) -> int:
    """Runs every lint_* fixture mini-tree and checks the verdicts:
    each lint_bad_<code> tree must trip exactly that code (and nothing
    else), lint_clean must pass every rule."""
    failures = []
    ran = 0
    for tree in sorted(fixtures.glob("lint_*")):
        if not tree.is_dir():
            continue
        ran += 1
        findings = run_in_git_copy(tree)
        got = sorted({f.code for f in findings})
        name = tree.name
        if name == "lint_clean":
            if got:
                failures.append(
                    f"{name}: expected clean, got {got}: "
                    + "; ".join(f.render() for f in findings))
        elif name.startswith("lint_bad_"):
            expected = name[len("lint_bad_"):].upper()
            if got != [expected]:
                failures.append(
                    f"{name}: expected exactly [{expected}], got {got}")
        else:
            failures.append(f"{name}: unrecognized fixture naming")
    if ran == 0:
        failures.append(f"no lint_* fixtures under {fixtures}")
    if failures:
        for failure in failures:
            print(f"accpar_lint self-test: FAIL {failure}",
                  file=sys.stderr)
        return 1
    print(f"accpar_lint self-test: {ran} fixtures behave as recorded")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(
        prog="accpar_lint.py",
        description="Repo-invariant lint for the AccPar tree.")
    parser.add_argument("root", nargs="?", default=None,
                        help="repo root (default: the tool's parent)")
    parser.add_argument("--json", action="store_true",
                        help="emit a JSON report on stdout")
    parser.add_argument("--rules", default=None,
                        help="comma-separated subset, e.g. "
                             "ALINT01,ALINT03 (default: all)")
    parser.add_argument("--self-test", metavar="FIXTURES_DIR",
                        nargs="?", const="", default=None,
                        help="run the fixture mini-trees instead of a "
                             "repo (default dir: tests/data)")
    args = parser.parse_args()

    tool_root = Path(__file__).resolve().parent.parent
    if args.self_test is not None:
        fixtures = Path(args.self_test) if args.self_test else \
            tool_root / "tests" / "data"
        return self_test(fixtures)

    root = Path(args.root).resolve() if args.root else tool_root
    if args.rules:
        rules = sorted(set(args.rules.split(",")))
        unknown = [code for code in rules if code not in CHECKS]
        if unknown:
            print(f"accpar_lint: unknown rule(s) {unknown}; have "
                  f"{sorted(CHECKS)}", file=sys.stderr)
            return 2
    else:
        rules = sorted(CHECKS)

    findings = run_rules(root, rules)
    if args.json:
        sys.stdout.write(render_json(root, rules, findings))
    else:
        for finding in findings:
            print(finding.render(), file=sys.stderr)
        if not findings:
            print(f"accpar_lint: {len(rules)} rules clean over {root}")
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
