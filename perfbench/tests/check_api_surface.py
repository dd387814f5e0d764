#!/usr/bin/env python3
"""Keeps the benchmark on the library API that planned refactors keep.

The benchmark may call only Planner, PlanRequest/PlanOptions/PlanResult,
models::catalog(), core::PartitionProblem, hw::Hierarchy and
parseArraySpec, analysis::verifyPlan/checkCertificate, the plan and
certificate serializers, core::evaluatePlan, search::SearchReport and
service::PlanService/parseRequest. This check fails when a benchmark
source names an internal that is slated for removal, so a refactor
cannot silently break the benchmark that is meant to measure it.

Run from the repository root (run.py also runs it before every build):

    python3 perfbench/tests/check_api_surface.py
"""

import os
import re
import sys

# (pattern, what it names, path prefixes allowed to name it)
FORBIDDEN = [
    (r"\bCostCache\w*", "the planner's cost memo cache", ()),
    (r"\bcacheStats\b", "Planner::cacheStats", ()),
    (r"\bcacheDelta\b", "PlanResult::cacheDelta", ()),
    (r"SolveContext::memo|(\.|->)memo\b", "SolveContext::memo", ()),
    (r"\bbatchKernel\w*", "the batch-kernel dispatch", ()),
    (r"models/zoo\.h", "the legacy model zoo header", ()),
    (r"\bDpKernel\b", "the flattened DP kernel", ()),
    (r"\bSpSolver\b", "the SP-tree solver", ()),
    # Only the one-time digest generator cross-checks against it.
    (r"legacy_dp", "the frozen legacy solver", ("tools/",)),
    (r"bench_json\.h", "bench/bench_json.h (pulls in the batch kernels)",
     ()),
]

SOURCE_SUFFIXES = (".cpp", ".h", ".py", "CMakeLists.txt")
CHECKER_DIR = "tests/"


def check_text(relpath, text):
    """Returns one message per forbidden name in @p text."""
    found = []
    for pattern, what, allowed in FORBIDDEN:
        if allowed and relpath.startswith(allowed):
            continue
        for number, line in enumerate(text.splitlines(), 1):
            if re.search(pattern, line):
                found.append("%s:%d: names %s" % (relpath, number, what))
    return found


def scan(root):
    """Checks every benchmark source below @p root except this checker."""
    violations = []
    for directory, _, files in os.walk(root):
        for name in sorted(files):
            path = os.path.join(directory, name)
            relpath = os.path.relpath(path, root).replace(os.sep, "/")
            if relpath.startswith(CHECKER_DIR):
                continue
            if not name.endswith(SOURCE_SUFFIXES):
                continue
            with open(path, encoding="utf-8") as source:
                violations += check_text(relpath, source.read())
    return violations


def self_test():
    """Every forbidden name is caught, and the allowance is narrow."""
    samples = {
        "auto s = planner.cacheStats();": 1,
        "result.cacheDelta.hits": 1,
        "core::CostCache cache;": 1,
        "context.memo = nullptr;": 1,
        "ops.batchKernelVariantName()": 1,
        '#include "models/zoo.h"': 1,
        "core::DpKernel kernel(problem);": 1,
        "core::SpSolver solver;": 1,
        '#include "support/legacy_dp.h"': 1,
        '#include "bench/bench_json.h"': 1,
        "Planner().plan(request);": 0,
    }
    for text, expected in samples.items():
        got = len(check_text("src/x.cpp", text))
        assert got == expected, (text, got)
    assert not check_text("tools/gen.cpp", '#include "support/legacy_dp.h"')
    assert check_text("tools/gen.cpp", "core::DpKernel k;")


def main():
    self_test()
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    violations = scan(root)
    for violation in violations:
        print(violation, file=sys.stderr)
    if violations:
        return 1
    print("api surface: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
