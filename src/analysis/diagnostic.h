/**
 * @file
 * The diagnostics engine of the static verification subsystem.
 *
 * Every analysis rule (graph linting, plan verification, model/plan
 * deserialization checks) reports findings as Diagnostic values into a
 * DiagnosticSink instead of throwing. A diagnostic carries a stable
 * error code (see DESIGN.md's rule catalog), a severity, a location
 * (layer, hierarchy node, or document path) and an optional fix-it
 * hint. The sink collects, sorts, and renders diagnostics as text or
 * JSON, and decides overall pass/fail (optionally promoting warnings
 * to failures in strict mode).
 */

#ifndef ACCPAR_ANALYSIS_DIAGNOSTIC_H
#define ACCPAR_ANALYSIS_DIAGNOSTIC_H

#include <cstddef>
#include <string>
#include <vector>

#include "util/json.h"

namespace accpar::analysis {

/**
 * Revision of the rule-code catalog (DESIGN.md §9). Bumped whenever a
 * rule code is added, removed, or changes meaning, and embedded in
 * every CLI JSON envelope so archived audit artifacts stay
 * interpretable after the catalog evolves.
 *
 * History: 1 = AG/AP/APIO/AMIO/ASRV families; 2 = + AC2xx certificate
 * checks and ACIO certificate-loader rules; 3 = + AG009 (residual
 * region past the exact-fallback bound), ADOT/AONX importer rules, and
 * AG007 softened to a warning (the SP-tree solver plans non-chain
 * graphs); 4 = + AG010-AG012 (hierarchy-builder defects) and ASRV09
 * (search request without a usable budget) for the outer-search
 * subsystem (DESIGN.md §16); 5 = + ALINT08-ALINT12 rows in the §9
 * catalog for the compiled architecture & determinism analyzer
 * (accpar-analyze, DESIGN.md §18) and the tracked-build-tree lint;
 * 6 = ALINT12 widened to also flag named tests/data files that git
 * does not track; 7 = ALINT07 (raw SIMD intrinsics outside
 * util/simd.h) retired with the SIMD backends, and ALINT02 reads only
 * code, not comments, and also covers floating std::to_chars calls.
 */
inline constexpr int kRuleCatalogRevision = 7;

/** How bad a finding is. */
enum class Severity
{
    Error,   ///< the artifact is invalid; consumers must reject it
    Warning, ///< suspicious but usable; strict mode rejects it
    Note,    ///< informational context attached to other findings
};

/** "error" / "warning" / "note". */
const char *severityName(Severity severity);

/** One finding of an analysis rule. */
struct Diagnostic
{
    /** Stable rule code, e.g. "AP105" (see DESIGN.md rule catalog). */
    std::string code;
    Severity severity = Severity::Error;
    /** Where: a layer, a hierarchy node/level, or a document path. */
    std::string location;
    /** What is wrong. */
    std::string message;
    /** Optional fix-it hint: how to repair the artifact. */
    std::string hint;

    /** Renders as "error[AP105] at <loc>: <msg> (hint: <hint>)". */
    std::string toString() const;
};

/**
 * Collector for analysis findings. Rules append via report()/error()/
 * warning()/note(); consumers sort, render, and test hasErrors() (or
 * failsStrict() to also reject on warnings).
 */
class DiagnosticSink
{
  public:
    /** Appends one finding. */
    void report(Diagnostic diagnostic);

    /// @name Convenience constructors for each severity.
    /// @{
    void error(std::string code, std::string location,
               std::string message, std::string hint = "");
    void warning(std::string code, std::string location,
                 std::string message, std::string hint = "");
    void note(std::string code, std::string location,
              std::string message, std::string hint = "");
    /// @}

    bool empty() const { return _diagnostics.empty(); }
    std::size_t size() const { return _diagnostics.size(); }
    std::size_t errorCount() const;
    std::size_t warningCount() const;

    /** True when at least one Error-severity finding was reported. */
    bool hasErrors() const { return errorCount() > 0; }

    /** True when the artifact must be rejected: errors always, and
     *  warnings too when @p strict. */
    bool failsStrict(bool strict) const;

    /** All findings, in report order (see sort()). */
    const std::vector<Diagnostic> &diagnostics() const
    {
        return _diagnostics;
    }

    /** True when some finding carries @p code. */
    bool hasCode(const std::string &code) const;

    /** Stable-sorts findings by severity (errors first), then code. */
    void sort();

    /**
     * Renders every finding one per line, followed by a summary line
     * ("2 errors, 1 warning"). Empty string when there are none.
     */
    std::string renderText() const;

    /**
     * Machine-readable rendering:
     * {"diagnostics": [{code, severity, location, message, hint}...],
     *  "errors": N, "warnings": N}.
     */
    util::Json renderJson() const;

  private:
    std::vector<Diagnostic> _diagnostics;
};

} // namespace accpar::analysis

#endif // ACCPAR_ANALYSIS_DIAGNOSTIC_H
