/**
 * @file
 * ttlint fixture suite: every rule's positive (known-bad fixture
 * must be flagged), negative (known-good fixture must stay
 * silent), and suppression cases, driven through the engine
 * in-process against the corpus in tests/lint/fixtures.
 *
 * TT_LINT_FIXTURE_DIR is injected by CMake and points at the
 * fixture directory; scans here use it as the root so guard
 * expectations are path-stable.
 */

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "ttlint/engine.hh"

namespace {

using ttlint::Finding;
using ttlint::ScanResult;

std::string
fixtureDir()
{
    return TT_LINT_FIXTURE_DIR;
}

/** Scan the given fixture files; return rule -> hit count. */
std::map<std::string, int>
ruleHits(const std::vector<std::string> &files)
{
    ScanResult result = ttlint::scanPaths(fixtureDir(), files);
    EXPECT_TRUE(result.errors.empty());
    std::map<std::string, int> hits;
    for (const Finding &f : result.findings)
        ++hits[f.rule];
    return hits;
}

TEST(TtlintFixtures, DeterminismBadFlagsAllThreeRules)
{
    auto hits = ruleHits({"bad_determinism.cc"});
    EXPECT_EQ(hits["no-random-device"], 1);
    EXPECT_EQ(hits["no-crand"], 2); // srand + rand
    EXPECT_EQ(hits["no-wallclock-seed"], 1);
    EXPECT_EQ(hits.size(), 3u);
}

TEST(TtlintFixtures, DeterminismGoodIsSilent)
{
    EXPECT_TRUE(ruleHits({"good_determinism.cc"}).empty());
}

TEST(TtlintFixtures, NakedMutexFlagged)
{
    auto hits = ruleHits({"bad_mutex.cc"});
    EXPECT_EQ(hits["no-naked-mutex"], 2); // lock + unlock
    EXPECT_EQ(hits.size(), 1u);
}

TEST(TtlintFixtures, RaiiLockingIsSilent)
{
    EXPECT_TRUE(ruleHits({"good_mutex.cc"}).empty());
}

TEST(TtlintFixtures, DetachedThreadFlagged)
{
    auto hits = ruleHits({"bad_detach.cc"});
    EXPECT_EQ(hits["no-detached-thread"], 1);
    EXPECT_EQ(hits.size(), 1u);
}

TEST(TtlintFixtures, MutableStaticsFlagged)
{
    auto hits = ruleHits({"bad_static.cc"});
    // namespace-scope int, class-scope vector, and a GUARDED_BY
    // pointing at a mutex that exists nowhere.
    EXPECT_EQ(hits["atomic-or-guarded-static"], 3);
    EXPECT_EQ(hits.size(), 1u);
}

TEST(TtlintFixtures, AcceptedStaticShapesAreSilent)
{
    EXPECT_TRUE(ruleHits({"good_static.cc"}).empty());
}

TEST(TtlintFixtures, NakedNewFlagged)
{
    auto hits = ruleHits({"bad_new.cc"});
    EXPECT_EQ(hits["no-naked-new"], 1);
    EXPECT_EQ(hits.size(), 1u);
}

TEST(TtlintFixtures, OwnedAllocationsAreSilent)
{
    EXPECT_TRUE(ruleHits({"good_new.cc"}).empty());
}

TEST(TtlintFixtures, DiscardedStatusFlaggedAcrossFiles)
{
    // The declaration lives in status_api.hh; the discard in
    // bad_nodiscard.cc — the cross-file index must connect them.
    auto hits = ruleHits({"status_api.hh", "bad_nodiscard.cc"});
    EXPECT_EQ(hits["nodiscard-status"], 1);
    EXPECT_EQ(hits.size(), 1u);
}

TEST(TtlintFixtures, GuardViolationsFlagged)
{
    EXPECT_EQ(ruleHits({"bad_guard_name.hh"})["include-guard"], 1);
    EXPECT_EQ(ruleHits({"bad_guard_pragma.hh"})["include-guard"],
              1);
    EXPECT_EQ(ruleHits({"bad_guard_missing.hh"})["include-guard"],
              1);
}

TEST(TtlintFixtures, ConformingGuardIsSilent)
{
    EXPECT_TRUE(ruleHits({"good_guard.hh"}).empty());
}

TEST(TtlintFixtures, SpanContextViolationsFlagged)
{
    auto hits = ruleHits({"src/core/bad_span_context.cc"});
    // startTrace in a context-taking function, a 3-arg addSpan,
    // and a 2-arg ScopedSpan.
    EXPECT_EQ(hits["span-context-discipline"], 3);
    EXPECT_EQ(hits.size(), 1u);
}

TEST(TtlintFixtures, DisciplinedSpanContextIsSilent)
{
    EXPECT_TRUE(
        ruleHits({"src/core/good_span_context.cc"}).empty());
}

TEST(TtlintFixtures, SpanContextRuleIsPathGated)
{
    // The identical violating source is the rule's business only
    // inside the request-path modules (src/core, src/serving,
    // src/net).
    const char *orphan =
        "struct TraceContext;\n"
        "void f(Trace &t, const TraceContext &ctx)\n"
        "{\n"
        "    t.addSpan(\"stage\", 0.0, 1.0);\n"
        "}\n";
    ScanResult outside =
        ttlint::lintBuffers({{"src/obs/trace_helper.cc", orphan}});
    EXPECT_TRUE(outside.findings.empty());

    ScanResult inside = ttlint::lintBuffers(
        {{"src/serving/batch_helper.cc", orphan}});
    ASSERT_EQ(inside.findings.size(), 1u);
    EXPECT_EQ(inside.findings[0].rule, "span-context-discipline");

    // The wire front end is a request-path module too: the same
    // orphan span is a finding under src/net.
    ScanResult net = ttlint::lintBuffers(
        {{"src/net/conn_helper.cc", orphan}});
    ASSERT_EQ(net.findings.size(), 1u);
    EXPECT_EQ(net.findings[0].rule, "span-context-discipline");
}

TEST(TtlintFixtures, ValidSuppressionsSilenceFindings)
{
    EXPECT_TRUE(ruleHits({"suppressed.cc"}).empty());
}

TEST(TtlintFixtures, UnreasonedSuppressionsAreFindings)
{
    auto hits = ruleHits({"bad_suppression.cc"});
    // One reasonless suppression, one unknown-rule suppression...
    EXPECT_EQ(hits["ttlint-suppression"], 2);
    // ...and neither suppresses its naked new.
    EXPECT_EQ(hits["no-naked-new"], 2);
    EXPECT_EQ(hits.size(), 2u);
}

TEST(TtlintFixtures, WholeCorpusHasKnownBadPerRule)
{
    // Acceptance guard: at least one known-bad fixture fires for
    // every rule in the catalog.
    auto hits = ruleHits({"."});
    for (const ttlint::RuleInfo &rule : ttlint::ruleCatalog())
        EXPECT_GE(hits[rule.name], 1)
            << "no known-bad fixture covers rule " << rule.name;
}

TEST(TtlintFixtures, FindingsAreDeterministicallyOrdered)
{
    ScanResult a = ttlint::scanPaths(fixtureDir(), {"."});
    ScanResult b = ttlint::scanPaths(fixtureDir(), {"."});
    ASSERT_EQ(a.findings.size(), b.findings.size());
    for (std::size_t i = 0; i < a.findings.size(); ++i) {
        EXPECT_EQ(a.findings[i].path, b.findings[i].path);
        EXPECT_EQ(a.findings[i].line, b.findings[i].line);
        EXPECT_EQ(a.findings[i].rule, b.findings[i].rule);
    }
    // Sorted by path, then line.
    for (std::size_t i = 1; i < a.findings.size(); ++i) {
        const Finding &p = a.findings[i - 1];
        const Finding &q = a.findings[i];
        EXPECT_LE(p.path, q.path);
        if (p.path == q.path) {
            EXPECT_LE(p.line, q.line);
        }
    }
}

TEST(TtlintFixtures, LintBuffersMatchesDiskScan)
{
    // The in-memory entry point applies the same rules.
    ScanResult r = ttlint::lintBuffers(
        {{"mem.cc", "static int naked_;\n"},
         {"mem.hh", "#pragma once\nint f();\n"}});
    std::map<std::string, int> hits;
    for (const Finding &f : r.findings)
        ++hits[f.rule];
    EXPECT_EQ(hits["atomic-or-guarded-static"], 1);
    EXPECT_EQ(hits["include-guard"], 1);
}

// ---------------------------------------------------------------
// Whole-program analyses (--analyze).

/** Scan fixtures with the analyses on; return rule -> hit count.
 * `ops_doc` is the fixture stand-in for docs/OPERATIONS.md. */
std::map<std::string, int>
analysisHits(const std::vector<std::string> &files,
             const std::string &ops_doc = "analysis/ops_empty.md",
             bool audit = false)
{
    ttlint::ScanOptions opts;
    opts.analyze = true;
    opts.auditSuppressions = audit;
    opts.opsDocPath = ops_doc;
    ScanResult result =
        ttlint::scanPaths(fixtureDir(), files, opts);
    EXPECT_TRUE(result.errors.empty());
    std::map<std::string, int> hits;
    for (const Finding &f : result.findings)
        ++hits[f.rule];
    return hits;
}

TEST(TtlintAnalysis, CrossTuInversionFlaggedOnce)
{
    auto hits = analysisHits({"analysis/locks_api.hh",
                              "analysis/bad_lock_cycle_a.cc",
                              "analysis/bad_lock_cycle_b.cc"});
    EXPECT_EQ(hits["lock-order"], 1);
    EXPECT_EQ(hits.size(), 1u);
}

TEST(TtlintAnalysis, ThreeMutexRingFlaggedViaScc)
{
    auto hits = analysisHits(
        {"analysis/locks_api.hh", "analysis/bad_lock_cycle3.cc"});
    EXPECT_EQ(hits["lock-order"], 1);
    EXPECT_EQ(hits.size(), 1u);
}

TEST(TtlintAnalysis, SelfReacquisitionFlagged)
{
    auto hits = analysisHits({"analysis/bad_lock_self.cc"});
    EXPECT_EQ(hits["lock-order"], 1);
    EXPECT_EQ(hits.size(), 1u);
}

TEST(TtlintAnalysis, ConsistentOrderIsSilent)
{
    EXPECT_TRUE(analysisHits({"analysis/locks_api.hh",
                              "analysis/good_locks.cc"})
                    .empty());
}

TEST(TtlintAnalysis, BlockingCallsUnderLockFlagged)
{
    // submit + drain under the same held lock.
    auto pool = analysisHits({"analysis/bad_blocking_pool.cc"});
    EXPECT_EQ(pool["blocking-under-lock"], 2);
    EXPECT_EQ(pool.size(), 1u);

    // The raw ::send syscall.
    auto send = analysisHits({"analysis/bad_blocking_send.cc"});
    EXPECT_EQ(send["blocking-under-lock"], 1);
    EXPECT_EQ(send.size(), 1u);
}

TEST(TtlintAnalysis, CvWaitFlagsOnlyTheOtherHeldLock)
{
    // cv.wait(held) is sanctioned for the lock it releases but
    // flagged for the second lock held across the park...
    auto hits = analysisHits({"analysis/bad_blocking_cvwait.cc"});
    EXPECT_EQ(hits["blocking-under-lock"], 1);
    EXPECT_EQ(hits.size(), 1u);
    // ...and silent when the waited lock is the only one held.
    EXPECT_TRUE(
        analysisHits({"analysis/good_blocking.cc"}).empty());
}

TEST(TtlintAnalysis, MetricsContractCatchesEveryDriftKind)
{
    auto hits = analysisHits({"src/metrics/bad_metrics.cc"},
                             "analysis/ops_bad.md");
    // 1 registered-but-undocumented + 2 documented-but-
    // unregistered (ghost + unknown equation term) + 1
    // equation-less conservation note + 1 unregistered equation
    // term + 1 missing canonical anchor.
    EXPECT_EQ(hits["metrics-contract"], 6);
    EXPECT_EQ(hits.size(), 1u);
}

TEST(TtlintAnalysis, SyncedMetricsAreSilent)
{
    EXPECT_TRUE(analysisHits({"src/metrics/good_metrics.cc"},
                             "analysis/ops_good.md")
                    .empty());
}

TEST(TtlintAnalysis, AnalysisFindingsAreSuppressible)
{
    EXPECT_TRUE(
        analysisHits({"analysis/suppressed_analysis.cc"}).empty());
    // The used suppression survives the audit too.
    EXPECT_TRUE(analysisHits({"analysis/suppressed_analysis.cc"},
                             "analysis/ops_empty.md", true)
                    .empty());
}

TEST(TtlintAnalysis, StaleSuppressionFlaggedByAudit)
{
    auto hits = analysisHits({"analysis/stale_suppression.cc"},
                             "analysis/ops_empty.md", true);
    EXPECT_EQ(hits["stale-suppression"], 1);
    EXPECT_EQ(hits.size(), 1u);
}

TEST(TtlintAnalysis, AnalysisSuppressionExemptFromLintOnlyAudit)
{
    // Without --analyze the analyses never ran, so an analysis-rule
    // suppression is not auditable rot.
    ttlint::ScanOptions opts;
    opts.auditSuppressions = true;
    ScanResult r = ttlint::scanPaths(
        fixtureDir(), {"analysis/suppressed_analysis.cc"}, opts);
    EXPECT_TRUE(r.errors.empty());
    EXPECT_TRUE(r.findings.empty());
}

TEST(TtlintAnalysis, EveryAnalysisRuleHasKnownBadFixture)
{
    // Acceptance guard, mirroring WholeCorpusHasKnownBadPerRule.
    auto hits = analysisHits({"."}, "analysis/ops_bad.md", true);
    for (const ttlint::RuleInfo &rule : ttlint::analysisCatalog())
        EXPECT_GE(hits[rule.name], 1)
            << "no known-bad fixture covers analysis "
            << rule.name;
}

TEST(TtlintAnalysis, AnalyzeOutputIsByteIdentical)
{
    ttlint::ScanOptions opts;
    opts.analyze = true;
    opts.auditSuppressions = true;
    opts.opsDocPath = "analysis/ops_bad.md";
    auto render = [&]() {
        ScanResult r =
            ttlint::scanPaths(fixtureDir(), {"."}, opts);
        std::string out;
        for (const Finding &f : r.findings)
            out += f.path + ":" + std::to_string(f.line) + ":" +
                   std::to_string(f.col) + ": [" + f.rule + "] " +
                   f.message + "\n";
        return out;
    };
    const std::string first = render();
    EXPECT_FALSE(first.empty());
    EXPECT_EQ(first, render());
}

} // namespace
