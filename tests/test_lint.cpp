// Static-analysis tooling tests: ferex_lint fires the expected rule id
// on each seeded violation fixture, honors waivers, passes the clean
// fixture, and — the gate that matters — finds the real tree clean.
// Also covers bench_compare's malformed-input contract (exit 2, path
// named), since both tools share the "diagnose, don't guess" bar, and
// its host-independent work-count gate.
//
// The binaries under test are located via compile definitions wired in
// CMakeLists.txt (FEREX_LINT_BIN / FEREX_BENCH_COMPARE_BIN /
// FEREX_SOURCE_ROOT); when tools are disabled the suite skips.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#if defined(FEREX_LINT_BIN) && defined(FEREX_BENCH_COMPARE_BIN) && \
    defined(FEREX_SOURCE_ROOT)

#include <sys/wait.h>

namespace {

std::string fixture(const std::string& rel) {
  return std::string(FEREX_SOURCE_ROOT) + "/tests/lint_fixtures/" + rel;
}

/// Runs `cmd` with stderr folded into stdout; returns the exit code
/// (-1 when the child died on a signal or popen itself failed).
int run(const std::string& cmd, std::string& output) {
  output.clear();
  // NOLINTNEXTLINE(cert-env33-c,concurrency-mt-unsafe) — test harness
  FILE* pipe = popen((cmd + " 2>&1").c_str(), "r");
  if (pipe == nullptr) return -1;
  char buf[512];
  while (std::fgets(buf, sizeof(buf), pipe) != nullptr) output += buf;
  const int status = pclose(pipe);
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

int lint(const std::string& target, std::string& output) {
  return run(std::string(FEREX_LINT_BIN) + " " + target, output);
}

TEST(FerexLint, CleanFixturePasses) {
  std::string out;
  EXPECT_EQ(lint(fixture("clean.cpp"), out), 0) << out;
  EXPECT_EQ(out, "");
}

TEST(FerexLint, WaivedViolationPasses) {
  std::string out;
  EXPECT_EQ(lint(fixture("src/serve/waived_thread.cpp"), out), 0) << out;
}

TEST(FerexLint, FlagsRawThread) {
  std::string out;
  EXPECT_EQ(lint(fixture("src/serve/raw_thread.cpp"), out), 1) << out;
  EXPECT_NE(out.find("raw-thread"), std::string::npos) << out;
}

TEST(FerexLint, FlagsRawRandom) {
  std::string out;
  EXPECT_EQ(lint(fixture("src/serve/raw_random.cpp"), out), 1) << out;
  EXPECT_NE(out.find("raw-random"), std::string::npos) << out;
}

TEST(FerexLint, FlagsUnguardedMutator) {
  std::string out;
  EXPECT_EQ(lint(fixture("src/serve/unguarded_mutator.cpp"), out), 1) << out;
  EXPECT_NE(out.find("guarded-mutator"), std::string::npos) << out;
}

TEST(FerexLint, FlagsOrdinalBeforeValidate) {
  std::string out;
  EXPECT_EQ(lint(fixture("src/serve/ordinal_first.cpp"), out), 1) << out;
  EXPECT_NE(out.find("ordinal-before-validate"), std::string::npos) << out;
}

TEST(FerexLint, FlagsRawFileIo) {
  std::string out;
  EXPECT_EQ(lint(fixture("src/serve/raw_file_io.cpp"), out), 1) << out;
  EXPECT_NE(out.find("raw-file-io"), std::string::npos) << out;
}

TEST(FerexLint, FlagsRawFileIoInBench) {
  std::string out;
  EXPECT_EQ(lint(fixture("bench/raw_file_io.cpp"), out), 1) << out;
  EXPECT_NE(out.find("raw-file-io"), std::string::npos) << out;
}

TEST(FerexLint, FlagsRejectionBase) {
  std::string out;
  EXPECT_EQ(lint(fixture("src/serve/bad_reject.cpp"), out), 1) << out;
  EXPECT_NE(out.find("rejection-base"), std::string::npos) << out;
  // Exactly one finding: the throw and the constructor-init in the
  // fixture are legitimate uses and must not trip the rule.
  EXPECT_EQ(out.find("rejection-base"), out.rfind("rejection-base")) << out;
}

TEST(FerexLint, FlagsUnguardedPragma) {
  std::string out;
  EXPECT_EQ(lint(fixture("unguarded_pragma.cpp"), out), 1) << out;
  EXPECT_NE(out.find("pragma-expiry"), std::string::npos) << out;
}

TEST(FerexLint, MissingPathExitsTwo) {
  std::string out;
  EXPECT_EQ(lint(fixture("does_not_exist.cpp"), out), 2) << out;
}

// ---- graph rules: each seeded tree fails with exactly its rule id ----
// Graph fixtures are whole directory trees (phase 2 only runs on a
// directory scan): lint(<tree>) must exit 1 and name both the rule and
// the offending file.

/// Asserts `lint(graph/<tree>)` exits 1 and the output names `rule` at
/// a path containing `path_part`.
void expect_graph_violation(const std::string& tree, const std::string& rule,
                            const std::string& path_part) {
  std::string out;
  EXPECT_EQ(lint(fixture("graph/" + tree), out), 1) << out;
  EXPECT_NE(out.find(rule), std::string::npos) << out;
  EXPECT_NE(out.find(path_part), std::string::npos) << out;
}

TEST(FerexLintGraph, FlagsLayeringCycle) {
  // encode and device share a rank, so neither edge is upward alone —
  // only the cycle pass can reject the pair.
  expect_graph_violation("layering_cycle", "layering-cycle", "src/device");
}

TEST(FerexLintGraph, FlagsLayeringUpward) {
  expect_graph_violation("layering_upward", "layering-upward",
                         "src/util/clock.hpp");
}

TEST(FerexLintGraph, FlagsLockOrderCycle) {
  std::string out;
  EXPECT_EQ(lint(fixture("graph/lock_cycle"), out), 1) << out;
  EXPECT_NE(out.find("lock-order-cycle"), std::string::npos) << out;
  // The reversed nesting in ba() is also undeclared — both findings
  // anchor in the fixture header.
  EXPECT_NE(out.find("lock-order-undeclared"), std::string::npos) << out;
  EXPECT_NE(out.find("two_locks.hpp"), std::string::npos) << out;
}

TEST(FerexLintGraph, FlagsRejectReasonUnmapped) {
  std::string out;
  EXPECT_EQ(lint(fixture("graph/reject_unmapped"), out), 1) << out;
  // Both halves of the bijection: an enumerator with no to_string case
  // and a subclass naming a nonexistent enumerator.
  EXPECT_NE(out.find("kStarved"), std::string::npos) << out;
  EXPECT_NE(out.find("kVanished"), std::string::npos) << out;
  EXPECT_NE(out.find("reject-reason-unmapped"), std::string::npos) << out;
}

TEST(FerexLintGraph, FlagsOrphanFailpoint) {
  // The fixture also names the site in a tests/test_sharded.cpp, which
  // is not a crash sweep and must not cover it.
  expect_graph_violation("orphan_failpoint", "orphan-failpoint",
                         "fixture.orphan.site");
}

TEST(FerexLintGraph, FlagsStaleBenchLabel) {
  std::string out;
  EXPECT_EQ(lint(fixture("graph/stale_bench_label"), out), 1) << out;
  EXPECT_NE(out.find("stale-bench-label"), std::string::npos) << out;
  EXPECT_NE(out.find("ghost_label"), std::string::npos) << out;
  // live_label is emittable as "live_" + "label" — concatenation
  // counts as live, so it must not be flagged.
  EXPECT_EQ(out.find("\"live_label\""), std::string::npos) << out;
}

TEST(FerexLintGraph, FlagsStaleCiLabel) {
  expect_graph_violation("stale_ci_label", "stale-ci-label", "ci.yml");
}

TEST(FerexLintGraph, FlagsBudgetOverflow) {
  expect_graph_violation("budget_overflow", "budget-overflow", "noisy.cpp");
}

// Regression for the build-dir skip bug: only a *root-level* build*/
// directory is generated output; a nested src/builder/ is source and
// must be linted.
TEST(FerexLintGraph, BuildDirSkipIsRootRelative) {
  std::string out;
  EXPECT_EQ(lint(fixture("graph/buildscope"), out), 1) << out;
  EXPECT_NE(out.find("src/builder/evil.cpp"), std::string::npos) << out;
  EXPECT_EQ(out.find("skipped.cpp"), std::string::npos) << out;
}

// ---- CLI surface: --explain, --json, --lock-hierarchy ----------------

TEST(FerexLintCli, ExplainKnownRuleExitsZero) {
  for (const std::string rule :
       {"layering-cycle", "lock-order-undeclared", "stale-bench-label"}) {
    std::string out;
    EXPECT_EQ(run(std::string(FEREX_LINT_BIN) + " --explain " + rule, out), 0)
        << rule << ": " << out;
    EXPECT_NE(out.find(rule), std::string::npos) << out;
  }
}

TEST(FerexLintCli, ExplainUnknownRuleExitsTwoAndListsRules) {
  std::string out;
  EXPECT_EQ(run(std::string(FEREX_LINT_BIN) + " --explain no-such-rule", out),
            2)
      << out;
  // The error must teach: the known-rule list is the recovery path.
  EXPECT_NE(out.find("layering-upward"), std::string::npos) << out;
}

TEST(FerexLintCli, JsonReportOnViolatingTree) {
  const std::string report = ::testing::TempDir() + "ferex_lint_report.json";
  std::string out;
  EXPECT_EQ(run(std::string(FEREX_LINT_BIN) + " " +
                    fixture("graph/layering_upward") + " --json " + report,
                out),
            1)
      << out;
  std::string json;
  ASSERT_EQ(run("cat " + report, json), 0);
  EXPECT_NE(json.find("\"schema_version\": 2"), std::string::npos) << json;
  EXPECT_NE(json.find("\"rule\": \"layering-upward\""), std::string::npos)
      << json;
  EXPECT_NE(json.find("\"module_edges\""), std::string::npos) << json;
  std::remove(report.c_str());
}

TEST(FerexLintCli, LockHierarchyPrintsRealTreeEdges) {
  std::string out;
  EXPECT_EQ(run(std::string(FEREX_LINT_BIN) + " " +
                    std::string(FEREX_SOURCE_ROOT) + " --lock-hierarchy",
                out),
            0)
      << out;
  // The serving pipeline's declared order is the hierarchy's spine.
  EXPECT_NE(out.find("submit_mutex_"), std::string::npos) << out;
  EXPECT_NE(out.find("->"), std::string::npos) << out;
  EXPECT_NE(out.find("declared"), std::string::npos) << out;
}

// README quotes the hierarchy "exactly as --lock-hierarchy prints it";
// a lock added, removed or reordered must update that block too.
TEST(FerexLintCli, ReadmeLockHierarchyMatchesTool) {
  std::ifstream readme_file(std::string(FEREX_SOURCE_ROOT) + "/README.md");
  ASSERT_TRUE(readme_file) << "README.md unreadable";
  std::stringstream buffer;
  buffer << readme_file.rdbuf();
  const std::string readme = buffer.str();
  const std::size_t section = readme.find("The inferred lock hierarchy");
  ASSERT_NE(section, std::string::npos);
  const std::string fence = "```\n";
  const std::size_t open = readme.find(fence, section);
  ASSERT_NE(open, std::string::npos);
  const std::size_t body = open + fence.size();
  const std::size_t close = readme.find(fence, body);
  ASSERT_NE(close, std::string::npos);

  std::string out;
  ASSERT_EQ(run(std::string(FEREX_LINT_BIN) + " " +
                    std::string(FEREX_SOURCE_ROOT) + " --lock-hierarchy",
                out),
            0)
      << out;
  EXPECT_EQ(readme.substr(body, close - body), out);
}

// The invariant the whole PR rides on: the shipped tree is lint-clean,
// so any future violation is a red CI, not a slow drift.
TEST(FerexLint, RealTreeIsClean) {
  std::string out;
  EXPECT_EQ(lint(std::string(FEREX_SOURCE_ROOT), out), 0) << out;
}

TEST(BenchCompare, MalformedJsonExitsTwoNamingPath) {
  const std::string bad = fixture("bench_malformed.json");
  std::string out;
  const int code =
      run(std::string(FEREX_BENCH_COMPARE_BIN) + " " + bad + " " + bad, out);
  EXPECT_EQ(code, 2) << out;
  EXPECT_NE(out.find(bad), std::string::npos) << out;
  EXPECT_NE(out.find("malformed number"), std::string::npos) << out;
}

TEST(BenchCompare, UnreadableFileExitsTwoNamingPath) {
  const std::string missing = fixture("no_such_snapshot.json");
  std::string out;
  const int code = run(
      std::string(FEREX_BENCH_COMPARE_BIN) + " " + missing + " " + missing,
      out);
  EXPECT_EQ(code, 2) << out;
  EXPECT_NE(out.find(missing), std::string::npos) << out;
}

// The work-count gate is machine-independent, so a differing
// hardware_concurrency under --require-same-concurrency silences the
// wall-clock gates (the 10x q/s drop below) but not the count.
TEST(BenchCompare, WorkCountGateIgnoresHostShape) {
  const std::string cmd = std::string(FEREX_BENCH_COMPARE_BIN) + " " +
                          fixture("bench_counts_base.json") + " ";
  std::string out;
  EXPECT_EQ(run(cmd + fixture("bench_counts_within.json") +
                    " --require-same-concurrency",
                out),
            0)
      << out;
  EXPECT_EQ(run(cmd + fixture("bench_counts_regressed.json") +
                    " --require-same-concurrency",
                out),
            1)
      << out;
  EXPECT_NE(out.find("(passes/solve)"), std::string::npos) << out;
  EXPECT_EQ(out.find("(q/s)"), std::string::npos) << out;
}

}  // namespace

#else  // tools disabled: nothing to exercise

TEST(FerexLint, SkippedWithoutTools) {
  GTEST_SKIP() << "FEREX_BUILD_TOOLS=OFF: lint binaries not built";
}

#endif
