/**
 * @file
 * Unit tests for the srb-lint structural analyzer: every rule is
 * driven against embedded good/bad fixture snippets, plus the
 * lexer, inline-allow, and baseline machinery. The snippets live in
 * raw strings, which the analyzer blanks before matching — so this
 * file itself stays clean under the `srb_lint_tree` ctest gate.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <set>
#include <string>
#include <vector>

#include "srb_lint/lint.hh"

namespace
{

using namespace srbenes::lint;

/** Rule ids of lintText over @p text as a src/ file. */
std::vector<std::string>
rulesIn(const std::string &text, const std::string &path = "src/x.cc")
{
    std::vector<std::string> ids;
    for (const Finding &f : lintText(path, text))
        ids.push_back(f.rule);
    return ids;
}

bool
hasRule(const std::string &text, const std::string &rule,
        const std::string &path = "src/x.cc")
{
    const std::vector<std::string> ids = rulesIn(text, path);
    return std::find(ids.begin(), ids.end(), rule) != ids.end();
}

// ---------------------------------------------------------- scanner

TEST(ScanText, BlanksLineAndBlockComments)
{
    const FileView v = scanText("int a; // volatile\n/* rand( */int b;\n");
    EXPECT_EQ(v.code.size(), 3u); // trailing newline -> empty line
    EXPECT_EQ(v.code[0].find("volatile"), std::string::npos);
    EXPECT_NE(v.comment[0].find("volatile"), std::string::npos);
    EXPECT_EQ(v.code[1].find("rand"), std::string::npos);
    EXPECT_NE(v.code[1].find("int b;"), std::string::npos);
}

TEST(ScanText, BlanksStringAndCharLiterals)
{
    const FileView v =
        scanText("auto s = \"volatile new delete\"; char c = 'v';\n");
    EXPECT_EQ(v.code[0].find("volatile"), std::string::npos);
    EXPECT_EQ(v.code[0].find("new"), std::string::npos);
    EXPECT_NE(v.code[0].find("auto s ="), std::string::npos);
}

TEST(ScanText, BlanksRawStrings)
{
    const FileView v = scanText(
        "auto r = R\"xx(volatile rand( )xx\"; int after;\n");
    EXPECT_EQ(v.code[0].find("volatile"), std::string::npos);
    EXPECT_NE(v.code[0].find("int after;"), std::string::npos);
}

TEST(ScanText, DigitSeparatorIsNotACharLiteral)
{
    const FileView v = scanText("int n = 1'000'000; volatile int q;\n");
    // If 1'000 opened a char literal the volatile would be blanked.
    EXPECT_NE(v.code[0].find("volatile"), std::string::npos);
}

TEST(ScanText, BlockCommentSpansLines)
{
    const FileView v = scanText("/* line one\nvolatile\n*/ int x;\n");
    EXPECT_EQ(v.code[1].find("volatile"), std::string::npos);
    EXPECT_NE(v.comment[1].find("volatile"), std::string::npos);
    EXPECT_NE(v.code[2].find("int x;"), std::string::npos);
}

// -------------------------------------------- SRB001 order-justify

TEST(Srb001, FlagsUnjustifiedRelaxed)
{
    EXPECT_TRUE(hasRule(R"__(
void f(std::atomic<int> &a)
{
    a.store(1, std::memory_order_relaxed);
}
#include <atomic>
)__",
                        "SRB001"));
}

TEST(Srb001, AcceptsTrailingJustification)
{
    EXPECT_FALSE(hasRule(R"__(
#include <atomic>
void f(std::atomic<int> &a)
{
    a.store(1, std::memory_order_relaxed); // order: plain counter
}
)__",
                         "SRB001"));
}

TEST(Srb001, AcceptsJustificationCommentAbove)
{
    EXPECT_FALSE(hasRule(R"__(
#include <atomic>
void f(std::atomic<int> &a)
{
    // order: relaxed; nothing is published through this flag.
    a.store(1, std::memory_order_relaxed);
}
)__",
                         "SRB001"));
}

TEST(Srb001, CoversEveryListedOrderAndScopedForm)
{
    for (const char *ord :
         {"std::memory_order_relaxed", "std::memory_order_acquire",
          "std::memory_order_release", "std::memory_order_acq_rel",
          "std::memory_order::relaxed"}) {
        const std::string text = std::string(R"__(
#include <atomic>
void f(std::atomic<int> &a) { a.store(1, )__") +
                                 ord + "); }\n";
        EXPECT_TRUE(hasRule(text, "SRB001")) << ord;
    }
}

TEST(Srb001, JustificationInCommentViewOnlyCountsAsComment)
{
    // "order:" inside a string literal is not a justification.
    EXPECT_TRUE(hasRule(R"__(
#include <atomic>
void f(std::atomic<int> &a)
{
    log("order: not a comment");
    a.store(1, std::memory_order_relaxed);
}
)__",
                        "SRB001"));
}

// ------------------------------------------------ SRB002 volatile

TEST(Srb002, FlagsVolatile)
{
    EXPECT_TRUE(hasRule("volatile int sink;\n", "SRB002"));
}

TEST(Srb002, IgnoresVolatileInCommentsStringsAndAsm)
{
    EXPECT_FALSE(hasRule("// volatile is discussed here\n", "SRB002"));
    EXPECT_FALSE(hasRule("auto s = \"volatile\";\n", "SRB002"));
    // __volatile__ (the asm qualifier) is a different token.
    EXPECT_FALSE(
        hasRule("__asm__ __volatile__(\"\" : : : \"memory\");\n",
                "SRB002"));
}

// ---------------------------------------------------- SRB003 rand

TEST(Srb003, FlagsRandAndSrand)
{
    EXPECT_TRUE(hasRule("int x = rand();\n", "SRB003"));
    EXPECT_TRUE(hasRule("srand(42);\n", "SRB003"));
}

TEST(Srb003, IgnoresSubstringsAndOtherCalls)
{
    EXPECT_FALSE(hasRule("strand();\n", "SRB003"));
    EXPECT_FALSE(hasRule("auto r = prng.rand;\n", "SRB003"));
}

// ----------------------------------------- SRB004 naked new/delete

TEST(Srb004, FlagsNakedNewAndDelete)
{
    EXPECT_TRUE(hasRule("int *p = new int[4];\n", "SRB004"));
    EXPECT_TRUE(hasRule("delete p;\n", "SRB004"));
}

TEST(Srb004, IgnoresDeletedFunctionsAndOperatorDecls)
{
    EXPECT_FALSE(hasRule("Router(const Router &) = delete;\n",
                         "SRB004"));
    EXPECT_FALSE(
        hasRule("void *operator new(std::size_t n);\n", "SRB004"));
    EXPECT_FALSE(hasRule("auto p = std::make_unique<int>(3);\n",
                         "SRB004"));
}

// ------------------------------------------------ SRB005 spin-yield

TEST(Srb005, FlagsYieldLoops)
{
    EXPECT_TRUE(hasRule(R"__(
#include <thread>
void f() { while (!done) std::this_thread::yield(); }
)__",
                        "SRB005"));
    EXPECT_TRUE(hasRule("while (busy) sched_yield();\n", "SRB005"));
}

// --------------------------------------- SRB006 annotated mutexes

TEST(Srb006, FlagsRawMutexMember)
{
    EXPECT_TRUE(hasRule("struct S { std::mutex mu_; };\n", "SRB006"));
    EXPECT_TRUE(
        hasRule("mutable std::shared_mutex mu;\n", "SRB006"));
}

TEST(Srb006, AcceptsAnnotatedOrWrappedMutexes)
{
    EXPECT_FALSE(hasRule(
        "std::mutex mu_ SRB_CAPABILITY(\"mutex\");\n", "SRB006"));
    EXPECT_FALSE(hasRule("mutable srbenes::Mutex mu_;\n", "SRB006"));
    EXPECT_FALSE(hasRule("mutable SharedMutex mu;\n", "SRB006"));
    // Template arguments are uses, not members.
    EXPECT_FALSE(hasRule("std::lock_guard<std::mutex> lock(mu);\n",
                         "SRB006"));
}

// ------------------------------------------ SRB007 include hygiene

TEST(Srb007, FlagsBitsInclude)
{
    EXPECT_TRUE(
        hasRule("#include <bits/stdc++.h>\n", "SRB007"));
}

TEST(Srb007, RequiresDirectAtomicInclude)
{
    EXPECT_TRUE(hasRule(R"__(
#include "core/stream.hh"
std::atomic<int> g;
)__",
                        "SRB007"));
    EXPECT_FALSE(hasRule(R"__(
#include <atomic>
std::atomic<int> g;
)__",
                         "SRB007"));
}

TEST(Srb007, RequiresDirectThreadInclude)
{
    EXPECT_TRUE(hasRule("std::thread t;\n", "SRB007"));
    EXPECT_TRUE(hasRule("std::this_thread::get_id();\n", "SRB007"));
    EXPECT_FALSE(hasRule(R"__(
#include <thread>
std::thread t;
)__",
                         "SRB007"));
}

// ----------------------------------------- SRB008 bitsliced files

TEST(Srb008, FlagsScalarWalksInTaggedFiles)
{
    EXPECT_TRUE(hasRule(R"__(// srb-lint: bitsliced
void f(const FastEngine &e)
{
    for (Word i = 0; i < e.switchesPerStage(); ++i) {}
}
)__",
                        "SRB008"));
    EXPECT_TRUE(hasRule(R"__(// srb-lint: bitsliced
SwitchStates states = engine.planStates(plan);
)__",
                        "SRB008"));
}

TEST(Srb008, UntaggedFilesAreExempt)
{
    EXPECT_FALSE(hasRule(R"__(
void f(const FastEngine &e)
{
    for (Word i = 0; i < e.switchesPerStage(); ++i) {}
}
)__",
                         "SRB008"));
}

TEST(Srb008, TagOnlyCountsOnTheOpeningLines)
{
    // A doc comment that merely QUOTES the tag deeper in the file
    // does not opt the file in.
    EXPECT_FALSE(hasRule(R"__(
int a;
int b;
int c;
// files tagged srb-lint: bitsliced promise word-parallel states
SwitchStates states;
)__",
                         "SRB008"));
}

TEST(Srb008, AllowSuppressesConstructionTimeUse)
{
    EXPECT_FALSE(hasRule(R"__(// srb-lint: bitsliced
// srb-lint: allow(SRB008) construction-time schedule derivation
const Word S = eng.switchesPerStage();
)__",
                         "SRB008"));
}

// --------------------------------------------- SRB009 arena files

TEST(Srb009, FlagsHeapPlanBytesInTaggedFiles)
{
    EXPECT_TRUE(hasRule(R"__(// srb-lint: arena
std::vector<Word> plan_bytes(words);
)__",
                        "SRB009"));
    EXPECT_TRUE(hasRule(R"__(// srb-lint: arena
auto backing = std::make_unique<Word[]>(words);
)__",
                        "SRB009"));
    EXPECT_TRUE(hasRule(R"__(// srb-lint: arena
Word *raw = new Word[words];
)__",
                        "SRB009"));
}

TEST(Srb009, UntaggedFilesAndNonPlanVectorsAreExempt)
{
    EXPECT_FALSE(hasRule("std::vector<Word> fine(words);\n",
                         "SRB009"));
    // Pointer tables and other element types are not plan bytes.
    EXPECT_FALSE(hasRule(R"__(// srb-lint: arena
std::vector<Word *> tile_base;
std::vector<std::uint8_t> success;
)__",
                         "SRB009"));
}

TEST(Srb009, TagOnlyCountsOnTheOpeningLines)
{
    EXPECT_FALSE(hasRule(R"__(
int a;
int b;
int c;
// files tagged srb-lint: arena must use the arena
std::vector<Word> words;
)__",
                         "SRB009"));
}

TEST(Srb009, AllowSuppressesTheCompatForm)
{
    EXPECT_FALSE(hasRule(R"__(// srb-lint: arena
// srb-lint: allow(SRB009) the materialized compat form
std::vector<Word> words;
)__",
                         "SRB009"));
}

// ------------------------------------------- SRB010 modeled files

TEST(Srb010, FlagsRawPrimitivesInTaggedFiles)
{
    EXPECT_TRUE(hasRule(R"__(// srb-lint: modeled
std::atomic<std::uint64_t> seq{0};
)__",
                        "SRB010"));
    EXPECT_TRUE(hasRule(R"__(// srb-lint: modeled
std::mutex mu; // srb-lint: allow(SRB006) fixture
)__",
                        "SRB010"));
    EXPECT_TRUE(hasRule(R"__(// srb-lint: modeled
long r = syscall(SYS_futex, addr, FUTEX_WAIT, v, nullptr);
)__",
                        "SRB010"));
    EXPECT_TRUE(hasRule(R"__(// srb-lint: modeled
std::lock_guard<std::mutex> lk(mu);
)__",
                        "SRB010"));
}

TEST(Srb010, ShimTypesAndUntaggedFilesAreExempt)
{
    // The shim is the sanctioned spelling in modeled files.
    EXPECT_FALSE(hasRule(R"__(// srb-lint: modeled
sync::Atomic<std::uint64_t> seq{0};
sync::Mutex mu;
sync::MutexLock lock(mu);
sync::Cell<int> c;
)__",
                         "SRB010"));
    // Untagged files may use raw primitives freely (SRB010 is
    // opt-in; other rules still apply to them).
    EXPECT_FALSE(hasRule("std::atomic<int> x{0};\n", "SRB010"));
    // memory_order tokens are not std::atomic uses.
    EXPECT_FALSE(hasRule(R"__(// srb-lint: modeled
// order: fixture
seq.load(std::memory_order_acquire);
)__",
                         "SRB010"));
}

TEST(Srb010, TagOnlyCountsOnTheOpeningLines)
{
    EXPECT_FALSE(hasRule(R"__(
int a;
int b;
int c;
// files tagged srb-lint: modeled go through common/sync.hh
std::atomic<int> x{0};
)__",
                         "SRB010"));
}

TEST(Srb010, AllowSuppressesAJustifiedEscape)
{
    EXPECT_FALSE(hasRule(R"__(// srb-lint: modeled
// srb-lint: allow(SRB010) scheduler-internal handshake, not a
// modeled code path.
std::mutex handshake; // srb-lint: allow(SRB006) fixture
)__",
                         "SRB010"));
}

// --------------------------------------------- inline suppressions

TEST(Allow, SameLineSuppresses)
{
    EXPECT_FALSE(hasRule(
        "volatile int x; // srb-lint: allow(SRB002) fixture\n",
        "SRB002"));
}

TEST(Allow, CommentUpToTwoLinesAboveSuppresses)
{
    EXPECT_FALSE(hasRule(R"__(
// srb-lint: allow(SRB002) reason wraps onto a
// second comment line before the code.
volatile int x;
)__",
                         "SRB002"));
}

TEST(Allow, ListsAndOtherRulesDoNotLeak)
{
    // allow(SRB003) does not excuse a volatile.
    EXPECT_TRUE(hasRule(
        "volatile int x; // srb-lint: allow(SRB003)\n", "SRB002"));
    // A comma list suppresses each named rule.
    EXPECT_FALSE(hasRule("volatile int x = rand(); // srb-lint: "
                         "allow(SRB002, SRB003)\n",
                         "SRB002"));
}

// ----------------------------------------------- findings plumbing

TEST(Findings, CarryFileLineAndSortedOrder)
{
    const std::vector<Finding> fs = lintText("src/demo.cc", R"__(
volatile int a;
int b = rand();
)__");
    ASSERT_EQ(fs.size(), 2u);
    EXPECT_EQ(fs[0].file, "src/demo.cc");
    EXPECT_EQ(fs[0].rule, "SRB002");
    EXPECT_EQ(fs[0].line, 2u);
    EXPECT_EQ(fs[0].code, "volatile int a;");
    EXPECT_EQ(fs[1].rule, "SRB003");
    EXPECT_EQ(fs[1].line, 3u);
}

TEST(Findings, RuleCatalogMatchesEmittedIds)
{
    const std::vector<RuleInfo> &cat = ruleCatalog();
    ASSERT_EQ(cat.size(), 10u);
    EXPECT_STREQ(cat.front().id, "SRB001");
    EXPECT_STREQ(cat.back().id, "SRB010");
}

// ------------------------------------------------------- baseline

TEST(Baseline, KeySurvivesLineDrift)
{
    const std::vector<Finding> before =
        lintText("src/demo.cc", "volatile int a;\n");
    const std::vector<Finding> after = lintText(
        "src/demo.cc", "// a new comment shifts lines\n\nvolatile int a;\n");
    ASSERT_EQ(before.size(), 1u);
    ASSERT_EQ(after.size(), 1u);
    EXPECT_NE(before[0].line, after[0].line);
    EXPECT_EQ(baselineKey(before[0]), baselineKey(after[0]));
}

TEST(Baseline, ApplyDropsExactlyTheBaselinedFindings)
{
    const std::vector<Finding> fs = lintText("src/demo.cc", R"__(
volatile int a;
int b = rand();
)__");
    ASSERT_EQ(fs.size(), 2u);
    std::set<std::string> baseline{baselineKey(fs[0])};
    std::size_t dropped = 0;
    const std::vector<Finding> kept =
        applyBaseline(fs, baseline, &dropped);
    EXPECT_EQ(dropped, 1u);
    ASSERT_EQ(kept.size(), 1u);
    EXPECT_EQ(kept[0].rule, "SRB003");
}

} // namespace
