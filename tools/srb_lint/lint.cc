#include "srb_lint/lint.hh"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <regex>
#include <sstream>

namespace srbenes
{
namespace lint
{

namespace
{

namespace fs = std::filesystem;

// ------------------------------------------------------------- lexer

bool
isWordChar(char c)
{
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

/**
 * True when the quote at @p i opens a raw string: an R immediately
 * before it, optionally prefixed u8/u/U/L, with no word character
 * before the prefix (so `FOOBAR"..."` is not a raw string).
 */
bool
isRawStringStart(const std::string &t, std::size_t i)
{
    if (i == 0 || t[i - 1] != 'R')
        return false;
    std::size_t p = i - 1; // index of 'R'
    if (p >= 2 && t[p - 2] == 'u' && t[p - 1] == '8')
        p -= 2;
    else if (p >= 1 &&
             (t[p - 1] == 'u' || t[p - 1] == 'U' || t[p - 1] == 'L'))
        p -= 1;
    return p == 0 || !isWordChar(t[p - 1]);
}

} // namespace

FileView
scanText(const std::string &text)
{
    FileView v;
    std::string code, comment;
    enum class St
    {
        Code,
        LineComment,
        BlockComment,
        Str,
        Chr,
        RawStr,
    };
    St st = St::Code;
    std::string raw_delim; // ")delim\"" terminator of a raw string

    auto flush = [&] {
        v.code.push_back(code);
        v.comment.push_back(comment);
        code.clear();
        comment.clear();
    };

    for (std::size_t i = 0; i < text.size(); ++i) {
        const char c = text[i];
        const char n = i + 1 < text.size() ? text[i + 1] : '\0';
        if (c == '\n') {
            flush();
            if (st == St::LineComment)
                st = St::Code;
            continue;
        }
        switch (st) {
          case St::Code:
            if (c == '/' && n == '/') {
                st = St::LineComment;
                ++i;
            } else if (c == '/' && n == '*') {
                st = St::BlockComment;
                ++i;
            } else if (c == '"' && isRawStringStart(text, i)) {
                st = St::RawStr;
                raw_delim = ")";
                for (std::size_t j = i + 1;
                     j < text.size() && text[j] != '('; ++j)
                    raw_delim += text[j];
                raw_delim += '"';
                code += ' ';
            } else if (c == '"') {
                st = St::Str;
                code += ' ';
            } else if (c == '\'' && i > 0 && isWordChar(text[i - 1]) &&
                       isWordChar(n)) {
                // digit separator (1'000), not a char literal
                code += ' ';
            } else if (c == '\'') {
                st = St::Chr;
                code += ' ';
            } else {
                code += c;
            }
            break;
          case St::LineComment:
            comment += c;
            break;
          case St::BlockComment:
            if (c == '*' && n == '/') {
                st = St::Code;
                ++i;
            } else {
                comment += c;
            }
            break;
          case St::Str:
          case St::Chr:
            if (c == '\\' && n != '\0') {
                ++i;
            } else if ((st == St::Str && c == '"') ||
                       (st == St::Chr && c == '\'')) {
                st = St::Code;
            }
            code += ' ';
            break;
          case St::RawStr:
            if (c == ')' &&
                text.compare(i, raw_delim.size(), raw_delim) == 0) {
                i += raw_delim.size() - 1;
                st = St::Code;
            }
            code += ' ';
            break;
        }
    }
    flush();
    return v;
}

namespace
{

// ---------------------------------------------------------- helpers

std::string
trimmed(const std::string &s)
{
    std::size_t b = s.find_first_not_of(" \t");
    if (b == std::string::npos)
        return "";
    std::size_t e = s.find_last_not_of(" \t");
    return s.substr(b, e - b + 1);
}

/** Rule ids named by `srb-lint: allow(...)` in @p comment. */
std::vector<std::string>
parseAllows(const std::string &comment)
{
    std::vector<std::string> ids;
    static const std::regex re(
        R"(srb-lint:\s*allow\(\s*([A-Z0-9,\s]+)\))");
    auto begin = std::sregex_iterator(comment.begin(), comment.end(),
                                      re);
    for (auto it = begin; it != std::sregex_iterator(); ++it) {
        std::stringstream ss((*it)[1].str());
        std::string id;
        while (std::getline(ss, id, ','))
            if (!trimmed(id).empty())
                ids.push_back(trimmed(id));
    }
    return ids;
}

struct Ctx
{
    const std::string &path;
    const std::vector<std::string> &lines; // raw source lines
    const FileView &view;
    std::vector<Finding> *out;

    void
    report(const char *rule, std::size_t idx, std::string message)
    {
        out->push_back(Finding{rule, path,
                               static_cast<unsigned>(idx + 1),
                               std::move(message),
                               trimmed(lines[idx])});
    }

    /** Comment text of lines [idx-span .. idx] joined. */
    std::string
    nearbyComments(std::size_t idx, std::size_t span) const
    {
        std::string all;
        const std::size_t from = idx >= span ? idx - span : 0;
        for (std::size_t i = from; i <= idx; ++i)
            all += view.comment[i] + "\n";
        return all;
    }
};

// ------------------------------------------------------------- rules

/**
 * SRB001: tsan can prove an ordering too weak only on the schedule
 * it happened to see; the justification comment is the reviewable
 * proof. Accepted within the four lines above the argument (or
 * trailing on its line), so multi-line justifications over
 * multi-line call statements work.
 */
void
ruleOrderJustified(Ctx &ctx)
{
    static const std::regex re(
        R"(memory_order(::|_)(relaxed|acquire|release|acq_rel))");
    for (std::size_t i = 0; i < ctx.view.code.size(); ++i) {
        std::smatch m;
        if (!std::regex_search(ctx.view.code[i], m, re))
            continue;
        if (ctx.nearbyComments(i, 4).find("order:") !=
            std::string::npos)
            continue;
        ctx.report("SRB001", i,
                   "std::memory_order_" + m[2].str() +
                       " without an adjacent '// order:' "
                       "justification comment");
    }
}

/** SRB002: volatile is not a concurrency primitive. */
void
ruleNoVolatile(Ctx &ctx)
{
    static const std::regex re(R"(\bvolatile\b)");
    for (std::size_t i = 0; i < ctx.view.code.size(); ++i)
        if (std::regex_search(ctx.view.code[i], re))
            ctx.report("SRB002", i,
                       "volatile is not a concurrency or "
                       "do-not-optimize primitive; use std::atomic "
                       "with a justified order or a compiler "
                       "barrier");
}

/** SRB003: unseeded global PRNGs make runs irreproducible. */
void
ruleNoRand(Ctx &ctx)
{
    static const std::regex re(R"(\b(srand|rand)\s*\()");
    for (std::size_t i = 0; i < ctx.view.code.size(); ++i) {
        std::smatch m;
        if (std::regex_search(ctx.view.code[i], m, re))
            ctx.report("SRB003", i,
                       m[1].str() +
                           "() is global-state and irreproducible; "
                           "use common/prng.hh");
    }
}

/** SRB004: ownership must be typed (make_unique / containers). */
void
ruleNoNakedNewDelete(Ctx &ctx)
{
    static const std::regex re_new(R"(\bnew\b)");
    static const std::regex re_del(R"(\bdelete\b)");
    static const std::regex re_deleted_fn(R"(=\s*delete\b)");
    static const std::regex re_op(R"(operator\s+(new|delete)\b)");
    for (std::size_t i = 0; i < ctx.view.code.size(); ++i) {
        const std::string &ln = ctx.view.code[i];
        if (std::regex_search(ln, re_op))
            continue; // allocator shim operator declarations
        if (std::regex_search(ln, re_new))
            ctx.report("SRB004", i,
                       "naked new; use std::make_unique/"
                       "std::make_shared or a container");
        else if (std::regex_search(ln, re_del) &&
                 !std::regex_search(ln, re_deleted_fn))
            ctx.report("SRB004", i,
                       "naked delete; owning pointers must be "
                       "smart pointers");
    }
}

/**
 * SRB005: a yield loop burns a scheduler quantum per miss on an
 * oversubscribed host; block on a Doorbell (futex) instead.
 */
void
ruleNoSpinYield(Ctx &ctx)
{
    static const std::regex re(
        R"((std::this_thread::yield|\bsched_yield)\s*\()");
    for (std::size_t i = 0; i < ctx.view.code.size(); ++i)
        if (std::regex_search(ctx.view.code[i], re))
            ctx.report("SRB005", i,
                       "spin-yield loop; block on "
                       "Doorbell::waitUntil (core/stream.hh) or a "
                       "futex wait instead");
}

/**
 * SRB006: a raw standard mutex member is invisible to clang's
 * thread-safety analysis; srbenes::Mutex / SharedMutex
 * (common/thread_annotations.hh) carry the capability attributes.
 */
void
ruleAnnotatedMutexMembers(Ctx &ctx)
{
    static const std::regex re(
        R"(std::(shared_|recursive_|timed_)?mutex\s+\w+)");
    for (std::size_t i = 0; i < ctx.view.code.size(); ++i) {
        if (!std::regex_search(ctx.view.code[i], re))
            continue;
        // An adjacent capability annotation (rare: a guarded raw
        // mutex in code that cannot use the wrappers) is accepted.
        std::string near = ctx.view.code[i];
        if (i + 1 < ctx.view.code.size())
            near += ctx.view.code[i + 1];
        if (near.find("SRB_GUARDED_BY") != std::string::npos ||
            near.find("SRB_CAPABILITY") != std::string::npos)
            continue;
        ctx.report("SRB006", i,
                   "raw std mutex without a capability annotation; "
                   "use srbenes::Mutex/SharedMutex "
                   "(common/thread_annotations.hh)");
    }
}

/**
 * SRB007: <bits/...> is libstdc++ internal, and naming
 * std::atomic / std::thread while only including them transitively
 * breaks under include reshuffles.
 */
void
ruleIncludeHygiene(Ctx &ctx)
{
    static const std::regex re_bits(R"(#\s*include\s*<bits/)");
    static const std::regex re_inc(R"(#\s*include\s*<(atomic|thread)>)");
    static const std::regex re_atomic(R"(std::atomic\b)");
    static const std::regex re_thread(
        R"(std::(this_thread\b|jthread\b|thread\b))");

    bool has_atomic = false, has_thread = false;
    for (const std::string &ln : ctx.view.code) {
        std::smatch m;
        if (std::regex_search(ln, m, re_inc)) {
            if (m[1].str() == "atomic")
                has_atomic = true;
            else
                has_thread = true;
        }
    }

    bool flagged_atomic = false, flagged_thread = false;
    for (std::size_t i = 0; i < ctx.view.code.size(); ++i) {
        const std::string &ln = ctx.view.code[i];
        if (std::regex_search(ln, re_bits))
            ctx.report("SRB007", i,
                       "<bits/...> is a libstdc++ internal header");
        if (!has_atomic && !flagged_atomic &&
            std::regex_search(ln, re_atomic)) {
            flagged_atomic = true;
            ctx.report("SRB007", i,
                       "names std::atomic but does not include "
                       "<atomic> directly");
        }
        if (!has_thread && !flagged_thread &&
            std::regex_search(ln, re_thread)) {
            flagged_thread = true;
            ctx.report("SRB007", i,
                       "names std::thread/this_thread but does not "
                       "include <thread> directly");
        }
    }
}

/**
 * SRB008: a file tagged `// srb-lint: bitsliced` promises
 * word-parallel state production — that promise is the whole point
 * of the setup engine. A per-switch scalar walk (a loop bounded by
 * switchesPerStage, or materializing the one-entry-per-switch
 * SwitchStates form) silently forfeits the speedup; flag it so the
 * regression needs a reviewed allow() to land.
 */
void
ruleBitslicedNoScalarWalk(Ctx &ctx)
{
    // The tag must sit on one of the file's first three lines — a
    // deliberate marker, not a doc comment that merely quotes it.
    bool tagged = false;
    for (std::size_t i = 0;
         i < ctx.view.comment.size() && i < 3 && !tagged; ++i)
        tagged = ctx.view.comment[i].find("srb-lint: bitsliced") !=
                 std::string::npos;
    if (!tagged)
        return;
    static const std::regex re(
        R"(\bswitchesPerStage\b|\bSwitchStates\b)");
    for (std::size_t i = 0; i < ctx.view.code.size(); ++i)
        if (std::regex_search(ctx.view.code[i], re))
            ctx.report("SRB008", i,
                       "per-switch scalar state walk in a file "
                       "tagged bitsliced; produce states "
                       "word-parallel (or justify construction-time "
                       "use with an allow)");
}

/**
 * SRB009: a file tagged `// srb-lint: arena` promises to carve its
 * plan bytes from a tiled, cache-budget-sized arena. A
 * std::vector<Word> buffer or a naked new/make_unique Word[]
 * allocation reintroduces exactly the per-plan heap traffic such an
 * arena exists to remove; flag it so any escape hatch needs a
 * reviewed allow() to land. No file in the tree carries the tag
 * today; the rule waits for the next arena-backed plan store.
 */
void
ruleArenaNoHeapPlanBytes(Ctx &ctx)
{
    // Same opt-in discipline as SRB008: the tag must sit on one of
    // the file's first three lines.
    bool tagged = false;
    for (std::size_t i = 0;
         i < ctx.view.comment.size() && i < 3 && !tagged; ++i)
        tagged = ctx.view.comment[i].find("srb-lint: arena") !=
                 std::string::npos;
    if (!tagged)
        return;
    static const std::regex re(
        R"(std::vector<\s*Word\s*>|\bnew\s+Word\s*\[)"
        R"(|make_unique<\s*Word\s*\[\s*\]\s*>)");
    for (std::size_t i = 0; i < ctx.view.code.size(); ++i)
        if (std::regex_search(ctx.view.code[i], re))
            ctx.report("SRB009", i,
                       "heap-allocated plan bytes in a file tagged "
                       "arena; carve the block from the arena (or "
                       "justify the compat form with an allow)");
}

/**
 * SRB010: a file tagged `// srb-lint: modeled` promises that its
 * concurrency goes through the common/sync.hh shim, so the srb_model
 * suite actually exercises the synchronization the production build
 * runs. A raw std::atomic / std::mutex / condition_variable member
 * or a direct SYS_futex call would compile and pass every test while
 * silently escaping the checker; flag it so bypassing the model
 * needs a reviewed allow() to land.
 */
void
ruleModeledSyncShim(Ctx &ctx)
{
    // Same opt-in discipline as SRB008/SRB009: the tag must sit on
    // one of the file's first three lines.
    bool tagged = false;
    for (std::size_t i = 0;
         i < ctx.view.comment.size() && i < 3 && !tagged; ++i)
        tagged = ctx.view.comment[i].find("srb-lint: modeled") !=
                 std::string::npos;
    if (!tagged)
        return;
    static const std::regex re(
        R"(std::atomic\b|std::mutex\b|std::shared_mutex\b)"
        R"(|std::condition_variable\b|std::scoped_lock\b)"
        R"(|std::lock_guard\b|std::unique_lock\b)"
        R"(|syscall\s*\(\s*SYS_futex)");
    for (std::size_t i = 0; i < ctx.view.code.size(); ++i)
        if (std::regex_search(ctx.view.code[i], re))
            ctx.report("SRB010", i,
                       "raw synchronization primitive in a file "
                       "tagged modeled; use the common/sync.hh shim "
                       "(sync::Atomic/Mutex/Cell) so srb_model "
                       "checks it (or justify with an allow)");
}

} // namespace

const std::vector<RuleInfo> &
ruleCatalog()
{
    static const std::vector<RuleInfo> catalog = {
        {"SRB001", "relaxed/acquire/release/acq_rel memory order "
                   "needs an adjacent '// order:' justification"},
        {"SRB002", "no volatile"},
        {"SRB003", "no rand()/srand(); use common/prng.hh"},
        {"SRB004", "no naked new/delete"},
        {"SRB005", "no spin-yield loops; use Doorbell::waitUntil"},
        {"SRB006", "std mutex members must carry capability "
                   "annotations (srbenes::Mutex/SharedMutex)"},
        {"SRB007", "include hygiene: no <bits/>, direct "
                   "<atomic>/<thread> includes"},
        {"SRB008", "no per-switch scalar walks in files tagged "
                   "'srb-lint: bitsliced'"},
        {"SRB009", "no heap-allocated plan bytes in files tagged "
                   "'srb-lint: arena'; use the arena"},
        {"SRB010", "no raw std::atomic/std::mutex/SYS_futex in files "
                   "tagged 'srb-lint: modeled'; use common/sync.hh"},
    };
    return catalog;
}

std::vector<Finding>
lintText(const std::string &path, const std::string &text)
{
    FileView view = scanText(text);

    std::vector<std::string> lines;
    {
        std::stringstream ss(text);
        std::string ln;
        while (std::getline(ss, ln))
            lines.push_back(ln);
    }
    lines.resize(view.code.size());

    std::vector<Finding> found;
    Ctx ctx{path, lines, view, &found};
    ruleOrderJustified(ctx);
    ruleNoVolatile(ctx);
    ruleNoRand(ctx);
    ruleNoNakedNewDelete(ctx);
    ruleNoSpinYield(ctx);
    ruleAnnotatedMutexMembers(ctx);
    ruleIncludeHygiene(ctx);
    ruleBitslicedNoScalarWalk(ctx);
    ruleArenaNoHeapPlanBytes(ctx);
    ruleModeledSyncShim(ctx);

    // Inline suppressions: an allow on the finding's line or within
    // the two lines above it (room for a wrapped reason).
    std::vector<Finding> kept;
    for (Finding &f : found) {
        const std::size_t idx = f.line - 1;
        std::vector<std::string> allows;
        for (std::size_t back = 0; back <= 2 && back <= idx; ++back) {
            std::vector<std::string> a =
                parseAllows(view.comment[idx - back]);
            allows.insert(allows.end(), a.begin(), a.end());
        }
        if (std::find(allows.begin(), allows.end(), f.rule) ==
            allows.end())
            kept.push_back(std::move(f));
    }

    std::sort(kept.begin(), kept.end(),
              [](const Finding &a, const Finding &b) {
                  return std::tie(a.file, a.line, a.rule) <
                         std::tie(b.file, b.line, b.rule);
              });
    return kept;
}

std::vector<Finding>
lintFile(const std::string &root, const std::string &relpath)
{
    std::ifstream in(fs::path(root) / relpath,
                     std::ios::in | std::ios::binary);
    if (!in)
        return {Finding{"SRB000", relpath, 0, "cannot read file", ""}};
    std::stringstream ss;
    ss << in.rdbuf();
    return lintText(relpath, ss.str());
}

std::vector<Finding>
lintTree(const std::string &root,
         const std::vector<std::string> &paths)
{
    std::vector<std::string> files;
    for (const std::string &p : paths) {
        const fs::path abs = fs::path(root) / p;
        if (fs::is_regular_file(abs)) {
            files.push_back(p);
            continue;
        }
        if (!fs::is_directory(abs))
            continue;
        for (const auto &ent :
             fs::recursive_directory_iterator(abs)) {
            if (!ent.is_regular_file())
                continue;
            const std::string ext = ent.path().extension().string();
            if (ext != ".cc" && ext != ".hh" && ext != ".h")
                continue;
            files.push_back(
                fs::relative(ent.path(), root).generic_string());
        }
    }
    std::sort(files.begin(), files.end());
    files.erase(std::unique(files.begin(), files.end()),
                files.end());

    std::vector<Finding> all;
    for (const std::string &f : files) {
        std::vector<Finding> fs_ = lintFile(root, f);
        all.insert(all.end(), std::make_move_iterator(fs_.begin()),
                   std::make_move_iterator(fs_.end()));
    }
    return all;
}

std::string
baselineKey(const Finding &f)
{
    return f.rule + "|" + f.file + "|" + f.code;
}

std::set<std::string>
loadBaseline(const std::string &path)
{
    std::set<std::string> keys;
    std::ifstream in(path);
    std::string ln;
    while (std::getline(in, ln)) {
        const std::string t = trimmed(ln);
        if (t.empty() || t[0] == '#')
            continue;
        keys.insert(t);
    }
    return keys;
}

bool
writeBaseline(const std::string &path,
              const std::vector<Finding> &findings)
{
    std::ofstream out(path, std::ios::trunc);
    if (!out)
        return false;
    out << "# srb-lint suppression baseline.\n"
        << "# One key per line: RULE|path|source-text. Entries are\n"
        << "# matched by content, so they survive line drift; each\n"
        << "# addition needs a review-visible justification in the\n"
        << "# PR that commits it. Regenerate with\n"
        << "#   srb_lint --update-baseline\n";
    std::set<std::string> keys;
    for (const Finding &f : findings)
        keys.insert(baselineKey(f));
    for (const std::string &k : keys)
        out << k << "\n";
    return true;
}

std::vector<Finding>
applyBaseline(const std::vector<Finding> &findings,
              const std::set<std::string> &baseline,
              std::size_t *baselined)
{
    std::vector<Finding> kept;
    std::size_t dropped = 0;
    for (const Finding &f : findings) {
        if (baseline.count(baselineKey(f)))
            ++dropped;
        else
            kept.push_back(f);
    }
    if (baselined)
        *baselined = dropped;
    return kept;
}

} // namespace lint
} // namespace srbenes
