#include "ttlint/analysis/metrics_contract.hh"

#include <cctype>
#include <map>
#include <set>
#include <sstream>
#include <utility>

namespace ttlint::analysis {

namespace {

struct SrcSite
{
    std::string path;
    int line = 0;
    int col = 0;
};

/** `"tt_foo_total"` -> `tt_foo_total`; empty if not a plain
 * double-quoted literal. */
std::string
literalContent(const std::string &text)
{
    if (text.size() < 2 || text.front() != '"' ||
        text.back() != '"')
        return "";
    return text.substr(1, text.size() - 2);
}

/** A complete series name: tt_ + [a-z0-9_]+, not a trailing-`_`
 * prefix under construction. */
bool
isSeriesName(const std::string &s)
{
    if (s.rfind("tt_", 0) != 0 || s.size() <= 3 ||
        s.back() == '_')
        return false;
    for (char c : s)
        if (!(std::islower(static_cast<unsigned char>(c)) ||
              std::isdigit(static_cast<unsigned char>(c)) ||
              c == '_'))
            return false;
    return true;
}

} // namespace

std::vector<Finding>
metricsContractFindings(const std::vector<FileUnit> &units,
                        const std::string &docPath,
                        const std::string &docText)
{
    std::vector<Finding> out;

    // ------------------------------------------------------------
    // Registered set from src/ literals.
    std::map<std::string, SrcSite> registered;

    for (const FileUnit &u : units) {
        if (u.relPath.rfind("src/", 0) != 0)
            continue;
        for (const Token &t : u.tokens) {
            if (t.kind != TokenKind::String)
                continue;
            std::string name = literalContent(t.text);
            if (isSeriesName(name) &&
                registered.count(name) == 0)
                registered[name] =
                    SrcSite{u.relPath, t.line, t.col};
        }
    }

    // ------------------------------------------------------------
    // Documented set: backticked exact tt_* mentions, outside
    // fenced code blocks. Wildcards (`tt_foo_*`) match "family"
    // rows and are deliberately neither names nor errors.
    std::map<std::string, int> documented;
    struct ConsBlock
    {
        int line = 0;
        bool hasEquals = false;
        std::vector<std::pair<std::string, int>> names;
    };
    std::vector<ConsBlock> consBlocks;

    {
        std::istringstream in(docText);
        std::string lineText;
        int lineNo = 0;
        bool inFence = false;
        ConsBlock *open = nullptr;
        while (std::getline(in, lineText)) {
            ++lineNo;
            std::string trimmed = lineText;
            while (!trimmed.empty() && trimmed.front() == ' ')
                trimmed.erase(trimmed.begin());
            if (trimmed.rfind("```", 0) == 0) {
                inFence = !inFence;
                continue;
            }
            if (inFence)
                continue;
            if (open != nullptr && trimmed.empty())
                open = nullptr;
            if (open == nullptr &&
                lineText.find("Conservation") !=
                    std::string::npos) {
                consBlocks.push_back(ConsBlock{lineNo, false, {}});
                open = &consBlocks.back();
            }
            // Backticked spans on this line.
            std::size_t pos = 0;
            while (true) {
                std::size_t a = lineText.find('`', pos);
                if (a == std::string::npos)
                    break;
                std::size_t b = lineText.find('`', a + 1);
                if (b == std::string::npos)
                    break;
                std::string span =
                    lineText.substr(a + 1, b - a - 1);
                pos = b + 1;
                if (open != nullptr &&
                    span.find('=') != std::string::npos)
                    open->hasEquals = true;
                // Tokenize the span into name-ish runs.
                std::string cur;
                auto flush = [&]() {
                    if (cur.rfind("tt_", 0) == 0 &&
                        cur.find('*') == std::string::npos &&
                        isSeriesName(cur)) {
                        if (documented.count(cur) == 0)
                            documented[cur] = lineNo;
                        if (open != nullptr)
                            open->names.emplace_back(cur, lineNo);
                    }
                    cur.clear();
                };
                for (char c : span) {
                    if (std::isalnum(
                            static_cast<unsigned char>(c)) ||
                        c == '_' || c == '*')
                        cur.push_back(c);
                    else
                        flush();
                }
                flush();
            }
        }
    }

    auto docFinding = [&](int line, std::string msg) {
        out.push_back(Finding{"metrics-contract", docPath, line, 1,
                              std::move(msg)});
    };

    // ------------------------------------------------------------
    // Drift, both directions.
    for (const auto &[name, site] : registered) {
        if (documented.count(name) > 0)
            continue;
        out.push_back(Finding{
            "metrics-contract", site.path, site.line, site.col,
            "series '" + name +
                "' is registered in src/ but missing from " +
                docPath + "'s metric tables"});
    }
    for (const auto &[name, line] : documented) {
        if (registered.count(name) > 0)
            continue;
        docFinding(line, "documented series '" + name +
                             "' is not registered anywhere in "
                             "src/; dashboards reading it see "
                             "only zeros");
    }

    // ------------------------------------------------------------
    // Conservation equations.
    for (const ConsBlock &b : consBlocks) {
        if (!b.hasEquals || b.names.empty()) {
            docFinding(b.line,
                       "conservation note does not state an "
                       "equation over tt_* series (expected "
                       "backticked `a = b + c` terms)");
            continue;
        }
        for (const auto &[name, line] : b.names)
            if (registered.count(name) == 0)
                docFinding(line,
                           "conservation equation references '" +
                               name +
                               "', which is not a registered "
                               "series");
    }
    const char *kAnchors[] = {"tt_frontdoor_submitted_total",
                              "tt_cache_lookups_total",
                              "tt_net_accepted_total"};
    for (const char *anchor : kAnchors) {
        if (registered.count(anchor) == 0)
            continue;
        bool found = false;
        for (const ConsBlock &b : consBlocks)
            for (const auto &[name, line] : b.names)
                if (name == anchor)
                    found = true;
        if (!found)
            docFinding(1, std::string("missing conservation "
                                      "equation anchored on '") +
                              anchor + "' in " + docPath);
    }

    return out;
}

} // namespace ttlint::analysis
