#include "ttlint/analysis/lockmodel.hh"

#include <algorithm>
#include <array>

namespace ttlint::analysis {

namespace {

const std::array<const char *, 6> kMutexTypes = {
    "mutex",       "recursive_mutex",       "shared_mutex",
    "timed_mutex", "recursive_timed_mutex", "Mutex"};

const std::array<const char *, 6> kWrapperTypes = {
    "lock_guard", "unique_lock", "scoped_lock",
    "shared_lock", "MutexLock",  "UniqueLock"};

template <std::size_t N>
bool
contains(const std::array<const char *, N> &arr,
         const std::string &s)
{
    return std::find(arr.begin(), arr.end(), s) != arr.end();
}

/** Code-token view (mirrors the rule engine's internal one). */
class View
{
  public:
    explicit View(const std::vector<Token> &tokens)
    {
        for (const Token &t : tokens)
            if (t.isCode())
                code_.push_back(&t);
    }

    std::size_t
    size() const
    {
        return code_.size();
    }
    const Token &
    at(std::size_t i) const
    {
        return *code_[i];
    }
    const Token &
    get(std::size_t i) const
    {
        static const Token kNone{TokenKind::Punct, "", 0, 0};
        return i < code_.size() ? *code_[i] : kNone;
    }
    const Token &
    prev(std::size_t i) const
    {
        return i == 0 ? get(size()) : get(i - 1);
    }

    /** Index of the closer matching an opener at `open`. */
    std::size_t
    matchPair(std::size_t open, const char *o, const char *c) const
    {
        int depth = 0;
        for (std::size_t i = open; i < code_.size(); ++i) {
            if (code_[i]->is(o))
                ++depth;
            else if (code_[i]->is(c)) {
                if (--depth == 0)
                    return i;
            }
        }
        return code_.size();
    }
    std::size_t
    matchParen(std::size_t open) const
    {
        return matchPair(open, "(", ")");
    }

  private:
    std::vector<const Token *> code_;
};

/** One open RAII lock scope inside the function being scanned. */
struct Hold
{
    std::string id;      ///< resolved mutex identity
    Site site;           ///< acquisition site
    int depth = 0;       ///< brace depth the wrapper lives at
    bool active = true;  ///< false between unlock() and lock()
    std::string wrapper; ///< wrapper variable name ("" if unnamed)
};

/**
 * Shared structure walker for both passes. Tracks namespace/class
 * scopes token by token; in index mode it records class-qualified
 * mutex member declarations and skips function bodies, in scan
 * mode it descends into every function body (and lambda) with a
 * fresh hold stack.
 */
class Walker
{
  public:
    Walker(const FileUnit &unit, const View &code)
        : unit_(unit), code_(code)
    {
    }

    void
    index(std::map<std::string, std::set<std::string>> &owners)
    {
        owners_ = &owners;
        run();
    }

    void
    scan(const LockIndex &index,
         const std::set<std::string> &blocking, FileLockScan &out)
    {
        lockIndex_ = &index;
        blocking_ = &blocking;
        out_ = &out;
        run();
    }

  private:
    struct Frame
    {
        enum Kind
        {
            Namespace,
            Class,
            Other
        };
        Kind kind;
        std::string name;
    };

    const FileUnit &unit_;
    const View &code_;
    std::map<std::string, std::set<std::string>> *owners_ = nullptr;
    const LockIndex *lockIndex_ = nullptr;
    const std::set<std::string> *blocking_ = nullptr;
    FileLockScan *out_ = nullptr;

    Site
    siteOf(const Token &t) const
    {
        return Site{unit_.relPath, t.line, t.col};
    }

    // -----------------------------------------------------------
    // Top-level structure walk.

    void
    run()
    {
        std::vector<Frame> stack;
        bool pendingNamespace = false;
        bool pendingClass = false;
        bool nameFrozen = false;
        std::string pendingName;

        std::size_t i = 0;
        while (i < code_.size()) {
            const Token &t = code_.at(i);

            if (pendingNamespace || pendingClass) {
                if (t.is("{")) {
                    stack.push_back(
                        Frame{pendingNamespace ? Frame::Namespace
                                               : Frame::Class,
                              pendingName});
                    pendingNamespace = pendingClass = false;
                    pendingName.clear();
                    nameFrozen = false;
                    ++i;
                    continue;
                }
                if (t.is(";")) {
                    pendingNamespace = pendingClass = false;
                    pendingName.clear();
                    nameFrozen = false;
                    ++i;
                    continue;
                }
                if (nameFrozen) { // inside a base-clause
                    ++i;
                    continue;
                }
                if (t.is(":")) {
                    nameFrozen = true;
                    ++i;
                    continue;
                }
                if (t.is(")") || t.is(">") || t.is(",") ||
                    t.is("*") || t.is("&") || t.is("=")) {
                    // forward decl, template parameter, or
                    // elaborated type in a signature — not a scope
                    pendingNamespace = pendingClass = false;
                    pendingName.clear();
                    ++i;
                    continue;
                }
                if (pendingClass &&
                    t.kind == TokenKind::Identifier) {
                    if (code_.get(i + 1).is("(")) {
                        // annotation macro: CAPABILITY("mutex")
                        i = code_.matchParen(i + 1) + 1;
                        continue;
                    }
                    if (!t.is("final") && !t.is("alignas"))
                        pendingName = t.text;
                }
                ++i;
                continue;
            }

            if (t.isIdent("namespace")) {
                pendingNamespace = true;
                ++i;
                continue;
            }
            if ((t.isIdent("class") || t.isIdent("struct") ||
                 t.isIdent("union")) &&
                !code_.prev(i).isIdent("enum")) {
                pendingClass = true;
                ++i;
                continue;
            }

            if (t.is("{")) {
                bool atDeclScope =
                    stack.empty() ||
                    stack.back().kind != Frame::Other;
                std::vector<std::string> quals;
                if (atDeclScope && detectFunction(i, quals)) {
                    std::string classPath =
                        quals.empty() ? joinClasses(stack)
                                      : join(quals);
                    if (out_ != nullptr)
                        i = scanBody(i, classPath);
                    else
                        i = skipBraces(i);
                    continue;
                }
                stack.push_back(Frame{Frame::Other, ""});
                ++i;
                continue;
            }
            if (t.is("}")) {
                if (!stack.empty())
                    stack.pop_back();
                ++i;
                continue;
            }

            // Mutex member declaration at namespace/class scope.
            if (owners_ != nullptr &&
                t.kind == TokenKind::Identifier &&
                contains(kMutexTypes, t.text) &&
                !code_.prev(i).is(".") &&
                !code_.prev(i).is("->") &&
                (stack.empty() ||
                 stack.back().kind != Frame::Other)) {
                const Token &name = code_.get(i + 1);
                const Token &after = code_.get(i + 2);
                if (name.kind == TokenKind::Identifier &&
                    (after.is(";") || after.is(",") ||
                     after.is("{") || after.is("="))) {
                    (*owners_)[name.text].insert(
                        joinClasses(stack));
                }
            }
            ++i;
        }
    }

    static std::string
    join(const std::vector<std::string> &parts)
    {
        std::string s;
        for (const std::string &p : parts) {
            if (p.empty())
                continue;
            if (!s.empty())
                s += "::";
            s += p;
        }
        return s;
    }

    static std::string
    joinClasses(const std::vector<Frame> &stack)
    {
        std::vector<std::string> parts;
        for (const Frame &f : stack)
            if (f.kind == Frame::Class)
                parts.push_back(f.name);
        return join(parts);
    }

    /**
     * Is the `{` at `open` a function body? If so, fill `quals`
     * with the `A::B` qualifiers of an out-of-line definition
     * (empty for in-class ones).
     */
    bool
    detectFunction(std::size_t open,
                   std::vector<std::string> &quals) const
    {
        std::size_t k = open;
        for (;;) {
            while (k > 0) {
                const Token &p = code_.at(k - 1);
                if (p.isIdent("const") || p.isIdent("noexcept") ||
                    p.isIdent("override") || p.isIdent("final") ||
                    p.isIdent("mutable") || p.isIdent("try"))
                    --k;
                else
                    break;
            }
            if (k == 0 || !code_.at(k - 1).is(")"))
                return false;
            // Find the matching `(` backwards.
            int depth = 0;
            std::size_t m = k - 1;
            for (;; --m) {
                if (code_.at(m).is(")"))
                    ++depth;
                else if (code_.at(m).is("(") && --depth == 0)
                    break;
                if (m == 0)
                    return false;
            }
            if (m == 0)
                return false;
            const Token &name = code_.at(m - 1);
            if (name.isIdent("noexcept")) {
                k = m; // noexcept(expr): retry before the clause
                continue;
            }
            if (name.kind != TokenKind::Identifier)
                return false;
            if (name.is("if") || name.is("for") ||
                name.is("while") || name.is("switch") ||
                name.is("catch") || name.is("return"))
                return false;
            std::size_t p = m - 1;
            while (p >= 2 && code_.at(p - 1).is("::") &&
                   code_.at(p - 2).kind == TokenKind::Identifier) {
                quals.insert(quals.begin(), code_.at(p - 2).text);
                p -= 2;
            }
            return true;
        }
    }

    std::size_t
    skipBraces(std::size_t open) const
    {
        return code_.matchPair(open, "{", "}") + 1;
    }

    // -----------------------------------------------------------
    // Function-body scan (scan mode only).

    bool
    lambdaIntro(std::size_t i) const
    {
        const Token &p = code_.prev(i);
        if (p.is("]") || p.is(")") || p.kind == TokenKind::Number ||
            p.kind == TokenKind::String)
            return false; // subscript
        if (p.kind == TokenKind::Identifier)
            return p.is("return") || p.is("co_return") ||
                   p.is("co_yield");
        return true;
    }

    /** Scan from the `[` of a lambda; its body gets a fresh hold
     * stack (it runs later, not under the current locks). */
    std::size_t
    scanLambda(std::size_t i, const std::string &classPath)
    {
        std::size_t j = code_.matchPair(i, "[", "]") + 1;
        if (code_.get(j).is("("))
            j = code_.matchParen(j) + 1;
        for (std::size_t guard = 0; j < code_.size() && guard < 48;
             ++j, ++guard) {
            if (code_.at(j).is("{"))
                return scanBody(j, classPath);
            if (code_.at(j).is(";") || code_.at(j).is(",") ||
                code_.at(j).is(")"))
                break;
        }
        return i + 1;
    }

    Hold *
    holdByWrapper(std::vector<Hold> &holds,
                  const std::string &name) const
    {
        for (auto it = holds.rbegin(); it != holds.rend(); ++it)
            if (it->wrapper == name)
                return &*it;
        return nullptr;
    }

    std::string
    resolve(const std::string &name,
            const std::map<std::string, std::string> &locals,
            const std::string &classPath) const
    {
        auto lit = locals.find(name);
        if (lit != locals.end())
            return lit->second;
        auto oit = lockIndex_->owners.find(name);
        if (oit != lockIndex_->owners.end()) {
            const std::set<std::string> &owners = oit->second;
            // Innermost enclosing class first: A::B, then A.
            std::string cand = classPath;
            for (;;) {
                if (cand.empty())
                    break;
                for (const std::string &o : owners)
                    if (o == cand ||
                        o.rfind(cand + "::", 0) == 0)
                        return o.empty() ? name : o + "::" + name;
                std::size_t pos = cand.rfind("::");
                if (pos == std::string::npos)
                    break;
                cand = cand.substr(0, pos);
            }
            if (owners.size() == 1) {
                const std::string &o = *owners.begin();
                return o.empty() ? name : o + "::" + name;
            }
        }
        // Unknown or ambiguous: keep it distinct per context so no
        // cross-TU identity is invented.
        return (classPath.empty() ? unit_.relPath : classPath) +
               "::" + name;
    }

    void
    recordEdges(const std::vector<Hold> &holds,
                const std::string &acquired,
                const Site &acquiredSite, const Hold *skip) const
    {
        for (const Hold &h : holds) {
            if (!h.active || &h == skip)
                continue;
            out_->edges.push_back(
                AcqEdge{h.id, h.site, acquired, acquiredSite});
        }
    }

    void
    recordBlocking(const std::vector<Hold> &holds,
                   const std::string &callee, const Site &site,
                   const Hold *exempt) const
    {
        BlockingSite b;
        b.callee = callee;
        b.site = site;
        for (const Hold &h : holds) {
            if (!h.active || &h == exempt)
                continue;
            b.held.push_back(h.id);
            if (b.held.size() == 1)
                b.firstHeldSite = h.site;
        }
        if (!b.held.empty())
            out_->blocking.push_back(std::move(b));
    }

    /** Parse a wrapper construction's argument list and push the
     * new holds, recording acquisition edges against every active
     * one. Returns the index of the closing paren/brace. */
    std::size_t
    acquire(std::size_t argOpen, const std::string &var, int depth,
            std::vector<Hold> &holds,
            const std::map<std::string, std::string> &locals,
            const std::string &classPath)
    {
        const bool paren = code_.at(argOpen).is("(");
        std::size_t argClose =
            paren ? code_.matchParen(argOpen)
                  : code_.matchPair(argOpen, "{", "}");
        bool active = true;
        std::vector<std::pair<std::string, Site>> acquired;

        std::size_t a = argOpen + 1;
        while (a < argClose) {
            // One top-level argument: [a, b).
            std::size_t b = a;
            int d = 0;
            bool hasCall = false;
            const Token *last = nullptr;
            while (b < argClose) {
                const Token &tb = code_.at(b);
                if (tb.is("(") || tb.is("{") || tb.is("<"))
                    ++d;
                else if (tb.is(")") || tb.is("}") || tb.is(">"))
                    --d;
                else if (tb.is(",") && d == 0)
                    break;
                if (tb.is("("))
                    hasCall = true;
                if (d == 0 && tb.kind == TokenKind::Identifier)
                    last = &tb;
                ++b;
            }
            if (last != nullptr) {
                if (last->is("defer_lock")) {
                    active = false;
                } else if (!last->is("adopt_lock") &&
                           !last->is("try_to_lock") && !hasCall) {
                    acquired.emplace_back(
                        resolve(last->text, locals, classPath),
                        siteOf(*last));
                }
            }
            a = b + 1;
        }

        if (active)
            for (const auto &[id, site] : acquired)
                recordEdges(holds, id, site, nullptr);
        for (const auto &[id, site] : acquired)
            holds.push_back(Hold{id, site, depth, active, var});
        return argClose;
    }

    /** Scan one function (or lambda) body starting at its `{`;
     * returns the index just past the matching `}`. */
    std::size_t
    scanBody(std::size_t open, const std::string &classPath)
    {
        std::vector<Hold> holds;
        std::map<std::string, std::string> locals;
        int depth = 1;
        std::size_t i = open + 1;

        while (i < code_.size() && depth > 0) {
            const Token &t = code_.at(i);

            if (t.is("[")) {
                if (code_.get(i + 1).is("[")) { // [[attribute]]
                    i = code_.matchPair(i, "[", "]") + 1;
                    continue;
                }
                if (lambdaIntro(i)) {
                    i = scanLambda(i, classPath);
                    continue;
                }
                ++i;
                continue;
            }
            if (t.is("{")) {
                ++depth;
                ++i;
                continue;
            }
            if (t.is("}")) {
                --depth;
                holds.erase(
                    std::remove_if(holds.begin(), holds.end(),
                                   [&](const Hold &h) {
                                       return h.depth > depth;
                                   }),
                    holds.end());
                ++i;
                continue;
            }
            if (t.kind != TokenKind::Identifier) {
                ++i;
                continue;
            }

            // Function-local mutex declaration.
            if (contains(kMutexTypes, t.text) &&
                !code_.prev(i).is(".") && !code_.prev(i).is("->") &&
                code_.get(i + 1).kind == TokenKind::Identifier &&
                (code_.get(i + 2).is(";") ||
                 code_.get(i + 2).is("=") ||
                 code_.get(i + 2).is(",") ||
                 code_.get(i + 2).is("{"))) {
                const Token &name = code_.get(i + 1);
                locals[name.text] = unit_.relPath + ":" +
                                    std::to_string(name.line) +
                                    " local " + name.text;
                i += 2;
                continue;
            }

            // RAII wrapper declaration.
            if (contains(kWrapperTypes, t.text) &&
                !code_.prev(i).is(".") &&
                !code_.prev(i).is("->")) {
                std::size_t j = i + 1;
                if (code_.get(j).is("<")) {
                    int d = 0;
                    for (; j < code_.size(); ++j) {
                        if (code_.at(j).is("<"))
                            ++d;
                        else if (code_.at(j).is(">") && --d == 0) {
                            ++j;
                            break;
                        }
                    }
                }
                if (code_.get(j).kind == TokenKind::Identifier &&
                    (code_.get(j + 1).is("(") ||
                     code_.get(j + 1).is("{"))) {
                    i = acquire(j + 1, code_.get(j).text, depth,
                                holds, locals, classPath) +
                        1;
                    continue;
                }
                ++i;
                continue;
            }

            const Token &nx = code_.get(i + 1);
            if ((nx.is(".") || nx.is("->")) &&
                code_.get(i + 2).kind == TokenKind::Identifier &&
                code_.get(i + 3).is("(")) {
                const std::string &meth = code_.get(i + 2).text;

                // unique_lock-style unlock()/lock() toggling.
                Hold *h = holdByWrapper(holds, t.text);
                if (h != nullptr &&
                    (meth == "unlock" || meth == "lock")) {
                    if (meth == "unlock") {
                        h->active = false;
                    } else if (!h->active) {
                        // Reacquisition is an ordering event too.
                        recordEdges(holds, h->id,
                                    siteOf(code_.get(i + 2)), h);
                        h->active = true;
                    }
                    i = code_.matchParen(i + 3) + 1;
                    continue;
                }

                // Condition-variable wait on a held wrapper: the
                // sanctioned shape. It still blocks every OTHER
                // lock held across it.
                if (meth == "wait" || meth == "wait_for" ||
                    meth == "wait_until") {
                    const Token &firstArg = code_.get(i + 4);
                    Hold *wh =
                        firstArg.kind == TokenKind::Identifier
                            ? holdByWrapper(holds, firstArg.text)
                            : nullptr;
                    if (wh != nullptr) {
                        recordBlocking(
                            holds, t.text + "." + meth,
                            siteOf(code_.get(i + 2)), wh);
                        i += 4;
                        continue;
                    }
                }

                if (blocking_->count(meth) > 0) {
                    recordBlocking(holds, meth,
                                   siteOf(code_.get(i + 2)),
                                   nullptr);
                    i += 3;
                    continue;
                }
                ++i;
                continue;
            }

            // Free-function (or ::-qualified) blocking call.
            if (blocking_->count(t.text) > 0 &&
                code_.get(i + 1).is("(")) {
                const Token &p = code_.prev(i);
                bool decl = p.kind == TokenKind::Identifier ||
                            p.is(">") || p.is("*") || p.is("&") ||
                            p.is("~") || p.is(".") || p.is("->");
                if (p.is("::"))
                    // `TaskGroup::wait` defines/qualifies; a bare
                    // leading `::send(` is the raw syscall.
                    decl = i >= 2 &&
                           code_.at(i - 2).kind ==
                               TokenKind::Identifier;
                if (!decl)
                    recordBlocking(holds, t.text, siteOf(t),
                                   nullptr);
            }
            ++i;
        }
        return i;
    }
};

} // namespace

const std::set<std::string> &
defaultBlockingSet()
{
    static const std::set<std::string> kSet = {
        "submit",    "submitAsync", "wait",    "wait_for",
        "wait_until", "join",       "drain",   "send",
        "recv",      "accept",      "connect", "sleep_for",
        "sleep_until",
    };
    return kSet;
}

LockIndex
buildLockIndex(const std::vector<FileUnit> &units)
{
    LockIndex index;
    for (const FileUnit &u : units) {
        View code(u.tokens);
        Walker(u, code).index(index.owners);
    }
    return index;
}

FileLockScan
scanFileLocks(const FileUnit &unit, const LockIndex &index,
              const std::set<std::string> &blocking)
{
    FileLockScan out;
    View code(unit.tokens);
    Walker(unit, code).scan(index, blocking, out);
    return out;
}

} // namespace ttlint::analysis
