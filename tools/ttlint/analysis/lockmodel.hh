/**
 * @file
 * Whole-program lock model for ttlint --analyze.
 *
 * The per-file rules (rules.hh) see one token stream at a time;
 * the analyses built on this model need facts that only exist
 * across translation units: which *class* a mutex member belongs
 * to (nine subsystems declare a member named `mu` or `mu_`, and
 * merging them would invent deadlocks that cannot happen), and
 * which lock scopes are open at every call site in every file.
 *
 * This module provides both halves:
 *
 *  - buildLockIndex() walks every unit's namespace/class structure
 *    and records each mutex declaration under its class-qualified
 *    identity (`TierServer::Connection::mu`, `TenantGovernor::mu_`,
 *    a bare `g_emit_mutex` for namespace scope).
 *
 *  - scanFileLocks() re-walks one unit tracking RAII lock scopes
 *    (`lock_guard` / `unique_lock` / `scoped_lock` / `shared_lock`
 *    and the project's annotated `MutexLock` / `UniqueLock`),
 *    resolving each acquired mutex to its indexed identity, and
 *    emits (a) every acquired-while-holding edge with both sites
 *    and (b) every call to a configurable blocking set made while
 *    a lock is held. `unique_lock.unlock()` deactivates its hold
 *    until `.lock()` reactivates it (and a reactivation while
 *    other locks are held is itself an acquisition edge); a
 *    condition-variable wait whose first argument is a held
 *    wrapper is the sanctioned wait shape and only flags when
 *    *another* lock is still held across it; lambda bodies run
 *    later and are scanned as their own contexts, never against
 *    the enclosing scope's holds.
 *
 * The model is lexical and intraprocedural by design (same
 * contract as the rest of ttlint): a function that locks
 * internally is invisible at its call sites. The clang
 * -Wthread-safety CI job covers the annotated-interprocedural
 * half of the same discipline.
 */

#ifndef TOLTIERS_TOOLS_TTLINT_ANALYSIS_LOCKMODEL_HH
#define TOLTIERS_TOOLS_TTLINT_ANALYSIS_LOCKMODEL_HH

#include <map>
#include <set>
#include <string>
#include <vector>

#include "ttlint/rules.hh"

namespace ttlint::analysis {

/** One source location inside a scanned unit. */
struct Site
{
    std::string path;
    int line = 0;
    int col = 0;
};

/**
 * Project-wide mutex identities: declared mutex name to the set of
 * class paths that declare a member of that name ("" = namespace
 * scope). A name declared by several classes resolves per call
 * site against the enclosing class; see scanFileLocks().
 */
struct LockIndex
{
    std::map<std::string, std::set<std::string>> owners;
};

/** One acquired-while-holding event: `acquired` was locked at
 * `acquiredSite` while `held` (locked at `heldSite`) was open. */
struct AcqEdge
{
    std::string held;
    Site heldSite;
    std::string acquired;
    Site acquiredSite;
};

/** One call into the blocking set made while locks were held. */
struct BlockingSite
{
    std::string callee;           ///< e.g. "submit", "cv.wait"
    Site site;                    ///< The call site.
    std::vector<std::string> held;///< Identities held across it.
    Site firstHeldSite;           ///< Acquisition of the first one.
};

/** Everything the analyses need from one unit. */
struct FileLockScan
{
    std::vector<AcqEdge> edges;
    std::vector<BlockingSite> blocking;
};

/** Calls that may block the calling thread (overridable from the
 * CLI): pool/front-door submission and waits, joins, drains, and
 * the raw socket primitives. Thin non-locking wrappers (sendAll,
 * recvSome) are deliberately absent — flagging them would indict
 * the per-connection write path that holds a write mutex precisely
 * so responses interleave safely. */
const std::set<std::string> &defaultBlockingSet();

/** Build the class-qualified mutex identity index over all units. */
LockIndex buildLockIndex(const std::vector<FileUnit> &units);

/** Scan one unit's lock scopes; see the file comment. */
FileLockScan scanFileLocks(const FileUnit &unit,
                           const LockIndex &index,
                           const std::set<std::string> &blocking);

} // namespace ttlint::analysis

#endif // TOLTIERS_TOOLS_TTLINT_ANALYSIS_LOCKMODEL_HH
