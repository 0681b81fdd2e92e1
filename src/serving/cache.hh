/**
 * @file
 * Sharded, LRU-evicting result cache for the serving path.
 *
 * The paper's own motivation (§1, Fig. 4) is that the large majority
 * of requests — ~74% for ASR, ~65% for IC — produce the *same*
 * answer across service versions; a serving layer that recomputes
 * the tier chain for every repeated input wastes exactly the
 * latency and money tiering is meant to save. Clipper and INFaaS
 * both front their model backends with a prediction cache for this
 * reason, and this cache plays the same role for the tier service:
 * a hit skips tier-chain execution entirely and answers in cache
 * lookup time at zero backend cost.
 *
 * Keying and tolerance safety: an entry is keyed by a request
 * fingerprint — input hash × tolerance bucket × objective
 * (CacheFingerprint) — and stores the tolerance bound the cached
 * result was produced under (the matched routing rule's tolerance,
 * whose ensemble the rule generator bounded to degrade by at most
 * that much). lookup() serves an entry only when that stored bound
 * is ≤ the incoming request's tolerance, so a cached answer can
 * never weaken a guarantee: the result was already proven good
 * enough for a *stricter* or equal tier. Responses that fell back
 * or violated their guarantee are never inserted.
 *
 * Concurrency model: the cache is sharded over a power-of-two
 * number of independent shards, each with its own mutex, LRU list,
 * and hash map; a fingerprint maps to one shard by its mixed hash,
 * so concurrent requests for different inputs proceed without
 * contending on a single lock. The byte budget is split evenly
 * across shards and enforced per shard (the standard sharded-LRU
 * approximation of a global LRU).
 *
 * Expiry and accounting: entries older than `ttlSeconds` (measured
 * on a monotonic clock since cache construction) are evicted lazily
 * when touched. Every lookup is exactly one of hit / miss, every
 * inserted entry leaves the cache as exactly one of eviction /
 * expiration / replacement (or is still resident), and the counters
 * are mirrored into an obs::Registry as tt_cache_* series when one
 * is attached — the conservation the cache stress test checks.
 */

#ifndef TOLTIERS_SERVING_CACHE_HH
#define TOLTIERS_SERVING_CACHE_HH

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <list>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/mutex.hh"
#include "common/stopwatch.hh"
#include "obs/metrics.hh"
#include "serving/request.hh"

namespace toltiers::serving {

/**
 * splitmix64-style 64-bit mixer (Steele, Lea & Flood / Vigna): a
 * bijective finalizer used to turn payload indices and fingerprint
 * fields into well-distributed hash bits.
 */
constexpr std::uint64_t
mix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

/**
 * Identity of one cacheable unit of work: which input, under which
 * tolerance bucket, optimizing what. Two requests share a
 * fingerprint exactly when the tier service would serve them with
 * the same rule ensemble over the same payload — which is what
 * makes a cached result exchangeable between them.
 */
struct CacheFingerprint
{
    /** Hash of the request input (here: the payload index mixed
     * through mix64; a network front door would hash the body). */
    std::uint64_t inputHash = 0;
    /** The tolerance bucket — the matched routing rule's tolerance,
     * quantized to its bit pattern. Requests whose tolerances fall
     * in the same bucket are served by the same rule. */
    std::uint64_t toleranceBits = 0;
    /** The request objective (serving::Objective), widened. */
    std::uint32_t objective = 0;

    bool
    operator==(const CacheFingerprint &o) const
    {
        return inputHash == o.inputHash &&
               toleranceBits == o.toleranceBits &&
               objective == o.objective;
    }

    /** Mixed 64-bit hash over all three fields. */
    std::uint64_t
    hash() const
    {
        return mix64(inputHash ^ mix64(toleranceBits) ^
                     mix64(objective));
    }
};

/** Build the fingerprint of (input, tolerance bucket, objective). */
CacheFingerprint makeFingerprint(std::uint64_t input_hash,
                                 Objective objective,
                                 double tolerance_bucket);

/** The cached portion of a served response. */
struct CachedResult
{
    std::string output;      //!< The result payload.
    double confidence = 0.0; //!< Confidence of the cached result.
    /** Tolerance bound the result was produced under (the matched
     * rule's tolerance). lookup() only serves this entry to
     * requests whose tolerance is >= this bound. */
    double tolerance = 0.0;
};

/** Result-cache construction parameters. */
struct CacheConfig
{
    /** Total byte budget across all shards; entries are evicted LRU
     * per shard once its share (capacityBytes / shards) is full. */
    std::size_t capacityBytes = 64 * 1024 * 1024;
    /** Entry lifetime in seconds on a monotonic clock; 0 disables
     * expiry. */
    double ttlSeconds = 0.0;
    /** Requested shard count; rounded up to a power of two, min 1. */
    std::size_t shards = 16;
    /** Optional registry for the tt_cache_* series. */
    obs::Registry *metrics = nullptr;
};

/** Point-in-time cache accounting (exact once traffic quiesces). */
struct CacheStats
{
    std::uint64_t lookups = 0; //!< hits + misses, exactly.
    std::uint64_t hits = 0;    //!< Lookups served from the cache.
    std::uint64_t misses = 0;  //!< Lookups that fell through.
    /** Misses caused by an entry whose tolerance bound exceeded the
     * request's tolerance (also counted in misses). */
    std::uint64_t toleranceRejects = 0;
    std::uint64_t insertions = 0;  //!< Entries actually inserted.
    std::uint64_t evictions = 0;   //!< Removed by the byte budget.
    std::uint64_t expirations = 0; //!< Removed by TTL.
    std::uint64_t replacements = 0; //!< Overwritten by a re-insert.
    /** Inserts skipped because one entry exceeded a whole shard's
     * byte budget (nothing was cached). */
    std::uint64_t oversized = 0;
    std::size_t entries = 0; //!< Resident entries now.
    std::size_t bytes = 0;   //!< Resident bytes now.
};

/**
 * Sharded LRU result cache; see the file comment for the keying,
 * tolerance-safety, and accounting contracts. All methods are
 * thread-safe; distinct shards never contend.
 */
class ResultCache
{
  public:
    explicit ResultCache(CacheConfig cfg = CacheConfig());

    ResultCache(const ResultCache &) = delete;
    ResultCache &operator=(const ResultCache &) = delete;

    /**
     * Look up `key` for a request at `request_tolerance`. Returns
     * true and fills `out` only when a live entry exists whose
     * stored tolerance bound is <= request_tolerance; a hit
     * promotes the entry to most-recently-used. An expired entry is
     * removed on touch and reported as a miss.
     */
    [[nodiscard]] bool lookup(const CacheFingerprint &key,
                              double request_tolerance,
                              CachedResult &out);

    /**
     * Insert (or replace) the entry for `key`. Evicts
     * least-recently-used entries of the target shard until its
     * byte share fits; an entry larger than a whole shard's share
     * is not cached at all (counted in CacheStats::oversized).
     */
    void insert(const CacheFingerprint &key, CachedResult result);

    /** Drop every entry (counters are retained). */
    void clear();

    /** Point-in-time accounting snapshot. */
    CacheStats stats() const;

    /** Actual shard count (power of two). */
    std::size_t shardCount() const { return shards_.size(); }

    /** Total byte budget the cache enforces. */
    std::size_t capacityBytes() const { return capacityBytes_; }

  private:
    struct Entry
    {
        CacheFingerprint key;
        CachedResult result;
        std::size_t bytes = 0;
        double insertSeconds = 0.0; //!< Clock time at insert.
    };

    struct FingerprintHash
    {
        std::size_t
        operator()(const CacheFingerprint &k) const
        {
            return static_cast<std::size_t>(k.hash());
        }
    };

    struct Shard
    {
        mutable common::Mutex mu;
        /** MRU at front. */
        std::list<Entry> lru GUARDED_BY(mu);
        /** Fingerprint to LRU node. */
        std::unordered_map<CacheFingerprint,
                           std::list<Entry>::iterator,
                           FingerprintHash>
            map GUARDED_BY(mu);
        /** Resident bytes of this shard. */
        std::size_t bytes GUARDED_BY(mu) = 0;
    };

    Shard &shardFor(const CacheFingerprint &key);
    bool expired(const Entry &e, double now) const;
    /** Fold a residency change into the running totals; called
     * under the lock of the shard that changed. */
    void adjustResident(std::ptrdiff_t bytes, std::ptrdiff_t entries);
    /** Copy the running totals into the tt_cache_bytes/entries
     * gauges (no-op without metrics). */
    void publishResident() const;

    std::vector<std::unique_ptr<Shard>> shards_;
    std::size_t capacityBytes_;
    std::size_t shardBudget_;
    double ttlSeconds_;
    common::Stopwatch clock_; //!< Monotonic TTL time base.

    // Striped hot tallies, mirrored into the tt_cache_* series
    // when a registry is attached.
    obs::MirroredCounter lookups_;
    obs::MirroredCounter hits_;
    obs::MirroredCounter misses_;
    obs::MirroredCounter toleranceRejects_;
    obs::MirroredCounter insertions_;
    obs::MirroredCounter evictions_;
    obs::MirroredCounter expirations_;
    obs::MirroredCounter replacements_;
    obs::MirroredCounter oversized_;

    /** Resident bytes / entries over all shards, kept exact by
     * adjustResident() so no reader walks the shards. */
    std::atomic<std::ptrdiff_t> residentBytes_{0};
    std::atomic<std::ptrdiff_t> residentEntries_{0};
    obs::Gauge *bytesGauge_ = nullptr;   //!< Null without metrics.
    obs::Gauge *entriesGauge_ = nullptr; //!< Null without metrics.
};

/** Approximate resident size of one entry (key + payload + bookkeeping). */
std::size_t cacheEntryBytes(const CachedResult &result);

} // namespace toltiers::serving

#endif // TOLTIERS_SERVING_CACHE_HH
