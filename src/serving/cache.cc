#include "serving/cache.hh"

#include <bit>
#include <cstring>

#include "common/logging.hh"

namespace toltiers::serving {

namespace {

constexpr double kTolEps = 1e-12;

} // namespace

CacheFingerprint
makeFingerprint(std::uint64_t input_hash, Objective objective,
                double tolerance_bucket)
{
    CacheFingerprint fp;
    fp.inputHash = mix64(input_hash);
    fp.objective = static_cast<std::uint32_t>(objective);
    std::uint64_t bits = 0;
    static_assert(sizeof(bits) == sizeof(tolerance_bucket));
    std::memcpy(&bits, &tolerance_bucket, sizeof(bits));
    fp.toleranceBits = bits;
    return fp;
}

std::size_t
cacheEntryBytes(const CachedResult &result)
{
    // Key + doubles + list/map node overhead, then the payload. The
    // exact allocator numbers do not matter; what matters is that
    // the budget scales with what is actually stored.
    constexpr std::size_t kOverhead =
        sizeof(CacheFingerprint) + sizeof(CachedResult) + 64;
    return kOverhead + result.output.size();
}

ResultCache::ResultCache(CacheConfig cfg)
    : capacityBytes_(cfg.capacityBytes), ttlSeconds_(cfg.ttlSeconds)
{
    TT_ASSERT(capacityBytes_ > 0,
              "result cache needs a positive byte budget");
    std::size_t shards = std::bit_ceil(
        cfg.shards == 0 ? std::size_t{1} : cfg.shards);
    shards_.reserve(shards);
    for (std::size_t i = 0; i < shards; ++i)
        shards_.push_back(std::make_unique<Shard>());
    shardBudget_ = std::max<std::size_t>(1, capacityBytes_ / shards);

    if (cfg.metrics != nullptr) {
        // Pre-register so an idle cache exports zeroed series; the
        // serving path then only updates these handles.
        obs::Registry &reg = *cfg.metrics;
        auto mirror = [&](obs::MirroredCounter &c, const char *name,
                          const char *help) {
            c.exported = &reg.counter(name, {}, help);
        };
        mirror(lookups_, "tt_cache_lookups_total",
               "Result-cache lookups (hits + misses)");
        mirror(hits_, "tt_cache_hits_total", "Result-cache hits served");
        mirror(misses_, "tt_cache_misses_total", "Result-cache misses");
        mirror(toleranceRejects_, "tt_cache_tolerance_rejects_total",
               "Misses caused by a stored tolerance bound "
               "above the request's tolerance");
        mirror(insertions_, "tt_cache_insertions_total",
               "Entries inserted into the result cache");
        mirror(evictions_, "tt_cache_evictions_total",
               "Entries evicted by the byte budget");
        mirror(expirations_, "tt_cache_expired_total",
               "Entries removed by TTL expiry");
        mirror(replacements_, "tt_cache_replacements_total",
               "Entries overwritten by a re-insert");
        mirror(oversized_, "tt_cache_oversized_total",
               "Inserts skipped because one entry exceeded "
               "a whole shard's byte budget");
        bytesGauge_ =
            &reg.gauge("tt_cache_bytes", {}, "Resident result-cache bytes");
        entriesGauge_ = &reg.gauge("tt_cache_entries", {},
                                   "Resident result-cache entries");
    }
}

ResultCache::Shard &
ResultCache::shardFor(const CacheFingerprint &key)
{
    // shards_.size() is a power of two, so the mask picks uniform
    // high-quality bits from the mixed hash.
    return *shards_[key.hash() & (shards_.size() - 1)];
}

bool
ResultCache::expired(const Entry &e, double now) const
{
    return ttlSeconds_ > 0.0 &&
           now - e.insertSeconds > ttlSeconds_;
}

bool
ResultCache::lookup(const CacheFingerprint &key,
                    double request_tolerance, CachedResult &out)
{
    lookups_.inc();

    Shard &shard = shardFor(key);
    double now = clock_.seconds();
    bool hit = false;
    bool tolerance_reject = false;
    bool expired_entry = false;
    {
        common::MutexLock lock(shard.mu);
        auto it = shard.map.find(key);
        if (it != shard.map.end()) {
            auto node = it->second;
            if (expired(*node, now)) {
                shard.bytes -= node->bytes;
                adjustResident(-static_cast<std::ptrdiff_t>(node->bytes),
                               -1);
                shard.map.erase(it);
                shard.lru.erase(node);
                expired_entry = true;
            } else if (node->result.tolerance >
                       request_tolerance + kTolEps) {
                // Entry exists but was produced under a *looser*
                // bound than this request demands — serving it
                // could weaken the guarantee. Leave it for the
                // looser tiers it is valid for.
                tolerance_reject = true;
            } else {
                out = node->result;
                shard.lru.splice(shard.lru.begin(), shard.lru,
                                 node); // Promote to MRU.
                hit = true;
            }
        }
    }

    if (hit) {
        hits_.inc();
        return true;
    }
    misses_.inc();
    if (tolerance_reject)
        toleranceRejects_.inc();
    if (expired_entry) {
        expirations_.inc();
        publishResident();
    }
    return false;
}

void
ResultCache::insert(const CacheFingerprint &key, CachedResult result)
{
    std::size_t bytes = cacheEntryBytes(result);
    if (bytes > shardBudget_) {
        oversized_.inc();
        return;
    }

    Shard &shard = shardFor(key);
    double now = clock_.seconds();
    std::uint64_t evicted = 0;
    std::uint64_t expired_count = 0;
    bool replaced = false;
    {
        common::MutexLock lock(shard.mu);
        // Net change of this shard's residency, folded into the
        // cache-wide running totals before the lock is released.
        std::ptrdiff_t bytes_delta = static_cast<std::ptrdiff_t>(bytes);
        std::ptrdiff_t entries_delta = 1;
        auto it = shard.map.find(key);
        if (it != shard.map.end()) {
            auto node = it->second;
            shard.bytes -= node->bytes;
            bytes_delta -= static_cast<std::ptrdiff_t>(node->bytes);
            --entries_delta;
            shard.lru.erase(node);
            shard.map.erase(it);
            replaced = true;
        }
        // Make room: drop expired entries opportunistically, then
        // least-recently-used ones until the new entry fits.
        while (!shard.lru.empty() &&
               shard.bytes + bytes > shardBudget_) {
            auto victim = std::prev(shard.lru.end());
            shard.bytes -= victim->bytes;
            bytes_delta -= static_cast<std::ptrdiff_t>(victim->bytes);
            --entries_delta;
            shard.map.erase(victim->key);
            if (expired(*victim, now))
                ++expired_count;
            else
                ++evicted;
            shard.lru.erase(victim);
        }
        Entry e;
        e.key = key;
        e.result = std::move(result);
        e.bytes = bytes;
        e.insertSeconds = now;
        shard.lru.push_front(std::move(e));
        shard.map.emplace(key, shard.lru.begin());
        shard.bytes += bytes;
        adjustResident(bytes_delta, entries_delta);
    }

    insertions_.inc();
    if (replaced)
        replacements_.inc();
    if (evicted > 0)
        evictions_.inc(static_cast<double>(evicted));
    if (expired_count > 0)
        expirations_.inc(static_cast<double>(expired_count));
    publishResident();
}

void
ResultCache::clear()
{
    for (auto &shard : shards_) {
        common::MutexLock lock(shard->mu);
        adjustResident(-static_cast<std::ptrdiff_t>(shard->bytes),
                       -static_cast<std::ptrdiff_t>(shard->map.size()));
        shard->lru.clear();
        shard->map.clear();
        shard->bytes = 0;
    }
    publishResident();
}

void
ResultCache::adjustResident(std::ptrdiff_t bytes, std::ptrdiff_t entries)
{
    residentBytes_.fetch_add(bytes, std::memory_order_relaxed);
    residentEntries_.fetch_add(entries, std::memory_order_relaxed);
}

void
ResultCache::publishResident() const
{
    if (bytesGauge_ == nullptr)
        return;
    bytesGauge_->set(static_cast<double>(
        residentBytes_.load(std::memory_order_relaxed)));
    entriesGauge_->set(static_cast<double>(
        residentEntries_.load(std::memory_order_relaxed)));
}

CacheStats
ResultCache::stats() const
{
    auto count = [](const obs::MirroredCounter &c) {
        return static_cast<std::uint64_t>(c.value() + 0.5);
    };
    CacheStats s;
    s.lookups = count(lookups_);
    s.hits = count(hits_);
    s.misses = count(misses_);
    s.toleranceRejects = count(toleranceRejects_);
    s.insertions = count(insertions_);
    s.evictions = count(evictions_);
    s.expirations = count(expirations_);
    s.replacements = count(replacements_);
    s.oversized = count(oversized_);
    s.entries = static_cast<std::size_t>(
        residentEntries_.load(std::memory_order_relaxed));
    s.bytes = static_cast<std::size_t>(
        residentBytes_.load(std::memory_order_relaxed));
    return s;
}

} // namespace toltiers::serving
