#include "workload.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"

namespace perfbench {

serving::Objective
keyObjective(std::uint32_t key)
{
    return keyCombo(key) < 4 ? serving::Objective::ResponseTime
                             : serving::Objective::Cost;
}

double
keyTolerance(std::uint32_t key)
{
    return kTolerances[keyCombo(key) % 4];
}

namespace {

/** Flood tenant t0 sends only tolerance-0 requests (combos 0, 4);
 * victim t1 uses response-time tiers, t2 cost tiers. */
constexpr std::uint32_t kFloodCombos[] = {0, 4};
constexpr std::uint32_t kVictimCombos[2][3] = {{1, 2, 3}, {5, 6, 7}};

std::vector<std::uint32_t>
keysOver(std::uint32_t lo, std::uint32_t hi,
         const std::vector<std::uint32_t> &combos)
{
    std::vector<std::uint32_t> keys;
    keys.reserve(static_cast<std::size_t>(hi - lo) * combos.size());
    for (std::uint32_t p = lo; p < hi; ++p)
        for (std::uint32_t c : combos)
            keys.push_back(makeKey(p, c));
    return keys;
}

const std::vector<std::uint32_t> kAllCombos = {0, 1, 2, 3, 4, 5, 6, 7};

std::vector<std::uint32_t>
floodKeys()
{
    return keysOver(kHotPayloads,
                    static_cast<std::uint32_t>(kIcPayloadImages),
                    {std::begin(kFloodCombos), std::end(kFloodCombos)});
}

std::vector<std::uint32_t>
victimKeys(int victim)
{
    return keysOver(kHotPayloads, kHotPayloads + kVictimPayloads,
                    {std::begin(kVictimCombos[victim]),
                     std::end(kVictimCombos[victim])});
}

const WorkloadSpec kWorkloads[] = {
    {"asr_tiers", StackKind::Asr, false, 2000.0, 25.0, 32},
    {"ic_hot", StackKind::Ic, false, 4000.0, 10.0, 32},
    {"ic_flood", StackKind::Ic, true, 250.0, 25.0, 16},
};

} // namespace

std::vector<std::uint32_t>
oracleKeys(StackKind kind)
{
    if (kind == StackKind::Asr) {
        return keysOver(0, static_cast<std::uint32_t>(kAsrUtterances),
                        kAllCombos);
    }
    std::vector<std::uint32_t> keys =
        keysOver(0, kHotPayloads, kAllCombos);
    for (auto part : {floodKeys(), victimKeys(0), victimKeys(1)})
        keys.insert(keys.end(), part.begin(), part.end());
    std::sort(keys.begin(), keys.end());
    return keys;
}

KeySource
KeySource::shuffled(std::vector<std::uint32_t> keys, std::uint64_t seed)
{
    TT_ASSERT(!keys.empty(), "empty key domain");
    KeySource src(seed);
    src.keys_ = std::move(keys);
    src.rng_.shuffle(src.keys_);
    return src;
}

KeySource
KeySource::zipf(std::uint32_t payloads, double s, std::uint64_t seed)
{
    KeySource src(seed);
    double total = 0.0;
    for (std::uint32_t r = 0; r < payloads; ++r) {
        total += 1.0 / std::pow(static_cast<double>(r + 1), s);
        src.cdf_.push_back(total);
    }
    for (double &c : src.cdf_)
        c /= total;
    return src;
}

std::uint32_t
KeySource::next()
{
    if (!cdf_.empty()) {
        double u = rng_.nextDouble();
        auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
        auto payload = static_cast<std::uint32_t>(
            std::min<std::size_t>(it - cdf_.begin(), cdf_.size() - 1));
        return makeKey(payload, rng_.nextBounded(kCombos));
    }
    if (cursor_ == keys_.size()) {
        rng_.shuffle(keys_);
        cursor_ = 0;
        wrapped_ = true;
    }
    return keys_[cursor_++];
}

std::vector<double>
poissonSchedule(double rate, double duration, std::uint64_t seed,
                std::uint64_t stream)
{
    TT_ASSERT(rate > 0.0, "a Poisson schedule needs a positive rate");
    common::Pcg32 rng(seed, stream);
    std::vector<double> times;
    double t = 0.0;
    for (;;) {
        t += -std::log1p(-rng.nextDouble()) / rate;
        if (t >= duration)
            return times;
        times.push_back(t);
    }
}

double
percentileSorted(const std::vector<double> &sorted, double p)
{
    TT_ASSERT(!sorted.empty(), "percentile of an empty sample");
    TT_ASSERT(p > 0.0 && p <= 100.0, "percentile outside (0, 100]");
    std::size_t n = sorted.size();
    auto rank = static_cast<std::size_t>(
        std::ceil(p / 100.0 * static_cast<double>(n)));
    rank = std::clamp<std::size_t>(rank, 1, n);
    return sorted[rank - 1];
}

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    return percentileSorted(values, 50.0);
}

const WorkloadSpec *
findWorkload(const std::string &name)
{
    for (const WorkloadSpec &w : kWorkloads)
        if (w.name == name)
            return &w;
    return nullptr;
}

KeySource
keySource(const WorkloadSpec &spec, const std::string &tenant,
          std::uint64_t seed)
{
    if (spec.name == "asr_tiers")
        return KeySource::shuffled(oracleKeys(StackKind::Asr), seed);
    if (spec.name == "ic_hot")
        return KeySource::zipf(kHotPayloads, 1.0, seed);
    if (tenant == "t0")
        return KeySource::shuffled(floodKeys(), seed);
    return KeySource::shuffled(victimKeys(tenant == "t1" ? 0 : 1),
                               seed + (tenant == "t1" ? 1 : 2));
}

} // namespace perfbench
