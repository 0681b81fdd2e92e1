/**
 * @file
 * `ttbench selftest --cache DIR`: checks of the benchmark's own math,
 * run before every measurement. Exits non-zero if any check fails.
 *
 *  - nearest-rank percentiles are exact on known samples;
 *  - the Poisson schedule is bit-identical for a given seed;
 *  - a no-repeat key stream reports when its domain runs out;
 *  - the oracle comparison catches every flipped byte of a response.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>

#include "common/cli.hh"
#include "oracle.hh"
#include "workload.hh"

namespace perfbench {

namespace {

int failures = 0;

void
check(bool ok, const char *what)
{
    if (!ok) {
        std::fprintf(stderr, "selftest FAILED: %s\n", what);
        ++failures;
    }
}

void
percentiles()
{
    std::vector<double> hundred;
    for (int i = 1; i <= 100; ++i)
        hundred.push_back(i);
    check(percentileSorted(hundred, 50.0) == 50.0, "p50 of 1..100");
    check(percentileSorted(hundred, 99.0) == 99.0, "p99 of 1..100");
    check(percentileSorted(hundred, 100.0) == 100.0, "p100 of 1..100");
    check(percentileSorted(hundred, 0.5) == 1.0, "p0.5 of 1..100");
    std::vector<double> three = {1.0, 3.0, 5.0};
    check(percentileSorted(three, 50.0) == 3.0, "p50 of {1,3,5}");
    check(percentileSorted(three, 34.0) == 3.0, "p34 of {1,3,5}");
    check(percentileSorted(three, 33.0) == 1.0, "p33 of {1,3,5}");
    check(median({4.0, 2.0, 9.0, 7.0}) == 4.0, "median of 4 values");
}

void
schedules()
{
    std::vector<double> a = poissonSchedule(2000.0, 2.0, 42, 7);
    std::vector<double> b = poissonSchedule(2000.0, 2.0, 42, 7);
    check(a.size() == b.size() &&
              std::memcmp(a.data(), b.data(),
                          a.size() * sizeof(double)) == 0,
          "Poisson schedule bit-identical for one seed");
    check(poissonSchedule(2000.0, 2.0, 43, 7) != a,
          "Poisson schedule differs across seeds");
    // ~4000 arrivals: the count sits within 5 sigma of rate x time.
    double n = static_cast<double>(a.size());
    check(std::fabs(n - 4000.0) < 5.0 * std::sqrt(4000.0),
          "Poisson arrival count near rate x duration");
    bool ascending = true;
    for (std::size_t i = 1; i < a.size(); ++i)
        ascending = ascending && a[i] > a[i - 1];
    check(ascending && !a.empty() && a.back() < 2.0,
          "Poisson offsets ascending within the duration");
}

void
keyStreams()
{
    KeySource src = KeySource::shuffled({10, 20, 30}, 5);
    std::vector<std::uint32_t> first;
    for (int i = 0; i < 3; ++i)
        first.push_back(src.next());
    std::sort(first.begin(), first.end());
    check(first == std::vector<std::uint32_t>{10, 20, 30} &&
              !src.wrapped(),
          "a shuffled key stream covers its domain without repeats");
    src.next();
    check(src.wrapped(), "a shuffled key stream reports its wrap");
}

void
oracleBytes(const std::string &cache)
{
    for (StackKind kind : {StackKind::Asr, StackKind::Ic}) {
        Oracle oracle;
        if (!oracle.load(kind, cache)) {
            check(false, "oracle loads from the prepared cache");
            continue;
        }
        std::uint32_t key = oracleKeys(kind).front();
        for (bool hit : {false, true}) {
            net::Bytes frame = oracle.expectedFrame(key, 77, hit);
            net::FrameDecode d = net::decodeFrame(frame.data(), frame.size());
            check(d.ok() && oracle.matches(key, d.response, frame.data(),
                                           frame.size()),
                  "oracle accepts its own frame");
            // As in `ttbench drive`: a frame that no longer decodes is a
            // mismatch; one that does is compared under its own id
            // and hit flag.
            bool caught = true;
            for (std::size_t i = 0; i < frame.size(); ++i) {
                net::Bytes bad = frame;
                bad[i] ^= 0x01;
                net::FrameDecode db = net::decodeFrame(bad.data(), bad.size());
                caught = caught &&
                         (!db.ok() || db.response.id != 77 ||
                          !oracle.matches(key, db.response, bad.data(),
                                          db.frameBytes));
            }
            check(caught, "oracle catches every flipped byte");
        }
    }
}

} // namespace

int
selftestMain(int argc, char **argv)
{
    common::CliArgs args(argc, argv, {"cache"});
    percentiles();
    schedules();
    keyStreams();
    oracleBytes(buildCacheDir(args.getString("cache", "")));
    if (failures == 0)
        std::fprintf(stderr, "selftest ok\n");
    return failures == 0 ? 0 : 1;
}

} // namespace perfbench
