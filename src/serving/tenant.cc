#include "serving/tenant.hh"

#include <algorithm>

namespace toltiers::serving {

namespace {

/** DRR quantum per round-robin visit at weight 1.0. */
constexpr double kQuantum = 1.0;

/** Floor for configured weights so a tenant always makes progress. */
constexpr double kMinWeight = 0.01;

} // namespace

std::string tenantMetricLabel(const std::string &tenant)
{
    return tenant.empty() ? std::string("anonymous") : tenant;
}

TokenBucket::TokenBucket(double rate_per_second, double burst)
    : rate_(rate_per_second), burst_(std::max(burst, 1.0)),
      tokens_(burst_)
{
}

void TokenBucket::refill(double now_seconds)
{
    if (now_seconds > last_)
    {
        tokens_ = std::min(burst_,
                           tokens_ + rate_ * (now_seconds - last_));
        last_ = now_seconds;
    }
}

bool TokenBucket::tryTake(double now_seconds)
{
    if (unlimited())
    {
        return true;
    }
    refill(now_seconds);
    if (tokens_ >= 1.0)
    {
        tokens_ -= 1.0;
        return true;
    }
    return false;
}

double TokenBucket::tokens(double now_seconds) const
{
    if (unlimited())
    {
        return burst_;
    }
    TokenBucket probe = *this;
    probe.refill(now_seconds);
    return probe.tokens_;
}

const TenantQuota &TenantPolicy::quotaFor(const std::string &tenant) const
{
    auto it = tenants.find(tenant);
    return it == tenants.end() ? defaults : it->second;
}

TenantGovernor::TenantGovernor(const TenantPolicy &policy,
                               obs::Registry *metrics)
    : policy_(policy), metrics_(metrics)
{
}

TenantGovernor::State &TenantGovernor::state(const std::string &tenant)
{
    auto it = tenants_.find(tenant);
    if (it != tenants_.end())
    {
        return it->second;
    }
    State fresh;
    fresh.quota = policy_.quotaFor(tenant);
    fresh.bucket =
        TokenBucket(fresh.quota.ratePerSecond, fresh.quota.burst);
    if (metrics_ != nullptr)
    {
        const obs::Labels labels = {{"tenant", tenantMetricLabel(tenant)}};
        fresh.mSubmitted = &metrics_->counter(
            "tt_tenant_submitted_total", labels,
            "Requests this tenant offered to front-door admission");
        fresh.mRejected = &metrics_->counter(
            "tt_tenant_rejected_total", labels,
            "Requests rejected because the tenant was over quota");
        fresh.mShed = &metrics_->counter(
            "tt_tenant_shed_total", labels,
            "Admitted requests lost to the shared capacity gate");
        fresh.mCompleted = &metrics_->counter(
            "tt_tenant_completed_total", labels,
            "Responses produced for this tenant");
        fresh.mViolations = &metrics_->counter(
            "tt_tenant_violations_total", labels,
            "Tenant responses that violated their tier guarantee");
        fresh.mQueued = &metrics_->gauge(
            "tt_tenant_queue_depth", labels,
            "Work items waiting in the tenant's fair queue");
    }
    return tenants_.emplace(tenant, std::move(fresh)).first->second;
}

bool TenantGovernor::admit(const std::string &tenant, double now_seconds)
{
    common::MutexLock lock(mu_);
    State &s = state(tenant);
    ++s.submitted;
    if (s.mSubmitted != nullptr)
    {
        s.mSubmitted->inc();
    }
    if (s.bucket.tryTake(now_seconds))
    {
        return true;
    }
    ++s.rejected;
    if (s.mRejected != nullptr)
    {
        s.mRejected->inc();
    }
    return false;
}

void TenantGovernor::countShed(const std::string &tenant)
{
    common::MutexLock lock(mu_);
    State &s = state(tenant);
    ++s.shed;
    if (s.mShed != nullptr)
    {
        s.mShed->inc();
    }
}

void TenantGovernor::countCompleted(const std::string &tenant,
                                    bool violation)
{
    common::MutexLock lock(mu_);
    State &s = state(tenant);
    ++s.completed;
    if (s.mCompleted != nullptr)
    {
        s.mCompleted->inc();
    }
    if (violation)
    {
        ++s.violations;
        if (s.mViolations != nullptr)
        {
            s.mViolations->inc();
        }
    }
}

void TenantGovernor::enqueue(const std::string &tenant,
                             std::function<void()> work)
{
    common::MutexLock lock(mu_);
    State &s = state(tenant);
    s.queue.push_back(std::move(work));
    ++queued_;
    if (s.mQueued != nullptr)
    {
        s.mQueued->set(static_cast<double>(s.queue.size()));
    }
    if (!s.active)
    {
        s.active = true;
        s.deficit = 0.0;
        activeOrder_.push_back(tenant);
    }
}

std::function<void()> TenantGovernor::dequeue()
{
    common::MutexLock lock(mu_);
    while (!activeOrder_.empty())
    {
        const std::string tenant = activeOrder_.front();
        State &s = state(tenant);
        if (s.queue.empty())
        {
            // Drained since activation; retire from the rotation.
            activeOrder_.pop_front();
            s.active = false;
            s.deficit = 0.0;
            continue;
        }
        if (s.deficit < 1.0)
        {
            // One quantum per visit, then the next backlogged
            // tenant's turn — the rotation is what yields
            // weight-proportional throughput (a tenant that
            // re-credited itself at the head would monopolize the
            // queue). Deficits grow every visit, so the loop
            // terminates even for the smallest weight.
            s.deficit += kQuantum * std::max(s.quota.weight, kMinWeight);
            activeOrder_.pop_front();
            activeOrder_.push_back(tenant);
            continue;
        }
        s.deficit -= 1.0;
        std::function<void()> work = std::move(s.queue.front());
        s.queue.pop_front();
        --queued_;
        if (s.mQueued != nullptr)
        {
            s.mQueued->set(static_cast<double>(s.queue.size()));
        }
        if (s.queue.empty())
        {
            activeOrder_.pop_front();
            s.active = false;
            s.deficit = 0.0;
        }
        return work;
    }
    return {};
}

std::size_t TenantGovernor::queuedCount() const
{
    common::MutexLock lock(mu_);
    return queued_;
}

std::vector<TenantStats> TenantGovernor::stats() const
{
    common::MutexLock lock(mu_);
    std::vector<TenantStats> out;
    out.reserve(tenants_.size());
    for (const auto &[tenant, s] : tenants_)
    {
        TenantStats row;
        row.tenant = tenantMetricLabel(tenant);
        row.submitted = s.submitted;
        row.rejected = s.rejected;
        row.shed = s.shed;
        row.completed = s.completed;
        row.violations = s.violations;
        row.queued = s.queue.size();
        out.push_back(std::move(row));
    }
    std::sort(out.begin(), out.end(),
              [](const TenantStats &a, const TenantStats &b)
              { return a.tenant < b.tenant; });
    return out;
}

} // namespace toltiers::serving
