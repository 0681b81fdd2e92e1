#include "obs/slo.hh"

#include <algorithm>

#include "common/strings.hh"
#include "obs/metrics.hh"

namespace toltiers::obs {

namespace {

const char *sloAlertNames[] = {"none", "ticket", "page"};

Labels
sloLabels(const std::pair<std::string, double> &key)
{
    return {{"objective", key.first},
            {"tier", common::strprintf("%g", key.second)}};
}

/** The spendable error budget; floored so burn stays finite even
 * for a (degenerate) 100% target. */
double
errorBudget(const SloPolicy &policy)
{
    return std::max(1e-12, 1.0 - policy.target);
}

} // namespace

const char *
sloAlertName(SloAlert alert)
{
    return sloAlertNames[static_cast<std::size_t>(alert)];
}

SloTracker::SloTracker(SloPolicy defaults) : defaults_(defaults) {}

void
SloTracker::installTier(const std::string &objective,
                        double tolerance)
{
    installTier(objective, tolerance, defaults_);
}

void
SloTracker::installTier(const std::string &objective,
                        double tolerance, const SloPolicy &policy)
{
    std::lock_guard<std::mutex> lock(mu_);
    Key key{objective, tolerance};
    TierSlo &ts = tiers_[key];
    ts.policy = policy;
    publish(key, ts);
}

void
SloTracker::attachMetrics(Registry *registry)
{
    std::lock_guard<std::mutex> lock(mu_);
    metrics_ = registry;
    // Handles from a previous registry must not be reused.
    for (auto &[key, ts] : tiers_)
        ts.gauges = Gauges{};
    for (auto &[tenant, ts] : tenants_)
        ts.gauges = Gauges{};
    if (metrics_ != nullptr) {
        for (auto &[key, ts] : tiers_)
            publish(key, ts);
        for (auto &[tenant, ts] : tenants_)
            publishTenant(tenant, ts);
    }
}

void
SloTracker::Window::push(bool is_bad, std::size_t capacity)
{
    if (ring.size() != capacity) {
        // First push, or the policy changed the window length: keep
        // the newest events that still fit, oldest first.
        std::vector<bool> kept(capacity, false);
        std::size_t keep = std::min(size, capacity);
        std::uint64_t kept_bad = 0;
        for (std::size_t i = 0; i < keep; ++i) {
            bool e = ring[(head + size - keep + i) % ring.size()];
            kept[i] = e;
            kept_bad += e ? 1 : 0;
        }
        ring.swap(kept);
        head = 0;
        size = keep;
        bad = kept_bad;
    }
    if (capacity == 0)
        return; // A zero-length window holds nothing.
    if (size == capacity) {
        bad -= ring[head] ? 1 : 0;
        ring[head] = is_bad;
        head = (head + 1) % capacity;
    } else {
        ring[(head + size) % capacity] = is_bad;
        ++size;
    }
    bad += is_bad ? 1 : 0;
}

void
SloTracker::push(TierSlo &ts, bool good)
{
    bool bad = !good;
    ++ts.events;
    ts.bad += bad ? 1 : 0;
    ts.fast.push(bad, ts.policy.fastWindowEvents);
    ts.slow.push(bad, ts.policy.slowWindowEvents);
}

void
SloTracker::record(const std::string &objective, double tolerance,
                   bool good)
{
    std::lock_guard<std::mutex> lock(mu_);
    Key key{objective, tolerance};
    auto it = tiers_.find(key);
    if (it == tiers_.end()) {
        it = tiers_.emplace(key, TierSlo{}).first;
        it->second.policy = defaults_;
    }
    push(it->second, good);
    publish(key, it->second);
}

void
SloTracker::recordTenant(const std::string &tenant_label, bool good)
{
    std::lock_guard<std::mutex> lock(mu_);
    auto it = tenants_.find(tenant_label);
    if (it == tenants_.end()) {
        it = tenants_.emplace(tenant_label, TierSlo{}).first;
        it->second.policy = defaults_;
    }
    push(it->second, good);
    publishTenant(tenant_label, it->second);
}

SloTracker::Burn
SloTracker::burn(const TierSlo &ts)
{
    Burn b;
    double budget = errorBudget(ts.policy);
    b.fast = ts.fast.badFraction() / budget;
    b.slow = ts.slow.badFraction() / budget;

    // Multiwindow multi-burn-rate alerting: both the reactive and
    // the sustained window must agree before anything fires, and a
    // cold tier (or tenant) never alerts.
    if (ts.events >= ts.policy.minEvents) {
        double both = std::min(b.fast, b.slow);
        if (both >= ts.policy.pageBurnRate)
            b.alert = SloAlert::Page;
        else if (both >= ts.policy.ticketBurnRate)
            b.alert = SloAlert::Ticket;
    }
    return b;
}

SloStatus
SloTracker::evaluate(const Key &key, const TierSlo &ts) const
{
    SloStatus status;
    status.objective = key.first;
    status.tolerance = key.second;
    status.policy = ts.policy;
    status.events = ts.events;
    status.bad = ts.bad;
    Burn b = burn(ts);
    status.fastBurnRate = b.fast;
    status.slowBurnRate = b.slow;
    status.budgetRemaining = 1.0 - b.slow;
    status.alert = b.alert;
    return status;
}

void
SloTracker::publish(const Key &key, TierSlo &ts)
{
    if (metrics_ == nullptr || !metricsEnabled())
        return;
    Gauges &g = ts.gauges;
    if (g.events == nullptr) {
        Labels labels = sloLabels(key);
        g.events = &metrics_->gauge(
            "tt_slo_events_total", labels,
            "Requests accounted against the tier's SLO");
        g.bad = &metrics_->gauge(
            "tt_slo_bad_total", labels,
            "Requests that spent error budget (violations)");
        g.burnFast = &metrics_->gauge(
            "tt_slo_burn_rate_fast", labels,
            "Error-budget burn rate over the fast window");
        g.burnSlow = &metrics_->gauge(
            "tt_slo_burn_rate_slow", labels,
            "Error-budget burn rate over the slow window");
        g.budgetRemaining = &metrics_->gauge(
            "tt_slo_budget_remaining", labels,
            "Unspent fraction of the slow window's error budget");
        g.alert = &metrics_->gauge(
            "tt_slo_alert_level", labels,
            "Multiwindow alert severity (0 none, 1 ticket, "
            "2 page)");
    }
    Burn b = burn(ts);
    g.events->set(static_cast<double>(ts.events));
    g.bad->set(static_cast<double>(ts.bad));
    g.burnFast->set(b.fast);
    g.burnSlow->set(b.slow);
    g.budgetRemaining->set(1.0 - b.slow);
    g.alert->set(static_cast<double>(b.alert));
}

TenantSloStatus
SloTracker::evaluateTenant(const std::string &tenant,
                           const TierSlo &ts) const
{
    TenantSloStatus status;
    status.tenant = tenant;
    status.policy = ts.policy;
    status.events = ts.events;
    status.bad = ts.bad;
    Burn b = burn(ts);
    status.fastBurnRate = b.fast;
    status.slowBurnRate = b.slow;
    status.alert = b.alert;
    return status;
}

void
SloTracker::publishTenant(const std::string &tenant, TierSlo &ts)
{
    if (metrics_ == nullptr || !metricsEnabled())
        return;
    Gauges &g = ts.gauges;
    if (g.events == nullptr) {
        Labels labels = {{"tenant", tenant}};
        g.events = &metrics_->gauge(
            "tt_tenant_slo_events_total", labels,
            "Requests accounted against the tenant's SLO");
        g.bad = &metrics_->gauge(
            "tt_tenant_slo_bad_total", labels,
            "Tenant requests that spent error budget");
        g.burnFast = &metrics_->gauge(
            "tt_tenant_burn_rate_fast", labels,
            "Tenant error-budget burn over the fast window");
        g.burnSlow = &metrics_->gauge(
            "tt_tenant_burn_rate_slow", labels,
            "Tenant error-budget burn over the slow window");
        g.alert = &metrics_->gauge(
            "tt_tenant_alert_level", labels,
            "Tenant multiwindow alert severity (0 none, "
            "1 ticket, 2 page)");
    }
    Burn b = burn(ts);
    g.events->set(static_cast<double>(ts.events));
    g.bad->set(static_cast<double>(ts.bad));
    g.burnFast->set(b.fast);
    g.burnSlow->set(b.slow);
    g.alert->set(static_cast<double>(b.alert));
}

SloStatus
SloTracker::status(const std::string &objective,
                   double tolerance) const
{
    std::lock_guard<std::mutex> lock(mu_);
    Key key{objective, tolerance};
    auto it = tiers_.find(key);
    if (it == tiers_.end()) {
        SloStatus none;
        none.objective = objective;
        none.tolerance = tolerance;
        none.policy = defaults_;
        return none;
    }
    return evaluate(key, it->second);
}

std::vector<SloStatus>
SloTracker::statuses() const
{
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<SloStatus> out;
    out.reserve(tiers_.size());
    for (const auto &[key, ts] : tiers_)
        out.push_back(evaluate(key, ts));
    return out;
}

std::vector<TenantSloStatus>
SloTracker::tenantStatuses() const
{
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<TenantSloStatus> out;
    out.reserve(tenants_.size());
    for (const auto &[tenant, ts] : tenants_)
        out.push_back(evaluateTenant(tenant, ts));
    return out;
}

std::size_t
SloTracker::alertCount() const
{
    std::lock_guard<std::mutex> lock(mu_);
    std::size_t n = 0;
    for (const auto &[key, ts] : tiers_) {
        if (evaluate(key, ts).alert != SloAlert::None)
            ++n;
    }
    return n;
}

} // namespace toltiers::obs
