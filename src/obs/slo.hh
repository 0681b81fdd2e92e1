/**
 * @file
 * SLO burn-rate engine: sliding-window error-budget accounting per
 * tier, layered on top of the GuaranteeMonitor's pass/fail signal.
 *
 * The GuaranteeMonitor answers "is this tier's promise broken right
 * now?"; the SloTracker answers the operational question a
 * provisioner or pager needs: "how fast is this tier spending its
 * error budget?". Each served request is one binary event — good
 * (the tolerance promise was honored, by the matched ensemble or a
 * safe fallback) or bad (an explicit guarantee violation). The
 * tracker keeps two sliding windows per (objective, tier), a fast
 * window that reacts within tens of requests and a slow window
 * that smooths transients, and derives from each the burn rate:
 *
 *     burn = badFraction(window) / (1 - target)
 *
 * i.e. the multiple of the sustainable failure budget the tier is
 * currently consuming (burn 1.0 spends exactly the budget; burn
 * 14.4 exhausts a 30-day budget in 2 days — the classic paging
 * threshold). Multi-rate alerting follows the multiwindow scheme:
 * a Page fires only when BOTH windows exceed the page rate (fast
 * confirms it is happening now, slow confirms it is sustained), a
 * Ticket when both exceed the lower ticket rate.
 *
 * Windows are request-count windows, not wall-clock windows: the
 * serving stack's determinism contract bans wall-time-dependent
 * control state, and a count window makes the engine's output a
 * pure function of the event sequence. Everything is exported as
 * tt_slo_* series when a registry is attached.
 */

#ifndef TOLTIERS_OBS_SLO_HH
#define TOLTIERS_OBS_SLO_HH

#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace toltiers::obs {

class Gauge;
class Registry;

/** Budget policy for one tier (or the tracker-wide default). */
struct SloPolicy
{
    /** Target good fraction; 1 - target is the error budget. */
    double target = 0.999;
    /** Fast (reactive) window length, in events. */
    std::size_t fastWindowEvents = 128;
    /** Slow (smoothing) window length, in events. */
    std::size_t slowWindowEvents = 1024;
    /** Burn rate at which both windows must arrive to page. */
    double pageBurnRate = 14.4;
    /** Burn rate at which both windows must arrive to ticket. */
    double ticketBurnRate = 6.0;
    /** Events observed before alerts may fire (a cold window's
     * first bad event is noise, not an incident). */
    std::size_t minEvents = 32;
};

/** Alert severity, ordered; exported as the numeric gauge value. */
enum class SloAlert
{
    None = 0,
    Ticket = 1,
    Page = 2,
};

/** Printable alert name ("none" / "ticket" / "page"). */
const char *sloAlertName(SloAlert alert);

/** Point-in-time budget accounting for one tier. */
struct SloStatus
{
    std::string objective;
    double tolerance = 0.0;
    SloPolicy policy;

    std::uint64_t events = 0; //!< Lifetime events observed.
    std::uint64_t bad = 0;    //!< Lifetime bad events.
    double fastBurnRate = 0.0;
    double slowBurnRate = 0.0;
    /** Fraction of the slow window's error budget still unspent;
     * negative when the window is overdrawn. */
    double budgetRemaining = 1.0;
    SloAlert alert = SloAlert::None;
};

/** Point-in-time budget accounting for one tenant (the same
 * two-window burn-rate math as SloStatus, keyed by tenant instead
 * of tier — so a noisy neighbor's violations page that tenant's
 * budget, not its victims'). */
struct TenantSloStatus
{
    std::string tenant; //!< Metric label ("anonymous" for "").
    SloPolicy policy;
    std::uint64_t events = 0; //!< Lifetime events observed.
    std::uint64_t bad = 0;    //!< Lifetime bad events.
    double fastBurnRate = 0.0;
    double slowBurnRate = 0.0;
    SloAlert alert = SloAlert::None;
};

/**
 * Sliding-window error-budget tracker for every installed tier.
 * All calls are thread-safe; record() is a ring-buffer push plus
 * gauge updates under one mutex, cheap enough for the serving path
 * (each tier's and tenant's gauge handles are resolved on its first
 * publish, and a warm record() allocates nothing).
 */
class SloTracker
{
  public:
    explicit SloTracker(SloPolicy defaults = SloPolicy());

    /**
     * Install (or re-install) a tier so an idle tier still exports
     * zeroed series; recording into an uninstalled tier installs it
     * with the default policy on first use.
     */
    void installTier(const std::string &objective, double tolerance);

    /** Install a tier with its own policy. */
    void installTier(const std::string &objective, double tolerance,
                     const SloPolicy &policy);

    /**
     * Mirror every tier's tt_slo_* series into `registry` on each
     * record() / installTier(). Pass nullptr to detach. The
     * registry must outlive the tracker (it caches handles).
     */
    void attachMetrics(Registry *registry);

    /** Record one served request's outcome for a tier. */
    void record(const std::string &objective, double tolerance,
                bool good);

    /**
     * Record the same outcome against the requesting tenant's own
     * error budget (label per serving::tenantMetricLabel; the
     * tracker treats it as an opaque key). Uses the tracker-wide
     * default policy; exported as tt_tenant_slo_* / tt_tenant_burn
     * / tt_tenant_alert series when metrics are attached.
     */
    void recordTenant(const std::string &tenant_label, bool good);

    /** Current accounting for one tier (zeros if unknown). */
    SloStatus status(const std::string &objective,
                     double tolerance) const;

    /** Current accounting for every tier, sorted by key. */
    std::vector<SloStatus> statuses() const;

    /** Current accounting for every tenant seen, sorted by label. */
    std::vector<TenantSloStatus> tenantStatuses() const;

    /** Number of tiers currently at or above Ticket severity. */
    std::size_t alertCount() const;

  private:
    /** The last `capacity` events (true = bad) in a ring that is
     * sized once per capacity, so a warm push never allocates. */
    struct Window
    {
        std::vector<bool> ring;
        std::size_t head = 0; //!< Oldest event once full.
        std::size_t size = 0;
        std::uint64_t bad = 0;

        void push(bool is_bad, std::size_t capacity);

        double
        badFraction() const
        {
            if (size == 0)
                return 0.0;
            return static_cast<double>(bad) /
                   static_cast<double>(size);
        }
    };

    /** The gauge handles of one tier or tenant (null until its
     * first publish with metrics attached). */
    struct Gauges
    {
        Gauge *events = nullptr;
        Gauge *bad = nullptr;
        Gauge *burnFast = nullptr;
        Gauge *burnSlow = nullptr;
        Gauge *budgetRemaining = nullptr; //!< Tiers only.
        Gauge *alert = nullptr;
    };

    struct TierSlo
    {
        SloPolicy policy;
        Window fast;
        Window slow;
        std::uint64_t events = 0;
        std::uint64_t bad = 0;
        Gauges gauges;
    };

    using Key = std::pair<std::string, double>;

    /** Burn rates and alert of one window pair. */
    struct Burn
    {
        double fast = 0.0;
        double slow = 0.0;
        SloAlert alert = SloAlert::None;
    };

    static Burn burn(const TierSlo &ts);
    static void push(TierSlo &ts, bool good);
    SloStatus evaluate(const Key &key, const TierSlo &ts) const;
    void publish(const Key &key, TierSlo &ts);
    TenantSloStatus evaluateTenant(const std::string &tenant,
                                   const TierSlo &ts) const;
    void publishTenant(const std::string &tenant, TierSlo &ts);

    mutable std::mutex mu_;
    std::map<Key, TierSlo> tiers_;
    /** Per-tenant windows, keyed by metric label. */
    std::map<std::string, TierSlo> tenants_;
    SloPolicy defaults_;
    Registry *metrics_ = nullptr;
};

} // namespace toltiers::obs

#endif // TOLTIERS_OBS_SLO_HH
