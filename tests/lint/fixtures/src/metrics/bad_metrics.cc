// Known-bad (metrics-contract): registers a series the ops doc
// never mentions, and registers a canonical anchor without giving
// it a conservation equation.

namespace fix {

struct Registry
{
    void counter(const char *name, const char *help);
};

void
registerSeries(Registry &reg)
{
    reg.counter("tt_fix_documented_total",
                "Documented and registered: the healthy case");
    reg.counter("tt_fix_undocumented_total",
                "Registered here but absent from the ops doc");
    reg.counter("tt_frontdoor_submitted_total",
                "A canonical anchor with no conservation equation");
}

} // namespace fix
