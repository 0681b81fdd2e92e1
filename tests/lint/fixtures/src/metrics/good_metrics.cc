// Known-good (metrics-contract): every registered series appears
// in the fixture ops doc, and the conservation equation references
// only registered series.

namespace fix {

struct Registry
{
    void counter(const char *name, const char *help);
};

void
registerSeries(Registry &reg)
{
    reg.counter("tt_fix_lookups_total", "Probes");
    reg.counter("tt_fix_hits_total", "Probes served");
    reg.counter("tt_fix_misses_total", "Probes that fell through");
}

} // namespace fix
