// Seeded orphan-failpoint fixture: the site below is named only outside
// the crash sweep, so the fault-injection coverage rule must fire.
void risky_write() { failpoint_hit("fixture.orphan.site"); }
