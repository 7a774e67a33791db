package telemetry

// CampaignStats is a fault-injection campaign's counter section: what
// the harness and cmd/faultinject drove and how much of it recovered
// consistently. It follows the registry sections' vocabulary rules —
// nil-safe counters, rows with canonical campaign_* names (CampaignRows,
// whose help says what each field counts) rendered by the servers' text
// renderer — so campaign reports and
// server stats speak one schema (the ROADMAP's "campaigns and servers
// share one stats schema" item). It lives outside Registry because a
// campaign aggregates over many stacks, not one.
type CampaignStats struct {
	Runs, Consistent, Failures, Crashes, Migrations Counter
}

// Record tallies one campaign's outcome: runs cycles, of which
// consistent recovered cleanly.
func (t *CampaignStats) Record(runs, consistent int) {
	if t == nil {
		return
	}
	t.Runs.Add(uint64(runs))
	t.Consistent.Add(uint64(consistent))
	t.Failures.Add(uint64(runs - consistent))
}

// CampaignRows is a campaign's rows.
var CampaignRows = newTable(ScopeServer, []Row[CampaignStats]{
	counter("campaign_runs", "campaign runs and cycles executed", func(t *CampaignStats) *Counter { return &t.Runs }),
	counter("campaign_consistent", "runs that recovered consistently", func(t *CampaignStats) *Counter { return &t.Consistent }),
	counter("campaign_failures", "runs that broke their contract", func(t *CampaignStats) *Counter { return &t.Failures }),
	counter("campaign_crashes", "crashes injected across all runs", func(t *CampaignStats) *Counter { return &t.Crashes }),
	counter("campaign_migrations", "slot migrations the cluster campaign drove", func(t *CampaignStats) *Counter { return &t.Migrations }),
})
