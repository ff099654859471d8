package faultmesh_test

// The chaos-campaign acceptance test: a seeded hostile-environment run —
// one fault plane on every gateway→replica wire and under every journal,
// a conductor draining/killing/restarting replicas — after which
// every campaign invariant must hold: zero acked-then-lost jobs, no
// duplicate results, exactly-once detection delivery, oracle-identical
// outputs, breakers re-closed, journals recovered.
//
// Client count is scaled down under -race (campaignClients in
// race_on_test.go / race_off_test.go) — the race detector's ~10x slowdown
// would otherwise push the run past the campaign's wall budget.

import (
	"strings"
	"testing"
	"time"

	"splitmem/internal/faultmesh/campaign"
)

func TestChaosCampaign(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos campaign is a multi-second hostile load run")
	}
	rep, err := campaign.Run(campaign.Config{
		Seed:    42,
		Clients: campaignClients,
		MaxWall: 4 * time.Minute,
	})
	if err != nil {
		t.Fatalf("campaign setup: %v", err)
	}
	t.Logf("campaign seed=%d clients=%d wall=%v", rep.Seed, rep.Clients, rep.Wall.Round(time.Millisecond))
	t.Logf("faults: %+v", rep.Stats)
	if rep.Load != nil {
		t.Logf("%s", rep.Load.String())
	}
	for _, inv := range rep.Invariants {
		if inv.Passed {
			t.Logf("invariant %-24s ok", inv.Name)
		} else {
			t.Errorf("invariant %-24s FAILED: %s", inv.Name, inv.Detail)
		}
	}
	if !rep.Passed {
		t.Fatalf("campaign failed (reproduce with seed %d)", rep.Seed)
	}

	// The report must round-trip as the CI artifact.
	var buf strings.Builder
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatalf("report encode: %v", err)
	}
	for _, want := range []string{`"seed"`, `"invariants"`, `"mesh_faults"`, `"disk_faults"`} {
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("report JSON missing %s:\n%s", want, buf.String())
		}
	}
}
