package main

import (
	"fmt"
	"testing"
)

// TestCampaigns runs the pre-merge gate's matrix: the served campaigns
// at seeds 1-3 (durability 5 cycles, exactly-once and cluster 2 each),
// plus three multi-engine crashes, one of each Section 5.2 row and one
// site-disaster cycle.
func TestCampaigns(t *testing.T) {
	matrix := map[string]struct {
		n     int
		seeds int64
	}{
		"harness":       {1, 1},
		"multi-engine":  {3, 1},
		"durability":    {5, 3},
		"exactly-once":  {2, 3},
		"cluster":       {2, 3},
		"site-disaster": {1, 1},
	}
	for _, c := range campaigns {
		m, ok := matrix[c.name]
		if !ok {
			t.Errorf("campaign %s has no row in the matrix", c.name)
		}
		for seed := int64(1); seed <= m.seeds; seed++ {
			t.Run(fmt.Sprintf("%s/seed=%d", c.name, seed), func(t *testing.T) {
				if !c.run(m.n, 8, seed) {
					t.Fatalf("%d cycles at seed %d broke their contract (the failure is printed above)", m.n, seed)
				}
			})
		}
	}
}
