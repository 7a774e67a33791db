package platform

import (
	"strings"
	"testing"

	"tsp/internal/core"
)

func TestAllProfilesWellFormed(t *testing.T) {
	for _, p := range All() {
		if p.Name == "" || p.Description == "" {
			t.Errorf("profile missing identity: %+v", p)
		}
		if p.Threads < 1 {
			t.Errorf("%s: nonpositive thread count", p.Name)
		}
		if p.FlushCost < 0 || p.MissCost < 0 {
			t.Errorf("%s: negative cost", p.Name)
		}
		if !strings.Contains(p.String(), p.Name) {
			t.Errorf("%s: String() does not mention the name: %q", p.Name, p.String())
		}
	}
}

func TestTableOneProfilesMatchPaperSetup(t *testing.T) {
	// Both Table-1 rows ran 8 worker threads.
	for _, p := range All() {
		if p.Threads != 8 {
			t.Errorf("%s: %d threads, the paper used 8", p.Name, p.Threads)
		}
	}
}

func TestServerCostsExceedDesktop(t *testing.T) {
	// The DL580's lower absolute throughput is modeled by pricier
	// memory access; the calibration relies on this ordering.
	d, s := Desktop(), Server()
	if s.MissCost <= d.MissCost {
		t.Errorf("server MissCost %d should exceed desktop %d", s.MissCost, d.MissCost)
	}
}

func TestByName(t *testing.T) {
	for _, name := range []string{"desktop", "server", "unit"} {
		p, err := ByName(name)
		if err != nil {
			t.Fatalf("ByName(%q): %v", name, err)
		}
		if p.Name != name {
			t.Fatalf("ByName(%q) returned %q", name, p.Name)
		}
	}
	if _, err := ByName("mainframe"); err == nil {
		t.Fatal("ByName accepted an unknown profile")
	}
}

func TestProfilesAdmitTSPPlans(t *testing.T) {
	// The Table-1 experiments presume TSP is available on both
	// machines. Each profile simulates an NVRAM machine (an nvm.Device
	// with priced flushes), which must derive a TSP plan for the full
	// failure set the paper discusses, and the profile must price the
	// flushes that plan saves.
	req := core.Requirements{
		Tolerate:  []core.Failure{core.ProcessCrash, core.KernelPanic, core.PowerOutage},
		Isolation: core.MutexBased,
	}
	for _, p := range All() {
		plan, err := core.DerivePlan(req, core.NVRAMMachine())
		if err != nil {
			t.Fatalf("%s: DerivePlan: %v", p.Name, err)
		}
		if !plan.TSP {
			t.Errorf("%s: hardware does not admit a TSP plan", p.Name)
		}
		if plan.Overhead != core.OverheadLogging {
			t.Errorf("%s: overhead = %v, want logging (Atlas TSP mode)", p.Name, plan.Overhead)
		}
		if p.FlushCost <= 0 {
			t.Errorf("%s: flushCost %d, want a priced flush for TSP to save", p.Name, p.FlushCost)
		}
	}
}

func TestUnitProfileDeterministic(t *testing.T) {
	u := Unit()
	if u.FlushCost != 0 || u.MissCost != 0 {
		t.Errorf("unit profile must be deterministic and cost-free: %+v", u)
	}
}
