package core

import (
	"errors"
	"strings"
	"testing"
)

func mustPlan(t *testing.T, req Requirements, hw Hardware) Plan {
	t.Helper()
	p, err := DerivePlan(req, hw)
	if err != nil {
		t.Fatalf("DerivePlan: %v", err)
	}
	return p
}

func hasAction(as []Action, a Action) bool {
	for _, x := range as {
		if x == a {
			return true
		}
	}
	return false
}

// --- The Section 3 headline: process crashes + shared mappings = free ---

func TestProcessCrashNonBlockingZeroOverhead(t *testing.T) {
	p := mustPlan(t, Requirements{
		Tolerate:  []Failure{ProcessCrash},
		Isolation: NonBlocking,
	}, ConventionalDesktop())
	if !p.TSP {
		t.Fatal("plan is not TSP despite kernel persistence")
	}
	if p.Overhead != OverheadZero {
		t.Fatalf("overhead = %v, want zero", p.Overhead)
	}
	if len(p.Runtime) != 0 {
		t.Fatalf("runtime actions = %v, want none", p.Runtime)
	}
	if p.Recovery != RecoveryNone {
		t.Fatalf("recovery = %v, want none", p.Recovery)
	}
	if !hasAction(p.Rescue[ProcessCrash], ActionKernelPersistence) {
		t.Fatalf("rescue for process crash = %v, want kernel persistence", p.Rescue[ProcessCrash])
	}
}

func TestProcessCrashMutexBasedLoggingOnly(t *testing.T) {
	p := mustPlan(t, Requirements{
		Tolerate:  []Failure{ProcessCrash},
		Isolation: MutexBased,
	}, ConventionalDesktop())
	if !p.TSP {
		t.Fatal("plan should be TSP")
	}
	if p.Overhead != OverheadLogging {
		t.Fatalf("overhead = %v, want logging (Atlas TSP mode)", p.Overhead)
	}
	if !hasAction(p.Runtime, ActionUndoLog) {
		t.Fatal("mutex-based plan lacks undo logging")
	}
	if hasAction(p.Runtime, ActionFlushLogEntry) {
		t.Fatal("TSP plan must not flush log entries synchronously")
	}
	if p.Recovery != RecoveryRollback {
		t.Fatalf("recovery = %v, want rollback", p.Recovery)
	}
}

// --- Kernel panics ---

func TestKernelPanicNeedsPanicFlush(t *testing.T) {
	// Desktop without a panic-flush kernel: caches die with the kernel,
	// so the plan must fall back to preventive flushing (non-TSP).
	hw := ConventionalDesktop()
	hw.PanicWriteToStorage = false
	p := mustPlan(t, Requirements{
		Tolerate:  []Failure{ProcessCrash, KernelPanic},
		Isolation: MutexBased,
	}, hw)
	if p.TSP {
		t.Fatal("TSP should not hold without panic-time cache flush")
	}
	if p.Overhead < OverheadLoggingFlush {
		t.Fatalf("overhead = %v, want at least logging+flush", p.Overhead)
	}
}

func TestKernelPanicWithPanicFlushOnNVRAM(t *testing.T) {
	p := mustPlan(t, Requirements{
		Tolerate:  []Failure{ProcessCrash, KernelPanic},
		Isolation: MutexBased,
	}, NVRAMMachine())
	if !p.TSP {
		t.Fatal("NVRAM + panic flush should admit TSP for kernel panics")
	}
	if !hasAction(p.Rescue[KernelPanic], ActionRescueFlushCaches) {
		t.Fatalf("kernel panic rescue = %v, want cache flush", p.Rescue[KernelPanic])
	}
	if p.Overhead != OverheadLogging {
		t.Fatalf("overhead = %v, want logging", p.Overhead)
	}
}

func TestKernelPanicVolatileDRAMNeedsPanicWriteToStorage(t *testing.T) {
	// DRAM that does not survive reboot: the panic handler must write
	// the heap down to storage (the HP Linux patch scenario).
	hw := ConventionalServerUPS()
	p := mustPlan(t, Requirements{
		Tolerate:  []Failure{KernelPanic},
		Isolation: NonBlocking,
	}, hw)
	if !p.TSP {
		t.Fatal("panic flush + panic write-to-storage should admit TSP")
	}
	r := p.Rescue[KernelPanic]
	if !hasAction(r, ActionRescueFlushCaches) || !hasAction(r, ActionRescueWriteHeapToStorage) {
		t.Fatalf("kernel panic rescue = %v, want flush-caches + write-heap-to-storage", r)
	}
}

func TestKernelPanicWarmRebootAvoidsStorageWrite(t *testing.T) {
	hw := ConventionalDesktop()
	hw.PanicFlush = true
	hw.WarmRebootPreservesDRAM = true
	p := mustPlan(t, Requirements{
		Tolerate:  []Failure{KernelPanic},
		Isolation: NonBlocking,
	}, hw)
	if !p.TSP {
		t.Fatal("warm reboot preservation should admit TSP")
	}
	if hasAction(p.Rescue[KernelPanic], ActionRescueWriteHeapToStorage) {
		t.Fatal("warm-reboot machine should not need a panic-time storage write")
	}
}

// --- Power outages ---

func TestPowerOutageNVRAMNeedsOnlyPSUResidual(t *testing.T) {
	p := mustPlan(t, Requirements{
		Tolerate:  []Failure{PowerOutage},
		Isolation: NonBlocking,
	}, NVRAMMachine())
	if !p.TSP {
		t.Fatal("NVRAM + PSU residual energy should admit TSP for power outages")
	}
	r := p.Rescue[PowerOutage]
	if !hasAction(r, ActionRescueFlushCaches) {
		t.Fatalf("rescue = %v, want cache flush", r)
	}
	if hasAction(r, ActionRescueSaveDRAM) {
		t.Fatal("NVRAM machine should not need DRAM evacuation")
	}
}

func TestPowerOutageWSPTwoStage(t *testing.T) {
	// Volatile DRAM + supercap: Whole System Persistence's two stages.
	hw := ConventionalDesktop()
	hw.Energy = EnergySupercap
	p := mustPlan(t, Requirements{
		Tolerate:  []Failure{PowerOutage},
		Isolation: NonBlocking,
	}, hw)
	if !p.TSP {
		t.Fatal("supercap-backed DRAM should admit a WSP-style TSP design")
	}
	r := p.Rescue[PowerOutage]
	if !hasAction(r, ActionRescueFlushCaches) || !hasAction(r, ActionRescueSaveDRAM) {
		t.Fatalf("rescue = %v, want two-stage flush+save", r)
	}
}

func TestPowerOutageNoEnergyForcesSyncIO(t *testing.T) {
	p := mustPlan(t, Requirements{
		Tolerate:  []Failure{PowerOutage},
		Isolation: MutexBased,
	}, ConventionalDesktop())
	if p.TSP {
		t.Fatal("no standby energy: TSP must not hold")
	}
	if p.Overhead != OverheadSyncIO {
		t.Fatalf("overhead = %v, want sync-io", p.Overhead)
	}
	if !hasAction(p.Runtime, ActionSyncWriteStorage) {
		t.Fatalf("runtime = %v, want sync-write-storage", p.Runtime)
	}
}

func TestPowerOutageUnsatisfiableWithoutAnything(t *testing.T) {
	hw := Hardware{Memory: MemDRAM} // no energy, no storage
	_, err := DerivePlan(Requirements{
		Tolerate:  []Failure{PowerOutage},
		Isolation: NonBlocking,
	}, hw)
	var u *UnsatisfiableError
	if !errors.As(err, &u) {
		t.Fatalf("err = %v, want UnsatisfiableError", err)
	}
	if u.Failure != PowerOutage {
		t.Fatalf("unsatisfiable failure = %v, want power outage", u.Failure)
	}
}

// --- Site disasters ---

func TestSiteDisasterRequiresReplication(t *testing.T) {
	_, err := DerivePlan(Requirements{
		Tolerate:  []Failure{SiteDisaster},
		Isolation: NonBlocking,
	}, NVRAMMachine())
	var u *UnsatisfiableError
	if !errors.As(err, &u) {
		t.Fatalf("err = %v, want UnsatisfiableError", err)
	}
}

func TestSiteDisasterIsNeverTSP(t *testing.T) {
	p := mustPlan(t, Requirements{
		Tolerate:  []Failure{SiteDisaster},
		Isolation: NonBlocking,
	}, GeoReplicated())
	if p.TSP {
		t.Fatal("site disasters give no notice; the plan cannot be TSP")
	}
	if p.Overhead != OverheadSyncIO {
		t.Fatalf("overhead = %v, want sync-io", p.Overhead)
	}
	if !hasAction(p.Runtime, ActionSyncReplicate) {
		t.Fatalf("runtime = %v, want sync-replicate", p.Runtime)
	}
}

// --- Corruption mode ---

func TestCorruptingFailuresRequireMutexBased(t *testing.T) {
	_, err := DerivePlan(Requirements{
		Tolerate:  []Failure{ProcessCrash},
		Mode:      Corrupting,
		Isolation: NonBlocking,
	}, NVRAMMachine())
	var u *UnsatisfiableError
	if !errors.As(err, &u) {
		t.Fatalf("err = %v, want UnsatisfiableError for corrupting + non-blocking", err)
	}
}

func TestCorruptingFailuresWithAtlas(t *testing.T) {
	p := mustPlan(t, Requirements{
		Tolerate:  []Failure{ProcessCrash},
		Mode:      Corrupting,
		Isolation: MutexBased,
	}, NVRAMMachine())
	if p.Recovery != RecoveryRollback {
		t.Fatal("corrupting failures need rollback recovery")
	}
}

// --- The Table-1 configurations: Atlas TSP vs non-TSP on one machine ---

func TestAtlasTSPVersusNonTSPOverheadOrdering(t *testing.T) {
	req := Requirements{
		Tolerate:  []Failure{ProcessCrash, KernelPanic, PowerOutage},
		Isolation: MutexBased,
	}
	tspPlan := mustPlan(t, req, NVRAMMachine())
	hwNoTSP := NVRAMMachine()
	hwNoTSP.PanicFlush = false
	hwNoTSP.Energy = EnergyNone
	nonTSPPlan := mustPlan(t, req, hwNoTSP)

	if !tspPlan.TSP || nonTSPPlan.TSP {
		t.Fatalf("TSP flags: %v/%v, want true/false", tspPlan.TSP, nonTSPPlan.TSP)
	}
	// The Table-1 machines are NVRAMMachines: TSP there is Atlas's log-only mode.
	if tspPlan.Overhead != OverheadLogging {
		t.Fatalf("TSP overhead = %v, want logging (Atlas TSP mode)", tspPlan.Overhead)
	}
	if tspPlan.Overhead >= nonTSPPlan.Overhead {
		t.Fatalf("TSP overhead %v must be strictly below non-TSP %v",
			tspPlan.Overhead, nonTSPPlan.Overhead)
	}
}

// --- Full matrix smoke test ---

func TestPlanMatrixAllCombinationsEitherPlanOrUnsatisfiable(t *testing.T) {
	hws := map[string]Hardware{
		"desktop":    ConventionalDesktop(),
		"server-ups": ConventionalServerUPS(),
		"nvdimm":     NVDIMMServer(),
		"nvram":      NVRAMMachine(),
		"legacy":     DiskOnlyLegacy(),
		"geo":        GeoReplicated(),
		"bare":       {},
	}
	for name, hw := range hws {
		for _, iso := range []Isolation{NonBlocking, MutexBased} {
			for _, mode := range []Mode{FailStop, Corrupting} {
				for _, f := range AllFailures() {
					req := Requirements{Tolerate: []Failure{f}, Mode: mode, Isolation: iso}
					p, err := DerivePlan(req, hw)
					if err != nil {
						var u *UnsatisfiableError
						if !errors.As(err, &u) {
							t.Errorf("%s/%v/%v/%v: unexpected error type %v", name, iso, mode, f, err)
						}
						continue
					}
					// Structural sanity of every produced plan.
					if p.Rescue == nil {
						t.Errorf("%s/%v/%v/%v: nil rescue map", name, iso, mode, f)
					}
					if p.TSP && p.Overhead >= OverheadLoggingFlush {
						t.Errorf("%s/%v/%v/%v: TSP plan with overhead %v", name, iso, mode, f, p.Overhead)
					}
					if iso == MutexBased && !hasAction(p.Runtime, ActionUndoLog) {
						t.Errorf("%s/%v/%v/%v: mutex-based plan without undo log", name, iso, mode, f)
					}
					if s := p.String(); !strings.Contains(s, "overhead") {
						t.Errorf("%s: Plan.String() malformed: %q", name, s)
					}
				}
			}
		}
	}
}

// --- Requirements validation ---

func TestRequirementsValidate(t *testing.T) {
	if err := (Requirements{}).Validate(); err == nil {
		t.Fatal("empty requirements accepted")
	}
	if err := (Requirements{Tolerate: []Failure{ProcessCrash, ProcessCrash}}).Validate(); err == nil {
		t.Fatal("duplicate failure accepted")
	}
	if err := (Requirements{Tolerate: []Failure{Failure(99)}}).Validate(); err == nil {
		t.Fatal("unknown failure accepted")
	}
	if err := (Requirements{Tolerate: []Failure{ProcessCrash}}).Validate(); err != nil {
		t.Fatalf("valid requirements rejected: %v", err)
	}
}

func TestTolerates(t *testing.T) {
	r := Requirements{Tolerate: []Failure{ProcessCrash, PowerOutage}}
	if !r.Tolerates(ProcessCrash) || r.Tolerates(KernelPanic) {
		t.Fatal("Tolerates misreports membership")
	}
}

// --- Safety lattice spot checks ---

func TestSafetyLattice(t *testing.T) {
	cases := []struct {
		hw   Hardware
		loc  Location
		f    Failure
		safe bool
	}{
		{ConventionalDesktop(), DRAM, ProcessCrash, true},     // kernel persistence
		{DiskOnlyLegacy(), DRAM, ProcessCrash, false},         // private memory
		{ConventionalDesktop(), CPUCache, ProcessCrash, true}, // coherence + eviction
		{DiskOnlyLegacy(), CPUCache, ProcessCrash, false},
		{ConventionalDesktop(), CPURegisters, ProcessCrash, false},
		{ConventionalDesktop(), DRAM, KernelPanic, false},
		{ConventionalDesktop(), DRAM, PowerOutage, false},
		{NVRAMMachine(), NVRAM, PowerOutage, true},
		{NVDIMMServer(), NVDIMM, PowerOutage, true},
		{ConventionalDesktop(), BlockStorage, PowerOutage, true},
		{ConventionalDesktop(), BlockStorage, SiteDisaster, false}, // Section 3: disks vulnerable to catastrophes
		{GeoReplicated(), RemoteReplica, SiteDisaster, true},
	}
	for i, c := range cases {
		if got := c.hw.Safe(c.loc, c.f); got != c.safe {
			t.Errorf("case %d: Safe(%v, %v) = %v, want %v", i, c.loc, c.f, got, c.safe)
		}
	}
}

// --- Stringers ---

func TestStringers(t *testing.T) {
	for _, f := range AllFailures() {
		if strings.HasPrefix(f.String(), "Failure(") {
			t.Errorf("missing name for %d", int(f))
		}
	}
	for _, l := range AllLocations() {
		if strings.HasPrefix(l.String(), "Location(") {
			t.Errorf("missing name for location %d", int(l))
		}
	}
	for _, a := range []Action{ActionUndoLog, ActionFlushLogEntry, ActionFlushDataAtCommit,
		ActionSyncWriteStorage, ActionSyncReplicate, ActionRescueFlushCaches,
		ActionRescueSaveDRAM, ActionRescueWriteHeapToStorage, ActionKernelPersistence} {
		if strings.HasPrefix(a.String(), "Action(") {
			t.Errorf("missing name for action %d", int(a))
		}
	}
	for _, o := range []Overhead{OverheadZero, OverheadLogging, OverheadLoggingFlush, OverheadSyncIO} {
		if strings.HasPrefix(o.String(), "Overhead(") {
			t.Errorf("missing name for overhead %d", int(o))
		}
	}
	if FailStop.String() == Corrupting.String() {
		t.Error("mode stringer broken")
	}
	if NonBlocking.String() == MutexBased.String() {
		t.Error("isolation stringer broken")
	}
	for _, m := range []MemoryTech{MemDRAM, MemNVDIMM, MemNVRAM} {
		if strings.HasPrefix(m.String(), "MemoryTech(") {
			t.Errorf("missing name for memory tech %d", int(m))
		}
	}
	for _, e := range []EnergyReserve{EnergyNone, EnergyPSUResidual, EnergySupercap, EnergyUPS} {
		if strings.HasPrefix(e.String(), "EnergyReserve(") {
			t.Errorf("missing name for energy reserve %d", int(e))
		}
	}
}
