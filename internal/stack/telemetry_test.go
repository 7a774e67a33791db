package stack

import (
	"strings"
	"testing"
	"time"

	"tsp/internal/nvm"
	"tsp/internal/telemetry"
)

// TestTelemetryWiredThroughLayers checks that one registry observes
// every layer of a working stack.
func TestTelemetryWiredThroughLayers(t *testing.T) {
	s, err := New(WithDeviceWords(1 << 18))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if s.Tel == nil {
		t.Fatal("New built no registry by default")
	}
	th, err := s.RT.NewThread()
	if err != nil {
		t.Fatalf("thread: %v", err)
	}
	for k := uint64(0); k < 10; k++ {
		if err := s.Map.Put(th, k, k); err != nil {
			t.Fatalf("put: %v", err)
		}
	}
	if _, _, err := s.Map.Get(th, 3); err != nil {
		t.Fatalf("get: %v", err)
	}
	c := s.Tel.Counters()
	for _, name := range []string{"nvm_stores", "nvm_loads", "atlas_log_appends", "atlas_ocs_commits", "heap_allocs", "map_puts", "map_gets"} {
		if c[name] == 0 {
			t.Errorf("%s = 0, want > 0 (snapshot: %v)", name, c)
		}
	}
	if got := c["stack_generation"]; got != 1 {
		t.Errorf("stack_generation = %d, want 1", got)
	}
	if got := c["recovery_count"]; got != 0 {
		t.Errorf("recovery_count = %d, want 0 before any crash", got)
	}
}

// TestTelemetryContinuityAcrossCrashReattach is the registry's central
// contract: the SAME registry instruments the recovered stack, counters
// accumulate across the crash (no reset), the generation counter tells
// incarnations apart, and the Atlas recovery report's counts surface in
// the recovery section.
func TestTelemetryContinuityAcrossCrashReattach(t *testing.T) {
	s, err := New(WithDeviceWords(1 << 18))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	th, err := s.RT.NewThread()
	if err != nil {
		t.Fatalf("thread: %v", err)
	}
	for k := uint64(0); k < 50; k++ {
		if err := s.Map.Put(th, k, k+1); err != nil {
			t.Fatalf("put: %v", err)
		}
	}
	before := s.Tel.Counters()
	if before["nvm_rescues"] != 0 {
		t.Fatalf("nvm_rescues = %d before crash", before["nvm_rescues"])
	}
	// The registry's histogram sections (the cache server's batch-size
	// and per-command planes included) must ride the same continuity.
	s.Tel.CmdLatency.ObserveProto(telemetry.ProtoInternal, telemetry.CmdSet, time.Millisecond)
	s.Tel.BatchSize.ObserveValue(7)

	s2, err := s.CrashReattach(nvm.CrashOptions{RescueFraction: 1})
	if err != nil {
		t.Fatalf("CrashReattach: %v", err)
	}
	if s2.Tel != s.Tel {
		t.Fatal("CrashReattach built a different registry; counters severed")
	}
	after := s2.Tel.Counters()

	// Counters survived and kept going: pre-crash stores are still
	// visible, and recovery's own device traffic only added to them.
	if after["nvm_stores"] < before["nvm_stores"] {
		t.Fatalf("nvm_stores went backwards across crash: %d -> %d", before["nvm_stores"], after["nvm_stores"])
	}
	if got := after["nvm_rescues"]; got != 1 {
		t.Errorf("nvm_rescues = %d, want 1 (TSP rescue at crash)", got)
	}
	if got := after["stack_generation"]; got != 2 {
		t.Errorf("stack_generation = %d, want 2 after one reattach", got)
	}
	if got := after["recovery_count"]; got != 1 {
		t.Errorf("recovery_count = %d, want 1", got)
	}
	// The recovery report's log-scan counts surface in the registry,
	// consistent with the report the stack returned.
	if want := uint64(s2.Recovery.EntriesScanned); after["recovery_entries_scanned"] != want {
		t.Errorf("recovery_entries_scanned = %d, want %d (report)", after["recovery_entries_scanned"], want)
	}
	if want := uint64(s2.Recovery.OCSes); after["recovery_ocses"] != want {
		t.Errorf("recovery_ocses = %d, want %d (report)", after["recovery_ocses"], want)
	}
	var text strings.Builder
	telemetry.Text(&text, telemetry.RegistryRows.Bind(s2.Tel))
	if !strings.Contains(text.String(), "STAT cmd_set_count 1\r\n") {
		t.Errorf("cmd latency count across crash is not 1:\n%s", text.String())
	}
	if got := s2.Tel.BatchSize.Snapshot().Count(); got != 1 {
		t.Errorf("batch size count = %d across crash, want 1", got)
	}

	// A second crash/reattach keeps accumulating.
	s3, err := s2.CrashReattach(nvm.CrashOptions{RescueFraction: 1})
	if err != nil {
		t.Fatalf("second CrashReattach: %v", err)
	}
	final := s3.Tel.Counters()
	if got := final["recovery_count"]; got != 2 {
		t.Errorf("recovery_count = %d after two crashes, want 2", got)
	}
	if got := final["stack_generation"]; got != 3 {
		t.Errorf("stack_generation = %d after two crashes, want 3", got)
	}
}

// TestWithTelemetryInjectsSharedRegistry: a caller-owned registry (the
// cache server's per-shard pattern) is adopted as-is.
func TestWithTelemetryInjectsSharedRegistry(t *testing.T) {
	reg := telemetry.NewRegistry()
	s, err := New(WithDeviceWords(1<<16), WithTelemetry(reg))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if s.Tel != reg {
		t.Fatal("stack did not adopt the injected registry")
	}
	if got := s.Dev.Telemetry(); got != reg.Device {
		t.Fatal("device not wired to the injected registry's section")
	}
}

// TestWithoutTelemetryDisablesEverything: the explicit off switch wires
// nil sections through every layer and Device.Stats reads zero.
func TestWithoutTelemetryDisablesEverything(t *testing.T) {
	s, err := New(WithDeviceWords(1<<16), WithoutTelemetry())
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if s.Tel != nil {
		t.Fatal("Tel should be nil WithoutTelemetry")
	}
	if s.Dev.Telemetry() != nil {
		t.Fatal("device still counting WithoutTelemetry")
	}
	th, err := s.RT.NewThread()
	if err != nil {
		t.Fatalf("thread: %v", err)
	}
	if err := s.Map.Put(th, 1, 2); err != nil {
		t.Fatalf("put: %v", err)
	}
	if got := s.Dev.Stats(); got != (nvm.StatsSnapshot{}) {
		t.Fatalf("disabled device stats = %+v, want zeros", got)
	}
	// The disabled stack still recovers normally.
	s2, err := s.CrashReattach(nvm.CrashOptions{RescueFraction: 1})
	if err != nil {
		t.Fatalf("CrashReattach: %v", err)
	}
	if s2.Tel != nil {
		t.Fatal("reattached stack grew a registry despite WithoutTelemetry")
	}
}
