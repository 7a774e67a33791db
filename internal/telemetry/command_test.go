package telemetry

import (
	"testing"
	"time"
)

func TestCommandStrings(t *testing.T) {
	want := []string{
		"get", "set", "incr", "delete", "mget", "mset",
		"zadd", "zget", "zincr", "zdel", "zrange", "zcount",
		"wait", "repl",
	}
	cmds := Commands()
	if len(cmds) != NumCommands {
		t.Fatalf("Commands() returned %d entries, want %d", len(cmds), NumCommands)
	}
	for i, c := range cmds {
		if c.String() != want[i] {
			t.Errorf("command %d = %q, want %q", i, c.String(), want[i])
		}
	}
	if got := Command(200).String(); got != "unknown" {
		t.Errorf("out-of-range command String() = %q", got)
	}
}

func TestCommandLatencyObserveAndSnapshot(t *testing.T) {
	var cl CommandLatency
	cl.Observe(CmdGet, 100*time.Nanosecond)
	cl.Observe(CmdGet, 200*time.Nanosecond)
	cl.Observe(CmdSet, time.Microsecond)
	cl.Observe(Command(250), time.Second) // dropped, not a panic

	if got := cl.Snapshot(CmdGet).Count(); got != 2 {
		t.Errorf("get count = %d, want 2", got)
	}
	if got := cl.Snapshot(CmdSet).Count(); got != 1 {
		t.Errorf("set count = %d, want 1", got)
	}
	if got := cl.Snapshot(CmdDelete).Count(); got != 0 {
		t.Errorf("delete count = %d, want 0", got)
	}
	if got := cl.Snapshot(Command(250)).Count(); got != 0 {
		t.Errorf("out-of-range snapshot count = %d, want 0", got)
	}

	all := cl.SnapshotAll()
	if all[CmdGet].Count() != 2 || all[CmdSet].Count() != 1 {
		t.Errorf("SnapshotAll mismatch: get=%d set=%d", all[CmdGet].Count(), all[CmdSet].Count())
	}

	var merged CommandLatencySnapshot
	merged.Merge(all)
	merged.Merge(all)
	if got := merged[CmdGet].Count(); got != 4 {
		t.Errorf("merged get count = %d, want 4", got)
	}

	cl.Reset()
	if got := cl.Snapshot(CmdGet).Count(); got != 0 {
		t.Errorf("get count after Reset = %d, want 0", got)
	}
}

func TestCommandLatencyNilSafe(t *testing.T) {
	var cl *CommandLatency
	cl.Observe(CmdGet, time.Second) // must not panic
	cl.Reset()
	if got := cl.Snapshot(CmdGet).Count(); got != 0 {
		t.Errorf("nil snapshot count = %d", got)
	}
	if got := cl.SnapshotAll()[CmdSet].Count(); got != 0 {
		t.Errorf("nil SnapshotAll count = %d", got)
	}
}

func TestHistogramObserveValue(t *testing.T) {
	var h Histogram
	for _, v := range []uint64{1, 2, 3, 64} {
		h.ObserveValue(v)
	}
	s := h.Snapshot()
	if got := s.Count(); got != 4 {
		t.Fatalf("count = %d, want 4", got)
	}
	if got := s.Sum; got != 70 {
		t.Fatalf("sum = %d, want 70", got)
	}
	// The p50 of {1,2,3,64} lands in the bit-length-2 bucket: upper
	// bound 3 read back as a plain integer.
	if got := uint64(s.Quantile(0.5)); got != 3 {
		t.Errorf("p50 = %d, want 3", got)
	}
	if got := uint64(s.Max()); got != 127 {
		t.Errorf("max bucket upper = %d, want 127", got)
	}
	var nilH *Histogram
	nilH.ObserveValue(9) // must not panic
}

// TestRegistryReset is the "stats reset" contract: every counter and
// histogram zeroes, but Generation — which identifies the incarnation,
// not the traffic — survives.
func TestRegistryReset(t *testing.T) {
	r := NewRegistry()
	r.Device.AddAccesses(0, 1, 0)
	r.Device.IncFlush()
	r.Atlas.IncLogAppend()
	r.Heap.IncAlloc()
	r.Map.IncPut()
	r.Server.Sets.Inc()
	r.Server.Batches.Inc()
	r.Server.BatchedOps.Add(8)
	r.Server.BatchFallbacks.Inc()
	r.Recovery.Recoveries.Inc()
	r.OpLatency.Observe(time.Millisecond)
	r.RecoveryLatency.Observe(time.Millisecond)
	r.CmdLatency.Observe(CmdSet, time.Millisecond)
	r.BatchSize.ObserveValue(8)
	r.Generation.Add(3)

	r.Reset()

	snap := r.Counters()
	for name, v := range snap {
		if name == "stack_generation" {
			continue
		}
		if v != 0 {
			t.Errorf("%s = %d after Reset, want 0", name, v)
		}
	}
	if got := snap["stack_generation"]; got != 3 {
		t.Errorf("stack_generation = %d after Reset, want 3 (must survive)", got)
	}
	if got := r.OpLatency.Snapshot().Count(); got != 0 {
		t.Errorf("OpLatency count = %d after Reset", got)
	}
	if got := r.RecoveryLatency.Snapshot().Count(); got != 0 {
		t.Errorf("RecoveryLatency count = %d after Reset", got)
	}
	if got := r.CmdLatency.Snapshot(CmdSet).Count(); got != 0 {
		t.Errorf("CmdLatency set count = %d after Reset", got)
	}
	if got := r.BatchSize.Snapshot().Count(); got != 0 {
		t.Errorf("BatchSize count = %d after Reset", got)
	}

	// A nil registry Resets as a no-op.
	var nilReg *Registry
	nilReg.Reset()

	// A registry with nil sections Resets without panicking.
	(&Registry{}).Reset()
}

// TestWalkIncludesBatchCounters pins the new wire vocabulary.
func TestWalkIncludesBatchCounters(t *testing.T) {
	r := NewRegistry()
	r.Server.Batches.Inc()
	r.Server.BatchedOps.Add(4)
	r.Server.BatchFallbacks.Inc()
	c := r.Counters()
	if c["server_batches"] != 1 || c["server_batched_ops"] != 4 || c["server_batch_fallbacks"] != 1 {
		t.Fatalf("batch counters not in Walk vocabulary: %v", c)
	}
}
