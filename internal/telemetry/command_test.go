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
	if len(want) != NumCommands {
		t.Fatalf("%d commands, want %d", NumCommands, len(want))
	}
	for i := range want {
		if c := Command(i); c.String() != want[i] {
			t.Errorf("command %d = %q, want %q", i, c.String(), want[i])
		}
	}
	if got := Command(200).String(); got != "unknown" {
		t.Errorf("out-of-range command String() = %q", got)
	}
}

func TestCommandLatencyObserveAndSnapshot(t *testing.T) {
	r := &Registry{CmdLatency: &CommandLatency{}}
	cl := r.CmdLatency
	cl.ObserveProto(ProtoNative, CmdGet, 100*time.Nanosecond, 1)
	cl.ObserveProto(ProtoRESP, CmdGet, 200*time.Nanosecond, 1)
	cl.ObserveProto(ProtoInternal, CmdSet, time.Microsecond, 1)
	cl.ObserveProto(ProtoNative, Command(250), time.Second, 1) // dropped, not a panic
	cl.ObserveProto(Protocol(9), CmdGet, time.Second, 1)       // likewise

	// Two instances of one registry: a shard-scoped row sums them.
	src := RegistryRows.Bind(r, r)
	// An unobserved label value renders no series at all.
	for name, want := range map[string]string{
		"cmd_get_count": "4", "cmd_set_count": "2", "cmd_delete_count": "",
		"proto_native_cmd_get_count": "2", "proto_resp_cmd_get_count": "2", "proto_internal_cmd_get_count": "",
	} {
		if got := stat(name, src); got != want {
			t.Errorf("%s = %q, want %q", name, got, want)
		}
	}

	Reset(src)
	if got := stat("cmd_get_count", src); got != "" {
		t.Errorf("cmd_get_count after Reset = %q, want no series", got)
	}
}

func TestCommandLatencyNilSafe(t *testing.T) {
	var cl *CommandLatency
	cl.ObserveProto(ProtoNative, CmdGet, time.Second, 1) // must not panic
	src := RegistryRows.Bind(&Registry{})                // a nil CmdLatency section
	Reset(src)
	if got := stat("op_count", src); got != "0" {
		t.Errorf("nil-section registry op_count = %q, want 0", got)
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
	r.Atlas.AddSection(1, 0, 0)
	r.Heap.IncAlloc()
	r.Map.Puts.Inc()
	r.Server.Sets.Inc()
	r.Server.Batches.Inc()
	r.Server.BatchedOps.Add(8)
	r.Recovery.Recoveries.Inc()
	r.OpLatency.Observe(time.Millisecond)
	r.RecoveryLatency.Observe(time.Millisecond)
	r.CmdLatency.ObserveProto(ProtoInternal, CmdSet, time.Millisecond, 1)
	r.BatchSize.ObserveValue(8)
	r.Generation.Add(3)

	Reset(RegistryRows.Bind(r))

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
	if got := stat("cmd_set_count", RegistryRows.Bind(r)); got != "" {
		t.Errorf("cmd_set_count = %q after Reset, want no series", got)
	}
	if got := r.BatchSize.Snapshot().Count(); got != 0 {
		t.Errorf("BatchSize count = %d after Reset", got)
	}

	// A nil registry, and one with nil sections, Reset as a no-op.
	Reset(RegistryRows.Bind(nil, &Registry{}))
}

// TestWalkIncludesBatchCounters pins the new wire vocabulary.
func TestWalkIncludesBatchCounters(t *testing.T) {
	r := NewRegistry()
	r.Server.Batches.Inc()
	r.Server.BatchedOps.Add(4)
	c := r.Counters()
	if c["server_batches"] != 1 || c["server_batched_ops"] != 4 {
		t.Fatalf("batch counters not in Walk vocabulary: %v", c)
	}
}
