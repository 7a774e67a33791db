package main

import (
	"encoding/json"
	"os"
	"path/filepath"
)

// maxBurstSpans bounds the bursts of one traced pass written to
// trace.json per connection. Every traced burst feeds the client.*
// timings; only the file is capped, so it stays a few megabytes.
const maxBurstSpans = 2048

// span is one timed interval: who caused it, and which burst it
// belongs to. Times are nanoseconds since the run began.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"` // 0: none
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	Burst   int    `json:"burst,omitempty"` // shared by a burst span and its children; 1-based
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	spans []span
}

func newTracer() *tracer { return &tracer{} }

// add records a span and returns its id.
func (t *tracer) add(parent int, name string, start, end int64, burst int) int {
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, StartNs: start, EndNs: end, Burst: burst})
	return id
}

// addBursts records a traced pass of one connection: a `pass` span over
// its bursts, each burst split at write-return and first reply byte.
func (t *tracer) addBursts(workload string, bursts []burstTimes) {
	if len(bursts) == 0 {
		return
	}
	pass := t.add(0, "pass "+workload, bursts[0].start, bursts[len(bursts)-1].end, 0)
	for i, b := range bursts[:min(len(bursts), maxBurstSpans)] {
		id := t.add(pass, "burst", b.start, b.end, i+1)
		t.add(id, "client.write", b.start, b.wrote, i+1)
		t.add(id, "client.first_byte", b.wrote, b.firstByte, i+1)
		t.add(id, "client.drain", b.firstByte, b.end, i+1)
	}
}

// write stores the spans with the host record that produced them.
func (t *tracer) write(dir string, host map[string]any) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	doc := map[string]any{"host": host, "spans": t.spans}
	data, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace.json"), data, 0o644)
}
