package nvm

import (
	"sync"
	"time"
)

// evictor models cache replacement: a background goroutine that writes
// dirty lines back to the persisted image at a configurable rate. Its
// existence is what makes the non-TSP hazard realistic — at any crash
// instant, an arbitrary *subset* of recent stores has already reached
// durable media, so recovery cannot rely on either "all lost" or "all
// kept" without an explicit mechanism.
type evictor struct {
	d       *Device
	cfg     EvictorConfig
	stop    chan struct{}
	done    chan struct{}
	startMu sync.Mutex
	started bool
	stopped bool
	next    uint64 // round-robin scan position
}

func newEvictor(d *Device, cfg EvictorConfig) *evictor {
	return &evictor{d: d, cfg: cfg, stop: make(chan struct{}), done: make(chan struct{})}
}

// StartEvictor launches the background evictor if one is configured.
// Calling it on a device without an evictor, or twice, is a no-op.
func (d *Device) StartEvictor() {
	e := d.evictor
	if e == nil {
		return
	}
	e.startMu.Lock()
	defer e.startMu.Unlock()
	if e.started || e.stopped {
		return
	}
	e.started = true
	go e.run()
}

// StopEvictor halts the background evictor and waits for it to exit. It
// is safe to call even if the evictor was never started or configured,
// and safe to call more than once.
func (d *Device) StopEvictor() {
	e := d.evictor
	if e == nil {
		return
	}
	e.startMu.Lock()
	wasStarted := e.started
	if !e.stopped {
		e.stopped = true
		close(e.stop)
	}
	e.startMu.Unlock()
	if wasStarted {
		<-e.done
	}
}

func (e *evictor) run() {
	defer close(e.done)
	t := time.NewTicker(e.cfg.Interval)
	defer t.Stop()
	for {
		select {
		case <-e.stop:
			return
		case <-t.C:
			e.sweep()
		}
	}
}

// sweep writes back up to LinesPerSweep dirty lines, scanning round-robin
// from where the last sweep stopped — [next, lines) and then [0, next) —
// so every line eventually gets evicted under sustained dirtying. A
// sweep that runs out of dirty lines first leaves next where it was. A
// crashed machine's cache controller is dead: a sweep after a crash
// writes nothing back, so the crash's rescue fraction stays exact even
// before its caller gets to StopEvictor.
func (e *evictor) sweep() {
	d := e.d
	if d.crashed.Load() {
		return
	}
	start, written := e.next, uint64(0)
	visit := func(from, to uint64) {
		for line := d.nextDirty(from); line < to && written < uint64(e.cfg.LinesPerSweep); line = d.nextDirty(line + 1) {
			d.writeBack(line)
			written++
			e.next = (line + 1) % d.lines
		}
	}
	visit(start, d.lines)
	visit(0, start)
	if written < uint64(e.cfg.LinesPerSweep) {
		e.next = start
	}
	d.tel.AddWritebacks(written)
}
