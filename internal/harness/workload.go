package harness

import (
	"errors"

	"tsp/internal/atlas"
	"tsp/internal/hashmap"
	"tsp/internal/nvm"
	"tsp/internal/pheap"
	"tsp/internal/skiplist"
	"tsp/internal/stack"
)

// kvStore abstracts the two map implementations behind the operations
// the workload needs. Implementations return ErrTerminated when the
// simulated machine has crashed, so workers wind down like killed
// threads.
type kvStore interface {
	// Set stores v under k as one atomic, isolated operation.
	Set(w *worker, k, v uint64) error
	// Inc adds delta to the value under k, inserting if absent.
	Inc(w *worker, k, delta uint64) error
	// Range visits every key and value of a quiescent store until fn
	// returns false (the recovery observer's read).
	Range(fn func(k, v uint64) bool)
	// VerifyStructure checks implementation-specific invariants on a
	// quiescent store.
	VerifyStructure() error
}

// ErrTerminated reports that a worker observed the crash and stopped,
// mirroring a thread terminated by SIGKILL.
var ErrTerminated = errors.New("harness: worker terminated by crash")

// worker is one simulated application thread.
type worker struct {
	idx      int
	thread   *atlas.Thread // nil for the non-blocking variant
	rngState uint64
	iters    uint64 // completed iterations (volatile, for throughput)
}

// nextRand is a thread-local splitmix64 step.
func (w *worker) nextRand() uint64 {
	w.rngState += 0x9e3779b97f4a7c15
	x := w.rngState
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// --- mutex-based adapter ---

type mutexStore struct {
	m *hashmap.Map
}

func (s *mutexStore) Set(w *worker, k, v uint64) error {
	return s.m.Put(w.thread, k, v)
}

func (s *mutexStore) Inc(w *worker, k, delta uint64) error {
	_, err := s.m.Inc(w.thread, k, delta)
	return err
}

func (s *mutexStore) Range(fn func(k, v uint64) bool) { s.m.Range(fn) }

func (s *mutexStore) VerifyStructure() error {
	_, err := s.m.Verify()
	return err
}

// --- non-blocking adapter ---

type nonBlockingStore struct {
	l *skiplist.List
}

func (s *nonBlockingStore) Set(w *worker, k, v uint64) error {
	_, err := s.l.Put(k, v)
	if errors.Is(err, skiplist.ErrCrashed) {
		return ErrTerminated
	}
	return err
}

func (s *nonBlockingStore) Inc(w *worker, k, delta uint64) error {
	_, err := s.l.Inc(k, delta)
	if errors.Is(err, skiplist.ErrCrashed) {
		return ErrTerminated
	}
	return err
}

func (s *nonBlockingStore) Range(fn func(k, v uint64) bool) { s.l.Range(fn) }

func (s *nonBlockingStore) VerifyStructure() error {
	_, err := s.l.Verify()
	return err
}

// deployment bundles everything a run needs.
type deployment struct {
	cfg   Config
	dev   *nvm.Device
	heap  *pheap.Heap
	rt    *atlas.Runtime // nil for NonBlocking
	store kvStore
}

// deviceConfig collects the machine-dependent device knobs.
func (c Config) deviceConfig() nvm.Config {
	return nvm.Config{
		Words:     c.DeviceWords,
		FlushCost: c.FlushCost,
		MissCost:  c.MissCost,
		MissLines: c.MissLines,
	}
}

// stackOptions maps the harness configuration onto the shared
// stack-construction API used by the mutex-based variants.
func (c Config) stackOptions() []stack.Option {
	return []stack.Option{
		stack.WithDeviceConfig(c.deviceConfig()),
		stack.WithMode(c.Variant.AtlasMode()),
		stack.WithMaxThreads(c.Threads),
		stack.WithLogEntries(1 << 10),
		stack.WithBuckets(c.Buckets, c.BucketsPerMutex),
	}
}

// build constructs a fresh device, heap and store per the configuration
// and makes the initialized (pre-workload) state durable.
func build(cfg Config) (*deployment, error) {
	cfg.fillDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	switch cfg.Variant {
	case NonBlocking:
		// The non-blocking variant has no runtime and no map: a
		// heap-only stack carries the skip list directly.
		st, err := stack.New(stack.HeapOnly(), stack.WithDeviceConfig(cfg.deviceConfig()))
		if err != nil {
			return nil, err
		}
		l, err := skiplist.New(st.Heap, skiplist.DefaultLevels)
		if err != nil {
			return nil, err
		}
		st.Heap.SetRoot(l.Ptr())
		// Setup is not part of the crash window: make it durable.
		st.Dev.FlushAll()
		return &deployment{cfg: cfg, dev: st.Dev, heap: st.Heap, store: &nonBlockingStore{l: l}}, nil
	default:
		st, err := stack.New(cfg.stackOptions()...)
		if err != nil {
			return nil, err
		}
		return &deployment{cfg: cfg, dev: st.Dev, heap: st.Heap, rt: st.RT, store: &mutexStore{m: st.Map}}, nil
	}
}

// newWorker registers worker idx with the deployment.
func (d *deployment) newWorker(idx int) (*worker, error) {
	w := &worker{idx: idx, rngState: uint64(d.cfg.Seed)*0x9e3779b97f4a7c15 + uint64(idx)<<32}
	if d.rt != nil {
		th, err := d.rt.NewThread()
		if err != nil {
			return nil, err
		}
		w.thread = th
	}
	return w, nil
}

// iterate performs one workload iteration for worker w (Section 5.1):
// set c1 to i, increment a uniformly random high key, set c2 to i. Each
// step is an atomic, isolated operation on the store.
func (d *deployment) iterate(w *worker, i uint64) error {
	t := w.idx
	if err := d.store.Set(w, KeyC1(t), i); err != nil {
		return err
	}
	hk := HighBase(d.cfg.Threads) + w.nextRand()%uint64(d.cfg.HighKeys)
	if err := d.store.Inc(w, hk, 1); err != nil {
		return err
	}
	if err := d.store.Set(w, KeyC2(t), i); err != nil {
		return err
	}
	w.iters++
	return nil
}
