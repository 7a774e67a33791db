// Package harness implements the paper's Section 5 experimental
// methodology: the two-range map workload, its correctness invariants
// (Equations 1 and 2), throughput measurement for the four Table-1
// variants, and the fault-injection campaign with a recovery observer
// that verifies consistent recovery after every crash.
package harness

import (
	"errors"
	"fmt"
	"time"

	"tsp/internal/atlas"
	"tsp/internal/platform"
)

// Variant is one of the four Table-1 configurations.
type Variant int

const (
	// MutexNoAtlas: the unfortified mutex-based map ("no Atlas").
	MutexNoAtlas Variant = iota
	// MutexAtlasTSP: Atlas with undo logging only ("log only") — the TSP
	// configuration.
	MutexAtlasTSP
	// MutexAtlasNonTSP: Atlas with logging and synchronous flushing
	// ("log + flush") — the non-TSP configuration.
	MutexAtlasNonTSP
	// NonBlocking: the lock-free skip list, no fortification whatsoever.
	NonBlocking
)

// String implements fmt.Stringer, matching the Table-1 column names.
func (v Variant) String() string {
	switch v {
	case MutexNoAtlas:
		return "mutex/no-atlas"
	case MutexAtlasTSP:
		return "mutex/log-only"
	case MutexAtlasNonTSP:
		return "mutex/log+flush"
	case NonBlocking:
		return "non-blocking"
	default:
		return fmt.Sprintf("Variant(%d)", int(v))
	}
}

// AllVariants lists the Table-1 columns in presentation order.
func AllVariants() []Variant {
	return []Variant{MutexNoAtlas, MutexAtlasTSP, MutexAtlasNonTSP, NonBlocking}
}

// AtlasMode maps the variant to its runtime mode (meaningless for
// NonBlocking).
func (v Variant) AtlasMode() atlas.Mode {
	switch v {
	case MutexAtlasTSP:
		return atlas.ModeTSP
	case MutexAtlasNonTSP:
		return atlas.ModeNonTSP
	default:
		return atlas.ModeOff
	}
}

// Config parameterizes one experiment run.
type Config struct {
	// Variant selects the map implementation and fortification.
	Variant Variant

	// Threads is the worker count T. Each worker owns two counters in
	// the low key range L.
	Threads int

	// HighKeys is |H|, the size of the upper key range hit by the
	// random increments.
	HighKeys int

	// Buckets and BucketsPerMutex shape the mutex-based map (ignored by
	// NonBlocking). Defaults: 1<<13 buckets, 1000 buckets/mutex.
	Buckets         int
	BucketsPerMutex int

	// DeviceWords sizes the simulated NVM. Default 1<<22.
	DeviceWords int

	// FlushCost, MissCost and MissLines come from a platform profile
	// (see internal/platform).
	FlushCost int
	MissCost  int
	MissLines int

	// Duration bounds throughput runs; crash runs use CrashAfter.
	Duration time.Duration

	// Seed makes workload randomness reproducible.
	Seed int64
}

// FromProfile fills machine-dependent fields from a platform profile.
func (c Config) FromProfile(p platform.Profile) Config {
	c.Threads = p.Threads
	c.FlushCost = p.FlushCost
	c.MissCost = p.MissCost
	c.MissLines = p.MissLines
	return c
}

func (c *Config) fillDefaults() {
	if c.Threads == 0 {
		c.Threads = 8
	}
	if c.HighKeys == 0 {
		c.HighKeys = 1 << 14
	}
	if c.Buckets == 0 {
		// With the paper's 1000-buckets-per-mutex striping, the bucket
		// count sets the lock count; 2^17 buckets gives ~131 stripe
		// locks, keeping 8 threads mostly uncontended as the paper's
		// "moderate-grain locking" intends.
		c.Buckets = 1 << 17
	}
	if c.BucketsPerMutex == 0 {
		c.BucketsPerMutex = 1000
	}
	if c.DeviceWords == 0 {
		c.DeviceWords = 1 << 22
	}
	if c.Duration == 0 {
		c.Duration = 200 * time.Millisecond
	}
}

// Validate rejects malformed configurations.
func (c Config) Validate() error {
	if c.Variant < MutexNoAtlas || c.Variant > NonBlocking {
		return fmt.Errorf("harness: unknown variant %d", int(c.Variant))
	}
	if c.Threads < 1 {
		return errors.New("harness: Threads must be positive")
	}
	if c.HighKeys < 1 {
		return errors.New("harness: HighKeys must be positive")
	}
	if c.DeviceWords < 1<<12 {
		return errors.New("harness: DeviceWords too small")
	}
	return nil
}

// Key-space layout (Section 5.1): the low range L holds two private
// counters per thread; the high range H starts right above it.

// KeyC1 returns thread t's first counter key (c1,t).
func KeyC1(t int) uint64 { return uint64(2 * t) }

// KeyC2 returns thread t's second counter key (c2,t).
func KeyC2(t int) uint64 { return uint64(2*t + 1) }

// HighBase returns the first key of the high range H for T threads.
func HighBase(threads int) uint64 { return uint64(2 * threads) }
