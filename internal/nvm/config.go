package nvm

import (
	"errors"
	"fmt"
	"time"

	"tsp/internal/telemetry"
)

// Config describes the simulated memory hierarchy.
type Config struct {
	// Words is the device size in 8-byte words.
	Words int

	// LineWords is the cache-line size in words, a power of two (the
	// line of an address is a shift). The default of 8 models the
	// ubiquitous 64-byte line.
	LineWords int

	// FlushCost is the simulated latency of one synchronous line flush,
	// in spin units (see spin.go). It is charged by FlushWord/FlushRange
	// — the operations a non-TSP design issues on the critical path — but
	// not by crash-time rescue or background eviction. Zero means flushes
	// are free, which is useful in unit tests.
	FlushCost int

	// MissCost is the simulated latency of a memory access that misses
	// the CPU cache, in spin units. The device models cache latency with
	// a direct-mapped tag table of MissLines lines: accesses to recently
	// touched lines are free (cache hits), others spin MissCost and
	// install the line. Zero disables the model (every access free),
	// which is right for unit tests; benchmarks enable it because the
	// relative cost of pointer-chasing map operations versus sequential
	// log appends — the ratio the paper's Table 1 measures — comes from
	// exactly this asymmetry on real hardware.
	MissCost int

	// MissLines is the latency model's tag-table size in cache lines
	// (rounded up to a power of two; default 8192 lines = 512 KB).
	MissLines int

	// Evictor configures background write-back of dirty lines, modelling
	// cache replacement. A zero value disables it.
	Evictor EvictorConfig

	// Telemetry, when non-nil, is the counter section the device reports
	// into — typically a stack registry's Device section, so the device's
	// counters aggregate with the layers above it. When nil the device
	// allocates a private section (the historical always-on behavior)
	// unless DisableStats is set.
	Telemetry *telemetry.DeviceStats

	// DisableStats turns counting off entirely: the device holds a nil
	// telemetry section, so a published tally is dropped at the cost of
	// one branch. Stats() then reads as all zeros.
	DisableStats bool
}

// EvictorConfig controls the background evictor goroutine.
type EvictorConfig struct {
	// Interval between eviction sweeps. Zero disables the evictor.
	Interval time.Duration

	// LinesPerSweep bounds how many dirty lines one sweep writes back.
	LinesPerSweep int
}

// Enabled reports whether this configuration turns the evictor on.
func (e EvictorConfig) Enabled() bool { return e.Interval > 0 && e.LinesPerSweep > 0 }

// DefaultLineWords is the cache-line size used when Config.LineWords is 0.
const DefaultLineWords = 8

// DefaultMissLines is the latency model's tag-table size when
// Config.MissLines is 0 and the model is enabled.
const DefaultMissLines = 8192

func (c *Config) fillDefaults() {
	if c.LineWords == 0 {
		c.LineWords = DefaultLineWords
	}
	if c.MissLines == 0 {
		c.MissLines = DefaultMissLines
	}
	// Round MissLines up to a power of two for mask indexing.
	n := 1
	for n < c.MissLines {
		n <<= 1
	}
	c.MissLines = n
}

// Validate checks the configuration for internal consistency.
func (c Config) Validate() error {
	if c.Words <= 0 {
		return errors.New("Words must be positive")
	}
	if c.LineWords <= 0 || c.LineWords&(c.LineWords-1) != 0 {
		return errors.New("LineWords must be a positive power of two")
	}
	if c.FlushCost < 0 {
		return errors.New("FlushCost must be non-negative")
	}
	if c.MissCost < 0 {
		return errors.New("MissCost must be non-negative")
	}
	if c.MissLines < 0 {
		return errors.New("MissLines must be non-negative")
	}
	if c.Evictor.Interval < 0 {
		return errors.New("Evictor.Interval must be non-negative")
	}
	if c.Evictor.LinesPerSweep < 0 {
		return errors.New("Evictor.LinesPerSweep must be non-negative")
	}
	return nil
}

// String renders the configuration compactly for logs and bench output.
func (c Config) String() string {
	ev := "off"
	if c.Evictor.Enabled() {
		ev = fmt.Sprintf("%v/%d lines", c.Evictor.Interval, c.Evictor.LinesPerSweep)
	}
	return fmt.Sprintf("nvm{%d words, %d-word lines, flushCost=%d, evictor=%s}",
		c.Words, c.LineWords, c.FlushCost, ev)
}
