// Package platform defines named hardware profiles for the simulated
// experiments. The paper's Table 1 reports two machines — an "ENVY
// Phoenix 800" desktop (i7-4770, 8 hardware threads, 32 GB) and a "DL580
// Gen8" server (E7-4890v2, 30 hardware threads per socket, 1.5 TB). The
// absolute speed of the host running this simulation is irrelevant; what
// a profile preserves is the *relative* cost structure that shapes the
// results: how expensive a synchronous cache-line flush is compared to
// ordinary memory operations, what a cache miss costs, and how many
// worker threads the experiment pins.
package platform

import "fmt"

// Profile is a named simulated machine.
type Profile struct {
	// Name identifies the profile in reports ("desktop", "server").
	Name string

	// Description summarizes the machine the profile stands in for.
	Description string

	// Threads is the worker-thread count the paper used on this machine
	// (8 in both Table 1 rows).
	Threads int

	// FlushCost is the simulated latency of one synchronous cache-line
	// flush, in nvm spin units. It is the knob behind the TSP-vs-non-TSP
	// gap: non-TSP Atlas pays it once per log-record line and once per
	// dirtied data line per OCS.
	FlushCost int

	// MissCost and MissLines parameterize the device's cache-latency
	// model (see nvm.Config): misses spin MissCost, the hot set is
	// MissLines cache lines. The miss/hit asymmetry is what gives
	// pointer-chasing map operations their realistic cost relative to
	// sequential log appends.
	MissCost  int
	MissLines int
}

// String implements fmt.Stringer.
func (p Profile) String() string {
	return fmt.Sprintf("%s (%s; %d threads, flushCost=%d)", p.Name, p.Description, p.Threads, p.FlushCost)
}

// Desktop models the Table-1 "ENVY Phoenix 800" class machine: fewer
// cores at a higher clock, with a moderately priced flush.
func Desktop() Profile {
	return Profile{
		Name:        "desktop",
		Description: "ENVY Phoenix 800 class: i7-4770 @ 3.4 GHz, 8 HW threads, 32 GB",
		Threads:     8,
		FlushCost:   16,
		MissCost:    700,
		MissLines:   8192,
	}
}

// Server models the Table-1 "DL580 Gen8" class machine: many slower
// cores and a pricier flush path (larger cache hierarchy, coherence
// across a big socket).
func Server() Profile {
	return Profile{
		Name:        "server",
		Description: "DL580 Gen8 class: E7-4890v2 @ 2.8 GHz, 30 HW threads/socket, 1.5 TB",
		Threads:     8, // the paper pins 8 workers on one socket
		FlushCost:   80,
		MissCost:    2000,
		MissLines:   8192,
	}
}

// Unit is a profile for unit tests: free flushes, no miss model, fully
// deterministic.
func Unit() Profile {
	return Profile{
		Name:        "unit",
		Description: "deterministic unit-test machine",
		Threads:     4,
		FlushCost:   0,
	}
}

// All returns the profiles experiments iterate over.
func All() []Profile { return []Profile{Desktop(), Server()} }

// ByName returns the named profile.
func ByName(name string) (Profile, error) {
	for _, p := range append(All(), Unit()) {
		if p.Name == name {
			return p, nil
		}
	}
	return Profile{}, fmt.Errorf("platform: unknown profile %q", name)
}
