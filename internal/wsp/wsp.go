// Package wsp models Whole System Persistence (Narayanan & Hodson,
// ASPLOS 2012), the paper's flagship example of a Timely Sufficient
// Persistence design for power outages (Section 3): a two-stage rescue
// that first flushes CPU registers and caches into DRAM using the
// residual energy stored in the system power supply, then evacuates DRAM
// into flash using supercapacitor energy — eliminating all failure-free
// overhead.
//
// The model answers the question a TSP designer must ask before trusting
// procrastination: is there enough stored energy to run the rescue to
// completion once the failure gives notice? It also quantifies the
// paper's Section 2 observation that flushing caches to memory costs
// orders of magnitude less time and energy than evacuating DRAM to block
// storage — the asymmetry that makes NVM-era TSP designs so attractive.
package wsp

import (
	"errors"
	"fmt"
	"time"
)

// Machine describes the volatile state that must be rescued.
type Machine struct {
	// Cores is the CPU core count.
	Cores int
	// RegisterBytesPerCore is the architectural + SIMD register file
	// size that must be saved per core (a few KB).
	RegisterBytesPerCore int64
	// CacheBytes is the total CPU cache capacity (dirty lines are not
	// tracked; the rescue conservatively flushes it all, as WSP does).
	CacheBytes int64
	// DRAMBytes is the installed DRAM that stage two must evacuate.
	DRAMBytes int64
}

// Validate rejects nonsensical machines.
func (m Machine) Validate() error {
	if m.Cores < 1 {
		return errors.New("wsp: Cores must be positive")
	}
	if m.RegisterBytesPerCore < 0 || m.CacheBytes < 0 || m.DRAMBytes < 0 {
		return errors.New("wsp: sizes must be non-negative")
	}
	return nil
}

// Energy describes the stored energy available to the two rescue stages.
type Energy struct {
	// PSUResidualJoules is the energy held in the power supply's bulk
	// capacitors after utility power is lost — stage one's budget
	// (typically well under a joule of usable headroom at the rail, a
	// few ms of full-system draw).
	PSUResidualJoules float64
	// SupercapJoules is the supercapacitor bank's energy — stage two's
	// budget.
	SupercapJoules float64
}

// Rates describes the rescue datapath.
type Rates struct {
	// FlushBytesPerSec is the register/cache-to-DRAM flush bandwidth.
	FlushBytesPerSec float64
	// FlushWatts is the system power draw during stage one.
	FlushWatts float64
	// SaveBytesPerSec is the DRAM-to-flash bandwidth of stage two.
	SaveBytesPerSec float64
	// SaveWatts is the system power draw during stage two (DRAM in
	// self-refresh plus the flash controllers; the cores are halted).
	SaveWatts float64
}

// Validate rejects nonsensical rates.
func (r Rates) Validate() error {
	if r.FlushBytesPerSec <= 0 || r.SaveBytesPerSec <= 0 {
		return errors.New("wsp: bandwidths must be positive")
	}
	if r.FlushWatts <= 0 || r.SaveWatts <= 0 {
		return errors.New("wsp: power draws must be positive")
	}
	return nil
}

// StageResult evaluates one rescue stage.
type StageResult struct {
	Bytes        int64
	Time         time.Duration
	EnergyNeeded float64 // joules
	EnergyBudget float64 // joules
	Feasible     bool
}

// Margin returns the energy headroom ratio (budget/needed); +Inf when
// nothing is needed.
func (s StageResult) Margin() float64 {
	if s.EnergyNeeded == 0 {
		return 1e308
	}
	return s.EnergyBudget / s.EnergyNeeded
}

// String renders the stage for reports.
func (s StageResult) String() string {
	verdict := "FEASIBLE"
	if !s.Feasible {
		verdict = "INFEASIBLE"
	}
	return fmt.Sprintf("%d bytes in %v, %.3f J of %.3f J -> %s",
		s.Bytes, s.Time.Round(time.Microsecond), s.EnergyNeeded, s.EnergyBudget, verdict)
}

// Result is the full two-stage evaluation.
type Result struct {
	Stage1 StageResult // registers + caches -> DRAM on PSU residual
	Stage2 StageResult // DRAM -> flash on supercapacitor
}

// Feasible reports whether the whole rescue completes within budget.
func (r Result) Feasible() bool { return r.Stage1.Feasible && r.Stage2.Feasible }

// TotalTime is the end-to-end rescue latency.
func (r Result) TotalTime() time.Duration { return r.Stage1.Time + r.Stage2.Time }

// String renders the evaluation.
func (r Result) String() string {
	return fmt.Sprintf("stage1: %s\nstage2: %s\ntotal: %v, feasible: %v",
		r.Stage1, r.Stage2, r.TotalTime().Round(time.Microsecond), r.Feasible())
}

// Evaluate runs the two-stage feasibility analysis.
func Evaluate(m Machine, e Energy, r Rates) (Result, error) {
	if err := m.Validate(); err != nil {
		return Result{}, err
	}
	if err := r.Validate(); err != nil {
		return Result{}, err
	}
	if e.PSUResidualJoules < 0 || e.SupercapJoules < 0 {
		return Result{}, errors.New("wsp: energies must be non-negative")
	}
	var res Result

	s1Bytes := int64(m.Cores)*m.RegisterBytesPerCore + m.CacheBytes
	s1Time := float64(s1Bytes) / r.FlushBytesPerSec
	res.Stage1 = StageResult{
		Bytes:        s1Bytes,
		Time:         time.Duration(s1Time * float64(time.Second)),
		EnergyNeeded: s1Time * r.FlushWatts,
		EnergyBudget: e.PSUResidualJoules,
	}
	res.Stage1.Feasible = res.Stage1.EnergyNeeded <= res.Stage1.EnergyBudget

	s2Time := float64(m.DRAMBytes) / r.SaveBytesPerSec
	res.Stage2 = StageResult{
		Bytes:        m.DRAMBytes,
		Time:         time.Duration(s2Time * float64(time.Second)),
		EnergyNeeded: s2Time * r.SaveWatts,
		EnergyBudget: e.SupercapJoules,
	}
	res.Stage2.Feasible = res.Stage2.EnergyNeeded <= res.Stage2.EnergyBudget
	return res, nil
}

// MaxDRAMBytes returns the largest DRAM size stage two can evacuate with
// the given supercap budget — the sizing helper a WSP deployment needs.
func MaxDRAMBytes(e Energy, r Rates) (int64, error) {
	if err := r.Validate(); err != nil {
		return 0, err
	}
	if e.SupercapJoules < 0 {
		return 0, errors.New("wsp: energies must be non-negative")
	}
	// energy = bytes/bw * watts  =>  bytes = energy * bw / watts
	return int64(e.SupercapJoules * r.SaveBytesPerSec / r.SaveWatts), nil
}

// Presets for the example and tests.

// DesktopMachine is a 4-core desktop with 8 MB of cache and 32 GB DRAM.
func DesktopMachine() Machine {
	return Machine{Cores: 4, RegisterBytesPerCore: 4 << 10, CacheBytes: 8 << 20, DRAMBytes: 32 << 30}
}

// ServerMachine is a 60-core server with 150 MB of cache and 1.5 TB DRAM.
func ServerMachine() Machine {
	return Machine{Cores: 60, RegisterBytesPerCore: 4 << 10, CacheBytes: 150 << 20, DRAMBytes: 1536 << 30}
}

// TypicalRates reflects WSP-era hardware: ~10 GB/s flush into DRAM at
// 150 W, ~1 GB/s save into flash at 40 W.
func TypicalRates() Rates {
	return Rates{
		FlushBytesPerSec: 10e9,
		FlushWatts:       150,
		SaveBytesPerSec:  1e9,
		SaveWatts:        40,
	}
}

// TypicalEnergy reflects a PSU with ~10 J of usable residual (tens of
// milliseconds of full-system draw from the bulk capacitors) and a small
// supercap bank of ~5 kJ.
func TypicalEnergy() Energy {
	return Energy{PSUResidualJoules: 10.0, SupercapJoules: 5000}
}

// DiskEvacuationComparison quantifies the Section 2 asymmetry: the time
// to push the same DRAM image through a block-storage path of the given
// bandwidth, versus the NVM-era cache flush of stage one.
func DiskEvacuationComparison(m Machine, r Rates, diskBytesPerSec float64) (cacheFlush, diskEvac time.Duration, err error) {
	if diskBytesPerSec <= 0 {
		return 0, 0, errors.New("wsp: disk bandwidth must be positive")
	}
	if err := m.Validate(); err != nil {
		return 0, 0, err
	}
	if err := r.Validate(); err != nil {
		return 0, 0, err
	}
	s1Bytes := int64(m.Cores)*m.RegisterBytesPerCore + m.CacheBytes
	cacheFlush = time.Duration(float64(s1Bytes) / r.FlushBytesPerSec * float64(time.Second))
	diskEvac = time.Duration(float64(m.DRAMBytes) / diskBytesPerSec * float64(time.Second))
	return cacheFlush, diskEvac, nil
}
