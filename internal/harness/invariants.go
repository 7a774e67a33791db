package harness

import (
	"fmt"
)

// InvariantReport is the recovery observer's verdict on a quiescent
// store, per Section 5.1's two correctness invariants:
//
//	Equation 1:  0 <= Σ c1,t − Σ c2,t <= T
//	Equation 2:  Σ c1,t >= Σ_{k∈H} map[k] >= Σ c2,t
//
// plus the per-thread strengthening c2,t <= c1,t <= c2,t + 1 (each
// thread's iteration is at most one step ahead of its own commit), and a
// structural verification of the map implementation itself.
type InvariantReport struct {
	SumC1       uint64
	SumC2       uint64
	SumHigh     uint64
	PerThreadOK bool
	Eq1OK       bool
	Eq2OK       bool
	StructureOK bool
	StructErr   error
}

// OK reports whether every invariant held.
func (r InvariantReport) OK() bool {
	return r.PerThreadOK && r.Eq1OK && r.Eq2OK && r.StructureOK
}

// String renders the report for logs.
func (r InvariantReport) String() string {
	return fmt.Sprintf("invariants{Σc1=%d Σc2=%d ΣH=%d perThread=%v eq1=%v eq2=%v structure=%v}",
		r.SumC1, r.SumC2, r.SumHigh, r.PerThreadOK, r.Eq1OK, r.Eq2OK, r.StructureOK)
}

// Err returns a descriptive error when any invariant failed, nil
// otherwise.
func (r InvariantReport) Err() error {
	if r.OK() {
		return nil
	}
	if !r.StructureOK {
		return fmt.Errorf("harness: structural verification failed: %w", r.StructErr)
	}
	return fmt.Errorf("harness: invariants violated: %s", r)
}

// Observe is the recovery observer over any quiescent store: it reads
// each of threads threads' two counters and the highKeys keys of the
// high range through read (0 for an absent key), evaluates Equations 1
// and 2 and the per-thread strengthening, and runs verify, the store's
// structural check (with none, StructureOK holds). An error is read's.
func Observe(threads, highKeys int, read func(k uint64) (uint64, error), verify func() error) (InvariantReport, error) {
	rep := InvariantReport{PerThreadOK: true, StructureOK: true}
	for t := 0; t < threads; t++ {
		c1, err := read(KeyC1(t))
		if err != nil {
			return rep, err
		}
		c2, err := read(KeyC2(t))
		if err != nil {
			return rep, err
		}
		rep.SumC1 += c1
		rep.SumC2 += c2
		if !(c2 <= c1 && c1 <= c2+1) {
			rep.PerThreadOK = false
		}
	}
	lo := HighBase(threads)
	for k := lo; k < lo+uint64(highKeys); k++ {
		h, err := read(k)
		if err != nil {
			return rep, err
		}
		rep.SumHigh += h
	}
	diff := int64(rep.SumC1) - int64(rep.SumC2)
	rep.Eq1OK = diff >= 0 && diff <= int64(threads)
	rep.Eq2OK = rep.SumC1 >= rep.SumHigh && rep.SumHigh >= rep.SumC2
	if verify != nil {
		rep.StructErr = verify()
		rep.StructureOK = rep.StructErr == nil
	}
	return rep, nil
}

// checkInvariants runs the recovery observer over a recovered
// deployment, reading the store in one pass.
func checkInvariants(d *deployment) InvariantReport {
	vals := map[uint64]uint64{}
	d.store.Range(func(k, v uint64) bool {
		vals[k] = v
		return true
	})
	rep, _ := Observe(d.cfg.Threads, d.cfg.HighKeys, func(k uint64) (uint64, error) { return vals[k], nil },
		d.store.VerifyStructure)
	return rep
}
