package wsp_test

import (
	"fmt"

	"tsp/internal/wsp"
)

// Section 3's flagship TSP design on typical hardware: the PSU residual
// flushes either machine's caches, a 5 kJ supercapacitor bank saves the
// desktop's 32 GB of DRAM but not the server's 1.5 TB (about 66 kJ).
// Then the asymmetry that makes procrastination pay: flushing the
// desktop's caches takes under a millisecond, evacuating its DRAM to a
// 200 MB/s disk nearly three minutes.
func Example() {
	rates, energy := wsp.TypicalRates(), wsp.TypicalEnergy()
	for _, m := range []wsp.Machine{wsp.DesktopMachine(), wsp.ServerMachine()} {
		res, _ := wsp.Evaluate(m, energy, rates)
		fmt.Println(res)
	}
	flush, evac, _ := wsp.DiskEvacuationComparison(wsp.DesktopMachine(), rates, 200e6)
	fmt.Printf("cache flush %v, disk evacuation %v (%.0fx)\n", flush, evac, float64(evac)/float64(flush))
	// Output:
	// stage1: 8404992 bytes in 840µs, 0.126 J of 10.000 J -> FEASIBLE
	// stage2: 34359738368 bytes in 34.359738s, 1374.390 J of 5000.000 J -> FEASIBLE
	// total: 34.360579s, feasible: true
	// stage1: 157532160 bytes in 15.753ms, 2.363 J of 10.000 J -> FEASIBLE
	// stage2: 1649267441664 bytes in 27m29.267442s, 65970.698 J of 5000.000 J -> INFEASIBLE
	// total: 27m29.283195s, feasible: false
	// cache flush 840.499µs, disk evacuation 2m51.79869184s (204401x)
}
