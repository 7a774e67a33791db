package core_test

import (
	"fmt"

	"tsp/internal/core"
)

// The headline Section 3 result: on a machine with shared file-backed
// mappings, tolerating process crashes with a non-blocking design costs
// literally nothing. The same machine has no energy to rescue DRAM at a
// power outage, so there the procedure prescribes prevention: every
// commit waits for synchronous storage I/O.
func ExampleDerivePlan() {
	for _, req := range []core.Requirements{
		{Tolerate: []core.Failure{core.ProcessCrash}, Isolation: core.NonBlocking},
		{Tolerate: []core.Failure{core.PowerOutage}, Isolation: core.MutexBased},
	} {
		plan, _ := core.DerivePlan(req, core.ConventionalDesktop())
		fmt.Println("TSP:", plan.TSP)
		fmt.Println("overhead:", plan.Overhead)
		fmt.Println("recovery:", plan.Recovery)
	}
	// Output:
	// TSP: true
	// overhead: zero
	// recovery: none (traverse from root)
	// TSP: false
	// overhead: sync-io
	// recovery: rollback+gc
}

// Different data subsets may carry different contracts (Section 3); the
// composite pays only for what each class actually needs.
func ExampleDeriveProfile() {
	res, _ := core.DeriveProfile(core.HeapAndStacks(core.Requirements{
		Tolerate:  []core.Failure{core.ProcessCrash, core.KernelPanic},
		Isolation: core.MutexBased,
	}), core.NVRAMMachine())
	fmt.Println("all TSP:", res.AllTSP)
	fmt.Println("max overhead:", res.MaxOverhead)
	// Output:
	// all TSP: true
	// max overhead: logging
}
