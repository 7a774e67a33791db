package nvm

import "sync/atomic"

// spinSink defeats dead-code elimination of the calibration loop.
var spinSink atomic.Uint64

// spin burns roughly n units of CPU time. One unit is a handful of
// nanoseconds on contemporary hardware; platform profiles express flush
// latency in these units so that the *relative* cost of synchronous
// flushing versus ordinary simulated memory operations matches the shape
// reported in the paper, independent of the host machine's absolute speed.
func spin(n int) {
	var x uint64 = 88172645463325252
	for i := 0; i < n; i++ {
		// xorshift keeps the loop data-dependent so it cannot be
		// collapsed by the compiler.
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	if n > 0 {
		spinSink.Store(x)
	}
}
