//go:build race

package cacheserver

// Under the race detector a crash point costs about thirty times what it
// costs without (a fresh server, its warm-up and the rescue's write-back
// are all per-word atomics), so TestCrashPointSweep's long rows visit
// every eighth point. They still cross the one concurrent edge, an
// answered wait's apply on the epoch goroutine, many times. The short
// known-defect row, whose failures sit in few-store windows, visits
// every second point, and the image rows, each point of which serves
// hundreds of images, visit two or three.
func init() { raceBuild = true }
