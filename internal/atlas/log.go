package atlas

import (
	"tsp/internal/nvm"
	"tsp/internal/pheap"
)

// Log entry format. Every entry occupies four words in a per-thread ring
// of log slots, aligned so no entry ever straddles a cache line (two
// entries per 64-byte line):
//
//	0: meta  — seq<<5 | kind<<1 | opening
//	1: a     — store: heap word address; acquire/release: mutex id
//	2: v     — store: the OLD value (undo value); others: 0
//	3: check — mixer over meta, a, v, the owning thread id and the log
//	           epoch at append time
//
// The thread id is implied by which ring the entry sits in and the epoch
// by the directory, so neither needs its own word: both are folded into
// the checksum, which therefore also rejects records from earlier epochs
// (truncated logs) and records read out of the wrong ring. The OCS a
// record belongs to is likewise implicit: per-thread sequence numbers
// are strictly increasing, so sorting a ring's valid records by sequence
// number recovers exact append order, and acquire/release nesting
// (with the opening flag marking each OCS's first acquire) regroups them.
//
// Compactness is not a luxury here: writing log records is precisely the
// failure-free overhead the paper measures, so every word of a record
// costs benchmark fidelity.
type entryKind uint64

const (
	entryInvalid entryKind = iota
	entryStore
	entryAcquire
	entryRelease
)

// entryWords is the size of one log entry in words.
const entryWords = 4

// entry is the decoded in-memory form of a log record.
type entry struct {
	kind    entryKind
	seq     uint64
	a       uint64
	v       uint64
	opening bool // acquire that opened its OCS (held count 0 -> 1)
}

const (
	metaOpeningBit = 1
	metaKindShift  = 1
	metaKindMask   = 0xf
	metaSeqShift   = 5
)

func (e entry) meta() uint64 {
	m := e.seq<<metaSeqShift | uint64(e.kind)<<metaKindShift
	if e.opening {
		m |= metaOpeningBit
	}
	return m
}

// mix64 is a 64-bit finalizer (splitmix64's mixing function).
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// checksum computes the record's integrity word over the stored words
// plus the implied thread and epoch. A torn record (words from different
// appends captured together) validates only if the field deltas cancel
// exactly — a ~2^-64 coincidence. The result must not be zero so that a
// never-written all-zero slot can never validate.
func checksum(meta, a, v, thread, epoch uint64) uint64 {
	h := meta*0x9e3779b97f4a7c15 ^
		a*0xc2b2ae3d27d4eb4f ^
		v*0x165667b19e3779f9 ^
		thread*0xd6e8feb86659fd93 ^
		epoch*0xff51afd7ed558ccd
	h = mix64(h ^ 0x7350_2d61_746c_6173) // "sP-atlas" salt
	if h == 0 {
		h = 1
	}
	return h
}

// writeEntry stores the record at the given slot as one block burst.
// Under a TSP rescue the whole record is captured; in non-TSP mode the
// runtime flushes records in append order before anything that depends
// on them (see Thread.appendEntry). A background eviction capturing the
// line mid-write yields a checksum mismatch, never a silently wrong
// record.
func writeEntry(tal *nvm.Tally, base nvm.Addr, e entry, thread, epoch uint64) {
	m := e.meta()
	tal.StoreBlock(base, []uint64{m, e.a, e.v, checksum(m, e.a, e.v, thread, epoch)})
}

// readEntry decodes and validates the record at base from the device's
// CURRENT image (recovery runs after Restart, so the volatile image is
// the persisted one). ok is false for never-written, torn, wrong-ring,
// or wrong-epoch records.
func readEntry(tal *nvm.Tally, base nvm.Addr, thread, epoch uint64) (entry, bool) {
	var rec [entryWords]uint64
	tal.LoadBlock(base, rec[:])
	m, a, v := rec[0], rec[1], rec[2]
	if rec[3] != checksum(m, a, v, thread, epoch) {
		return entry{}, false
	}
	e := entry{
		kind:    entryKind(m >> metaKindShift & metaKindMask),
		seq:     m >> metaSeqShift,
		a:       a,
		v:       v,
		opening: m&metaOpeningBit != 0,
	}
	if e.kind == entryInvalid || e.kind > entryRelease {
		return entry{}, false
	}
	return e, true
}

// Log directory layout. The directory is a persistent block anchored at
// heap Aux slot AuxLogDir so that recovery can find the logs without any
// volatile state:
//
//	0:              magic
//	1:              epoch (current log epoch; bumped by recovery)
//	2:              maxThreads
//	3:              entriesPerThread
//	4..4+maxThreads: per-thread log buffer pointers (pheap.Ptr, 0 = none)
const (
	// AuxLogDir is the heap auxiliary-root slot anchoring the Atlas log
	// directory.
	AuxLogDir = 0

	dirMagicWord   = 0
	dirEpochWord   = 1
	dirThreadsWord = 2
	dirEntriesWord = 3
	dirBufBase     = 4

	dirMagic = 0x41544c41_534c4f47 // "ATLASLOG"
)

// dirWords returns the directory block size for maxThreads threads.
func dirWords(maxThreads int) int { return dirBufBase + maxThreads }

// alignedLogBase rounds a log buffer's payload pointer up to the next
// entry boundary. Heap payloads start one word past the block header, so
// buffers are allocated one entry oversized and every user of the
// directory derives the aligned base the same way — entries then never
// straddle cache lines.
func alignedLogBase(p pheap.Ptr) nvm.Addr {
	return nvm.Addr((uint64(p) + entryWords - 1) &^ (entryWords - 1))
}

// logDir is a volatile view of the persistent directory block: the
// block, and the tally its reader counts the directory's words in (a
// scan re-reads the bounds on every slot, so they are worth not paying
// for one by one).
type logDir struct {
	dev *nvm.Device
	p   pheap.Ptr
	tal *nvm.Tally
}

func (d logDir) word(off int) uint64 { return d.tal.Load(d.p.Addr() + nvm.Addr(off)) }

func (d logDir) magic() uint64       { return d.word(dirMagicWord) }
func (d logDir) epoch() uint64       { return d.word(dirEpochWord) }
func (d logDir) maxThreads() int     { return int(d.word(dirThreadsWord)) }
func (d logDir) entries() int        { return int(d.word(dirEntriesWord)) }
func (d logDir) buf(i int) pheap.Ptr { return pheap.Ptr(d.word(dirBufBase + i)) }

func (d logDir) setWord(off int, v uint64) {
	a := d.p.Addr() + nvm.Addr(off)
	d.tal.Store(a, v)
	d.dev.FlushWord(a)
}

func (d logDir) setEpoch(e uint64)         { d.setWord(dirEpochWord, e) }
func (d logDir) setBuf(i int, b pheap.Ptr) { d.setWord(dirBufBase+i, uint64(b)) }
