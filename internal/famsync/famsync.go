// Package famsync implements failure-atomic incremental synchronization
// of a simulated NVM device's durable image to a real file — the
// mechanism of "Failure-atomic msync()" (Park, Kelly & Shen, EuroSys
// 2013), which the paper's Section 3 cites as the conventional-hardware
// building block for persistent heaps: on machines whose memory does NOT
// survive the tolerated failure, the heap's pages must be written to
// durable storage, and those writes must themselves be atomic so a crash
// mid-sync cannot leave the file holding a half-updated heap.
//
// The file holds a full base image followed by a journal of page groups.
// Each Commit appends only the pages that changed since the previous
// commit, sealed by a checksummed commit record; recovery replays exactly
// the sealed groups, so the loaded image is always SOME committed state
// — never a torn one. The base carries an FNV-1a checksum, and Create
// and Compact both write it by temp file, fsync and rename, so a file
// at the path always holds a whole base. Compact rewrites the base when
// the journal grows past the base's size.
package famsync

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"

	"tsp/internal/nvm"
)

// On-disk layout (all values little-endian uint64 words):
//
//	header:  magic, version, imageWords, pageWords, baseChecksum
//	base:    imageWords words (the image as of the last Create or Compact)
//	journal: zero or more groups, each
//	           ( [tagPage, pageIdx, <pageWords words>] )*  — changed pages
//	           [tagCommit, generation, pageCount, checksum]
//	         an unsealed (torn) tail group is ignored by recovery.
const (
	Magic   = 0x4641_4d53_594e_4331 // "FAMSYNC1"
	Version = 2

	tagPage   = 1
	tagCommit = 2

	headerWords = 5
	// DefaultPageWords is the sync granularity: 64 words = 512 bytes.
	DefaultPageWords = 64
)

// Errors returned by the package.
var (
	ErrBadFile   = errors.New("famsync: not a valid famsync file")
	ErrSizeMatch = errors.New("famsync: file image size does not match device")
	ErrClosed    = errors.New("famsync: syncer is closed")
)

// Syncer binds a device to its backing file.
type Syncer struct {
	dev       *nvm.Device
	path      string
	f         *os.File
	shadow    []uint64 // last committed image
	gen       uint64   // last committed generation
	pageWords int
	journalWd int64 // journal length in words (for Compact heuristics)
	closed    bool
}

// fnv1a accumulates words into an FNV-1a hash.
func fnv1a(h uint64, words ...uint64) uint64 {
	const prime = 1099511628211
	if h == 0 {
		h = 14695981039346656037
	}
	var buf [8]byte
	for _, w := range words {
		binary.LittleEndian.PutUint64(buf[:], w)
		for _, b := range buf {
			h ^= uint64(b)
			h *= prime
		}
	}
	return h
}

// Create initializes path with the device's current persisted image as
// the base and returns a Syncer positioned for incremental commits. An
// existing file at path is replaced atomically.
func Create(dev *nvm.Device, path string) (*Syncer, error) {
	s := &Syncer{
		dev:       dev,
		path:      path,
		shadow:    dev.SnapshotPersisted(),
		pageWords: DefaultPageWords,
	}
	f, err := s.writeBase()
	if err != nil {
		return nil, err
	}
	s.f = f
	return s, nil
}

// writeBase writes header + shadow image with an empty journal to a
// temp file, fsyncs it and renames it over path, so a crash leaves
// either the old file or the new one. It returns the new file
// positioned at its end.
func (s *Syncer) writeBase() (*os.File, error) {
	tmp := s.path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("famsync: %w", err)
	}
	defer os.Remove(tmp) // no-op after the rename
	hdr := []uint64{Magic, Version, uint64(len(s.shadow)), uint64(s.pageWords), fnv1a(0, s.shadow...)}
	if err := writeWords(f, append(hdr, s.shadow...)); err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return nil, fmt.Errorf("famsync: sync: %w", err)
	}
	if err := os.Rename(tmp, s.path); err != nil {
		f.Close()
		return nil, fmt.Errorf("famsync: rename: %w", err)
	}
	return f, nil
}

// OpenFile loads the committed image from path into the device (which
// must match the image's word count), restarts the device so the new
// incarnation sees it, and returns a Syncer for further commits. Torn
// journal tails from a crash mid-Commit are discarded — that is the
// failure-atomicity contract.
func OpenFile(dev *nvm.Device, path string) (*Syncer, error) {
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return nil, fmt.Errorf("famsync: %w", err)
	}
	hdr := make([]uint64, headerWords)
	if err := readWords(f, hdr); err != nil {
		f.Close()
		return nil, ErrBadFile
	}
	if hdr[0] != Magic || hdr[1] != Version {
		f.Close()
		return nil, ErrBadFile
	}
	words, pageWords := hdr[2], int(hdr[3])
	if words != dev.Words() {
		f.Close()
		return nil, fmt.Errorf("%w: file %d words, device %d", ErrSizeMatch, words, dev.Words())
	}
	if pageWords < 1 || uint64(pageWords) > words {
		f.Close()
		return nil, ErrBadFile
	}
	img := make([]uint64, words)
	if err := readWords(f, img); err != nil {
		f.Close()
		return nil, fmt.Errorf("%w: truncated base image", ErrBadFile)
	}
	if fnv1a(0, img...) != hdr[4] {
		f.Close()
		return nil, fmt.Errorf("%w: base image checksum mismatch", ErrBadFile)
	}
	s := &Syncer{dev: dev, path: path, f: f, shadow: img, pageWords: pageWords}

	// Replay sealed journal groups; truncate at the first torn one.
	journalStart := int64(headerWords+len(img)) * 8
	validEnd := journalStart
	for {
		groupEnd, gen, ok := s.replayGroup(img)
		if !ok {
			break
		}
		s.gen = gen
		validEnd = groupEnd
	}
	if err := f.Truncate(validEnd); err != nil {
		f.Close()
		return nil, fmt.Errorf("famsync: truncate torn tail: %w", err)
	}
	if _, err := f.Seek(validEnd, io.SeekStart); err != nil {
		f.Close()
		return nil, fmt.Errorf("famsync: %w", err)
	}
	s.journalWd = (validEnd - journalStart) / 8

	if err := dev.RestorePersisted(img); err != nil {
		f.Close()
		return nil, err
	}
	dev.Restart()
	copy(s.shadow, img)
	return s, nil
}

// replayGroup reads one journal group at the current file offset and
// applies it to img if sealed. It returns the end offset of the group,
// the committed generation, and whether the group was valid.
func (s *Syncer) replayGroup(img []uint64) (int64, uint64, bool) {
	type pendingPage struct {
		idx  uint64
		data []uint64
	}
	var pending []pendingPage
	crc := uint64(0)
	for {
		var tag [1]uint64
		if err := readWords(s.f, tag[:]); err != nil {
			return 0, 0, false
		}
		switch tag[0] {
		case tagPage:
			var idx [1]uint64
			if err := readWords(s.f, idx[:]); err != nil {
				return 0, 0, false
			}
			if idx[0]*uint64(s.pageWords) >= uint64(len(img)) {
				return 0, 0, false
			}
			data := make([]uint64, s.pageSize(int(idx[0]), len(img)))
			if err := readWords(s.f, data); err != nil {
				return 0, 0, false
			}
			crc = fnv1a(crc, idx[0])
			crc = fnv1a(crc, data...)
			pending = append(pending, pendingPage{idx[0], data})
		case tagCommit:
			var rest [3]uint64 // gen, count, checksum
			if err := readWords(s.f, rest[:]); err != nil {
				return 0, 0, false
			}
			crc = fnv1a(crc, rest[0], rest[1])
			if rest[1] != uint64(len(pending)) || rest[2] != crc {
				return 0, 0, false
			}
			for _, p := range pending {
				copy(img[p.idx*uint64(s.pageWords):], p.data)
			}
			off, err := s.f.Seek(0, io.SeekCurrent)
			if err != nil {
				return 0, 0, false
			}
			return off, rest[0], true
		default:
			return 0, 0, false
		}
	}
}

// pageSize returns page idx's size in words (the final page may be
// short).
func (s *Syncer) pageSize(idx int, imageWords int) int {
	start := idx * s.pageWords
	if start+s.pageWords > imageWords {
		return imageWords - start
	}
	return s.pageWords
}

// Commit atomically appends every page of the device's persisted image
// that changed since the last commit. Either the whole group becomes
// visible to a future OpenFile or none of it does. It returns the number
// of pages written.
func (s *Syncer) Commit() (int, error) {
	if s.closed {
		return 0, ErrClosed
	}
	img := s.dev.SnapshotPersisted()
	if len(img) != len(s.shadow) {
		return 0, ErrSizeMatch
	}
	nPages := (len(img) + s.pageWords - 1) / s.pageWords
	crc := uint64(0)
	written := 0
	for p := 0; p < nPages; p++ {
		lo := p * s.pageWords
		hi := lo + s.pageSize(p, len(img))
		if equalWords(img[lo:hi], s.shadow[lo:hi]) {
			continue
		}
		if err := writeWords(s.f, []uint64{tagPage, uint64(p)}); err != nil {
			return written, err
		}
		if err := writeWords(s.f, img[lo:hi]); err != nil {
			return written, err
		}
		crc = fnv1a(crc, uint64(p))
		crc = fnv1a(crc, img[lo:hi]...)
		s.journalWd += int64(2 + hi - lo)
		written++
	}
	if written == 0 {
		return 0, nil
	}
	// Data before seal: fsync the page records, then write and fsync the
	// sealed commit record. A crash between the two leaves a torn tail
	// that OpenFile discards.
	if err := s.f.Sync(); err != nil {
		return written, fmt.Errorf("famsync: sync: %w", err)
	}
	s.gen++
	crc = fnv1a(crc, s.gen, uint64(written))
	if err := writeWords(s.f, []uint64{tagCommit, s.gen, uint64(written), crc}); err != nil {
		return written, err
	}
	if err := s.f.Sync(); err != nil {
		return written, fmt.Errorf("famsync: sync: %w", err)
	}
	s.journalWd += 4
	copy(s.shadow, img)

	// Keep the journal bounded: when it outgrows the base image, fold it
	// in.
	if s.journalWd > int64(len(img)) {
		if err := s.Compact(); err != nil {
			return written, err
		}
	}
	return written, nil
}

// Generation returns the last committed generation number.
func (s *Syncer) Generation() uint64 { return s.gen }

// JournalWords returns the current journal length in words.
func (s *Syncer) JournalWords() int64 { return s.journalWd }

// Compact rewrites the file as header + current shadow image with an
// empty journal, atomically (temp file + rename), and reopens the
// handle.
func (s *Syncer) Compact() error {
	if s.closed {
		return ErrClosed
	}
	nf, err := s.writeBase()
	if err != nil {
		return err
	}
	s.f.Close()
	s.f = nf
	s.journalWd = 0
	return nil
}

// Close releases the file handle. Further operations fail with
// ErrClosed.
func (s *Syncer) Close() error {
	if s.closed {
		return nil
	}
	s.closed = true
	return s.f.Close()
}

func equalWords(a, b []uint64) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func writeWords(w io.Writer, words []uint64) error {
	buf := make([]byte, 8*len(words))
	for i, v := range words {
		binary.LittleEndian.PutUint64(buf[i*8:], v)
	}
	if _, err := w.Write(buf); err != nil {
		return fmt.Errorf("famsync: write: %w", err)
	}
	return nil
}

func readWords(r io.Reader, words []uint64) error {
	buf := make([]byte, 8*len(words))
	if _, err := io.ReadFull(r, buf); err != nil {
		return err
	}
	for i := range words {
		words[i] = binary.LittleEndian.Uint64(buf[i*8:])
	}
	return nil
}
