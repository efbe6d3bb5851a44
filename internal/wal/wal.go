// Package wal implements the crash-safe write-ahead log the retention
// daemon appends every mutation event to before applying it. Records
// are length-prefixed, checksummed, and carry a monotone sequence
// number, so recovery can prove it applies every event exactly once:
//
//	offset  size  field
//	0       4     payload length (uint32 LE)
//	4       4     CRC-32 (IEEE) over seq bytes + payload (uint32 LE)
//	8       8     sequence number (uint64 LE)
//	16      len   payload
//
// The log is a directory of segment files named by the first sequence
// number they hold (<seq>.wal, zero-padded so lexical order is replay
// order). Appends go to the last segment; a new one is started once
// the active segment passes Options.SegmentBytes, which bounds both
// recovery re-reads and the garbage a checkpoint-driven Prune leaves
// behind.
//
// Group commit: Append encodes its record into a Log-owned buffer, and
// the buffer reaches the segment in one write at Sync, at a segment
// roll, at Close, before Replay, or once it passes flushBytes. A
// daemon batch of a few hundred events thus costs one write(2) and one
// fsync instead of one write per event. Buffering changes nothing a
// crash can observe: records were never durable before Sync, and the
// bytes that reach the file are the same.
//
// Damage model: a crash can cut the tail of the last segment at any
// byte (torn write). Open detects the incomplete record — short
// header, short payload, or checksum mismatch on the final record —
// truncates it away, and reports how many bytes were dropped. Damage
// anywhere else (a bad checksum mid-segment, a sequence gap, a torn
// non-final segment) cannot come from a torn tail and is reported as
// ErrCorrupt rather than silently skipped: replaying past it could
// drop or double-apply events.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"activedr/internal/fsx"
)

const (
	headerSize = 16
	segSuffix  = ".wal"

	// MaxRecord bounds a single payload. Mutation events are short
	// text lines; anything near this size is a bug upstream.
	MaxRecord = 1 << 20

	// DefaultSegmentBytes is the roll threshold when Options leaves
	// SegmentBytes zero.
	DefaultSegmentBytes = 4 << 20

	// flushBytes bounds the group-commit buffer: an Append that leaves
	// more than this many bytes buffered writes them out. The daemon's
	// default fsync group, 256 events of about 90 bytes, is some 23
	// KiB, so at 256 KiB a group reaches the file in one write even
	// at ten times that size, while a caller that rarely syncs keeps
	// at most 256 KiB plus one record in memory. Past this size the
	// per-write cost is already spread over thousands of records.
	flushBytes = 256 << 10
)

var (
	// ErrCorrupt reports damage that truncating a torn tail cannot
	// explain. The log refuses to open: deciding which events to drop
	// is the operator's call, not recovery's.
	ErrCorrupt = errors.New("wal: corrupt log")

	// ErrTorn reports an injected torn write: only part of the record
	// reached the file, exactly as a crash mid-write would leave it.
	// The host must treat the process as dead — the log refuses all
	// further use so no code path can keep running past its own crash.
	ErrTorn = errors.New("wal: torn write injected")

	// ErrClosed reports use after Close (or after a torn write).
	ErrClosed = errors.New("wal: log closed")

	// errFlush tags a failed write of the group-commit buffer. The
	// error is sticky: which of the buffered records reached the file
	// is unknown, so the log refuses every later append and sync.
	errFlush = errors.New("wal: buffered write failed")
)

// Hooks injects write-path faults. faults.Injector satisfies it.
type Hooks interface {
	// WriteAttempt may veto the append of one n-byte record before
	// any of its bytes are buffered (transient or disk-full error);
	// the log's state is unchanged and the append may be retried.
	WriteAttempt(n int) error
	// TornWrite may cut a record short: the records buffered before
	// it land, then keep < n bytes of it, then the "process" dies
	// (the append returns ErrTorn).
	TornWrite(n int) (keep int, torn bool)
}

// Options tunes a Log. The zero value is usable.
type Options struct {
	// SegmentBytes rolls the active segment once it exceeds this many
	// bytes (0 = DefaultSegmentBytes).
	SegmentBytes int64
	// Hooks, when set, injects faults into the append path.
	Hooks Hooks
}

// RecoveryInfo describes what Open found and repaired.
type RecoveryInfo struct {
	Segments  int    // segment files scanned
	Records   uint64 // valid records across all segments
	FirstSeq  uint64 // first available sequence (0 when empty)
	LastSeq   uint64 // last durable sequence (0 when empty)
	TornBytes int64  // bytes truncated off the tail segment
}

// Log is an append-only, checksummed event log. Not safe for
// concurrent use; the daemon funnels all appends through one applier
// goroutine.
type Log struct {
	dir    string
	opts   Options
	f      *os.File // active segment (nil when empty log has no writes yet)
	size   int64    // bytes in the active segment, buffered ones included
	next   uint64   // sequence the next Append receives
	first  uint64   // first sequence still present (0 when empty)
	dirty  bool     // unsynced appends pending
	closed bool
	// buf holds the records appended since the last flush, encoded
	// exactly as they land in the segment.
	buf    []byte
	err    error  // sticky flush failure (wraps errFlush)
	writes uint64 // segment writes issued, for the host's metrics
}

// Open scans dir (created if missing), validates every record,
// truncates a torn tail, and returns a log ready to append at
// LastSeq()+1.
func Open(dir string, opts Options) (*Log, RecoveryInfo, error) {
	var info RecoveryInfo
	if opts.SegmentBytes <= 0 {
		opts.SegmentBytes = DefaultSegmentBytes
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, info, err
	}
	segs, err := listSegments(dir)
	if err != nil {
		return nil, info, err
	}
	info.Segments = len(segs)

	l := &Log{dir: dir, opts: opts, next: 1}
	if len(segs) > 0 {
		// Pruned logs legitimately start past sequence 1; contiguity
		// from the checkpoint's last applied sequence is the host's
		// check (it knows where its state ends, the log does not).
		l.next = segs[0].firstSeq
	}
	for i, seg := range segs {
		last := i == len(segs)-1
		scan, err := scanSegment(filepath.Join(dir, seg.name), seg.firstSeq, l.next, last)
		if err != nil {
			return nil, info, err
		}
		if i == 0 {
			l.first = seg.firstSeq
			info.FirstSeq = seg.firstSeq
		}
		info.Records += scan.records
		info.TornBytes += scan.torn
		l.next = scan.nextSeq
		if last {
			l.size = scan.keep
		}
	}
	info.LastSeq = l.next - 1
	if info.Records == 0 {
		info.FirstSeq = 0
		info.LastSeq = 0
		l.first = 0
	}

	if len(segs) > 0 {
		name := filepath.Join(dir, segs[len(segs)-1].name)
		f, err := os.OpenFile(name, os.O_WRONLY, 0o644)
		if err != nil {
			return nil, info, err
		}
		if info.TornBytes > 0 {
			if err := f.Truncate(l.size); err != nil {
				return nil, info, errors.Join(err, f.Close())
			}
			if err := fsx.SyncFile(f); err != nil {
				return nil, info, errors.Join(err, f.Close())
			}
		}
		if _, err := f.Seek(l.size, io.SeekStart); err != nil {
			return nil, info, errors.Join(err, f.Close())
		}
		l.f = f
	}
	return l, info, nil
}

// FirstSeq returns the oldest sequence still present (0 when empty).
func (l *Log) FirstSeq() uint64 { return l.first }

// LastSeq returns the newest durable-or-pending sequence (0 = none).
func (l *Log) LastSeq() uint64 { return l.next - 1 }

// Append buffers one record and returns its sequence number. The
// record is NOT durable until Sync; the caller batches fsyncs. A
// transient or disk-full error from the fault hooks leaves the log
// unchanged (safe to retry); ErrTorn writes the buffered records and a
// cut prefix of this one, then poisons the log, modeling the crash
// that tore the write.
func (l *Log) Append(payload []byte) (uint64, error) {
	if l.closed {
		return 0, ErrClosed
	}
	if l.err != nil {
		return 0, l.err
	}
	if len(payload) == 0 || len(payload) > MaxRecord {
		return 0, fmt.Errorf("wal: payload of %d bytes outside (0,%d]", len(payload), MaxRecord)
	}
	if l.f == nil || l.size >= l.opts.SegmentBytes {
		if err := l.roll(); err != nil {
			return 0, err
		}
	}

	seq := l.next
	n := headerSize + len(payload)
	h := l.opts.Hooks
	if h != nil {
		if err := h.WriteAttempt(n); err != nil {
			return 0, err
		}
	}
	start := len(l.buf)
	l.buf = appendRecord(l.buf, seq, payload)
	if h != nil {
		if keep, torn := h.TornWrite(n); torn {
			// Model the crash: the buffered records and the kept
			// prefix land (and are even synced, as the page cache may
			// flush them), then the process is gone.
			l.closed = true
			l.buf = l.buf[:start+keep]
			if err := l.flush(); err != nil {
				return 0, err
			}
			if err := fsx.SyncFile(l.f); err != nil {
				return 0, err
			}
			return 0, fmt.Errorf("wal: record %d cut at byte %d of %d: %w", seq, keep, n, ErrTorn)
		}
	}

	l.size += int64(n)
	l.next++
	if l.first == 0 {
		l.first = seq
	}
	l.dirty = true
	if len(l.buf) > flushBytes {
		if err := l.flush(); err != nil {
			return 0, err
		}
	}
	return seq, nil //lint:allow fsyncorder Append is documented as not-durable-until-Sync; the daemon batches acks behind Options.SyncEvery
}

// appendRecord encodes one record (header, then payload) onto dst.
func appendRecord(dst []byte, seq uint64, payload []byte) []byte {
	start := len(dst)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(payload)))
	dst = append(dst, 0, 0, 0, 0) // checksum, filled below
	dst = binary.LittleEndian.AppendUint64(dst, seq)
	dst = append(dst, payload...)
	binary.LittleEndian.PutUint32(dst[start+4:start+8], crc32.ChecksumIEEE(dst[start+8:]))
	return dst
}

// flush writes the buffered records to the active segment in one
// write. A failure poisons the log: some prefix of the buffer may have
// landed, and appending past it would leave a gap no recovery could
// tell from corruption.
func (l *Log) flush() error {
	if len(l.buf) == 0 {
		return nil
	}
	l.writes++
	_, err := l.f.Write(l.buf)
	l.buf = l.buf[:0]
	if err != nil {
		l.err = fmt.Errorf("%w: %w", errFlush, err)
		return l.err
	}
	return nil
}

// Writes reports how many writes the log has issued to its segments:
// one per flush of the group-commit buffer.
func (l *Log) Writes() uint64 { return l.writes }

// Sync writes the buffered records and makes every appended record
// durable.
func (l *Log) Sync() error {
	if l.closed {
		return ErrClosed
	}
	if l.err != nil {
		return l.err
	}
	if !l.dirty || l.f == nil {
		return nil
	}
	if err := l.flush(); err != nil {
		return err
	}
	if err := fsx.SyncFile(l.f); err != nil {
		return err
	}
	l.dirty = false
	return nil
}

// roll finalizes the active segment and starts a new one named by the
// next sequence number. The directory entry is fsynced so the new
// segment survives a crash that follows immediately.
func (l *Log) roll() error {
	if l.f != nil {
		if err := l.flush(); err != nil {
			return err
		}
		if err := fsx.SyncFile(l.f); err != nil {
			return err
		}
		if err := l.f.Close(); err != nil {
			return err
		}
		l.f = nil
	}
	name := filepath.Join(l.dir, segmentName(l.next))
	f, err := os.OpenFile(name, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if err := fsx.SyncDir(l.dir); err != nil {
		return errors.Join(err, f.Close())
	}
	l.f = f
	l.size = 0
	l.dirty = false
	return nil
}

// Replay streams every record with sequence > after, in order, to fn.
// It writes out the buffered records first, then re-reads and
// re-verifies the segment files, so it reports (not panics on)
// anything that changed since Open.
func (l *Log) Replay(after uint64, fn func(seq uint64, payload []byte) error) error {
	if l.err != nil {
		return l.err
	}
	if err := l.flush(); err != nil {
		return err
	}
	segs, err := listSegments(l.dir)
	if err != nil {
		return err
	}
	for _, seg := range segs {
		if err := replaySegment(filepath.Join(l.dir, seg.name), seg.firstSeq, after, l.next, fn); err != nil {
			return err
		}
	}
	return nil
}

// Prune removes whole segments whose every record is <= upto (already
// captured by a durable checkpoint). The segment holding upto+1 — and
// the active segment — always survive.
func (l *Log) Prune(upto uint64) error {
	if l.closed {
		return ErrClosed
	}
	segs, err := listSegments(l.dir)
	if err != nil {
		return err
	}
	removed := false
	for i, seg := range segs {
		if i == len(segs)-1 {
			break // active segment
		}
		// Records in seg run [seg.firstSeq, next.firstSeq).
		if segs[i+1].firstSeq > upto+1 {
			break
		}
		if err := os.Remove(filepath.Join(l.dir, seg.name)); err != nil {
			return err
		}
		l.first = segs[i+1].firstSeq
		removed = true
	}
	if removed {
		return fsx.SyncDir(l.dir)
	}
	return nil
}

// Reset discards every record and continues the sequence at next. It
// is for a host whose durable state already covers all the log holds
// and more: a checkpoint published past the log's last durable record,
// as a power loss after the checkpoint but before the log's fsync
// leaves behind. Appending at the old LastSeq()+1 would reuse
// sequences the host already counts as applied. Segments are removed
// first and the new one is created by the next Append, so a crash
// anywhere in between leaves an empty log that needs the same Reset.
func (l *Log) Reset(next uint64) error {
	if l.closed {
		return ErrClosed
	}
	if next <= l.LastSeq() {
		return fmt.Errorf("wal: reset to sequence %d would reuse sequences up to %d", next, l.LastSeq())
	}
	l.buf = l.buf[:0]
	if l.f != nil {
		if err := l.f.Close(); err != nil {
			return err
		}
		l.f = nil
	}
	segs, err := listSegments(l.dir)
	if err != nil {
		return err
	}
	for _, seg := range segs {
		if err := os.Remove(filepath.Join(l.dir, seg.name)); err != nil {
			return err
		}
	}
	if err := fsx.SyncDir(l.dir); err != nil {
		return err
	}
	l.next, l.first, l.size, l.dirty = next, 0, 0, false
	return nil
}

// Close writes the buffered records, syncs, and releases the active
// segment.
func (l *Log) Close() error {
	if l.closed {
		return nil
	}
	l.closed = true
	if l.f == nil {
		return nil
	}
	err := l.err
	if err == nil {
		err = l.flush()
	}
	if err == nil {
		err = fsx.SyncFile(l.f)
	}
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	l.f = nil
	return err
}

// Abandon releases the log the way a process death would: records
// still in the group-commit buffer are dropped unwritten and nothing
// is synced. Hosts that simulate a crash use it in place of Close.
func (l *Log) Abandon() error {
	if l.closed {
		return nil
	}
	l.closed = true
	l.buf = l.buf[:0]
	if l.f == nil {
		return nil
	}
	err := l.f.Close()
	l.f = nil
	return err
}

type segment struct {
	name     string
	firstSeq uint64
}

// listSegments returns the dir's segment files in sequence order,
// validating that names parse and first sequences strictly increase.
func listSegments(dir string) ([]segment, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var segs []segment
	for _, ent := range ents {
		name := ent.Name()
		if ent.IsDir() || !strings.HasSuffix(name, segSuffix) {
			continue
		}
		seq, err := strconv.ParseUint(strings.TrimSuffix(name, segSuffix), 10, 64)
		if err != nil || seq == 0 {
			return nil, fmt.Errorf("%w: segment name %q", ErrCorrupt, name)
		}
		segs = append(segs, segment{name: name, firstSeq: seq})
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].firstSeq < segs[j].firstSeq })
	for i := 1; i < len(segs); i++ {
		if segs[i].firstSeq <= segs[i-1].firstSeq {
			return nil, fmt.Errorf("%w: duplicate segment sequence %d", ErrCorrupt, segs[i].firstSeq)
		}
	}
	return segs, nil
}

func segmentName(firstSeq uint64) string {
	return fmt.Sprintf("%020d%s", firstSeq, segSuffix)
}

type scanResult struct {
	records uint64
	nextSeq uint64 // sequence after the last valid record
	keep    int64  // valid byte prefix of the segment
	torn    int64  // bytes past keep (only ever non-zero on the tail)
}

// scanSegment validates one segment. wantSeq is the sequence its first
// record must carry (contiguity across segments); tail marks the last
// segment, the only place torn bytes are survivable.
func scanSegment(path string, nameSeq, wantSeq uint64, tail bool) (scanResult, error) {
	res := scanResult{nextSeq: wantSeq}
	data, err := os.ReadFile(path)
	if err != nil {
		return res, err
	}
	if nameSeq != wantSeq {
		return res, fmt.Errorf("%w: segment %s starts at sequence %d, want %d (events lost)",
			ErrCorrupt, filepath.Base(path), nameSeq, wantSeq)
	}
	off := int64(0)
	for {
		_, n, err := decodeRecord(data[off:], res.nextSeq)
		if err == errShortRecord {
			break // torn tail candidate
		}
		if err != nil {
			if tail && int64(len(data))-off-n <= 0 {
				// The damaged record is the very last thing in the
				// log: indistinguishable from a torn final write, so
				// recoverable by truncation.
				break
			}
			return res, fmt.Errorf("%w: segment %s offset %d: %v", ErrCorrupt, filepath.Base(path), off, err)
		}
		off += n
		res.records++
		res.nextSeq++
	}
	res.keep = off
	if rest := int64(len(data)) - off; rest > 0 {
		if !tail {
			return res, fmt.Errorf("%w: segment %s has %d trailing bytes but is not the tail segment",
				ErrCorrupt, filepath.Base(path), rest)
		}
		res.torn = rest
	}
	return res, nil
}

// errShortRecord marks a record cut off by the end of the segment —
// the torn-tail signature.
var errShortRecord = errors.New("record extends past end of segment")

// decodeRecord parses the record at the head of data, checking frame,
// checksum, and the expected sequence number. n reports the full
// record length claimed by the header (meaningful even on error, so
// the caller can tell "damage at the very end" from "damage mid-log").
func decodeRecord(data []byte, wantSeq uint64) (payload []byte, n int64, err error) {
	if len(data) < headerSize {
		return nil, int64(len(data)), errShortRecord
	}
	plen := binary.LittleEndian.Uint32(data[0:4])
	if plen == 0 || plen > MaxRecord {
		// A length this wrong means the header bytes themselves are
		// damaged; treat like a cut record so a torn tail stays
		// recoverable, and let the caller decide if position makes it
		// corruption.
		return nil, int64(len(data)), errShortRecord
	}
	n = headerSize + int64(plen)
	if int64(len(data)) < n {
		return nil, int64(len(data)), errShortRecord
	}
	sum := binary.LittleEndian.Uint32(data[4:8])
	seq := binary.LittleEndian.Uint64(data[8:16])
	if got := crc32.ChecksumIEEE(data[8:n]); got != sum {
		return nil, n, fmt.Errorf("checksum %08x, want %08x", got, sum)
	}
	if seq != wantSeq {
		return nil, n, fmt.Errorf("sequence %d, want %d", seq, wantSeq)
	}
	return data[headerSize:n], n, nil
}

// replaySegment streams records with sequence > after to fn. limit is
// the log's next sequence: anything at/after it (torn bytes truncated
// after Open, foreign appends) is ignored.
func replaySegment(path string, firstSeq, after, limit uint64, fn func(uint64, []byte) error) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	off, seq := int64(0), firstSeq
	for seq < limit {
		payload, n, err := decodeRecord(data[off:], seq)
		if err == errShortRecord {
			return nil
		}
		if err != nil {
			return fmt.Errorf("%w: segment %s offset %d: %v", ErrCorrupt, filepath.Base(path), off, err)
		}
		if seq > after {
			if err := fn(seq, payload); err != nil {
				return err
			}
		}
		off += n
		seq++
	}
	return nil
}
