package wal

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// scriptHooks vetoes or tears chosen records by their 1-based append
// attempt number.
type scriptHooks struct {
	attempts int
	vetoAt   int // attempt WriteAttempt refuses (0 = none)
	tornAt   int // attempt TornWrite cuts (0 = none)
	keep     int // bytes of the torn record that land
}

var errVeto = errors.New("scripted veto")

func (h *scriptHooks) WriteAttempt(int) error {
	h.attempts++
	if h.attempts == h.vetoAt {
		return errVeto
	}
	return nil
}

func (h *scriptHooks) TornWrite(int) (int, bool) {
	if h.attempts == h.tornAt {
		return h.keep, true
	}
	return 0, false
}

// segmentBytes returns the content of a log directory's only segment.
func segmentBytes(t *testing.T, dir string) []byte {
	t.Helper()
	segs, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != 1 {
		t.Fatalf("%d segments, want 1", len(segs))
	}
	data, err := os.ReadFile(filepath.Join(dir, segs[0].name))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func payload(i int) []byte {
	return []byte(fmt.Sprintf("event-%05d %s", i, bytes.Repeat([]byte{'x'}, i%40)))
}

// appendN appends payload(1..n) without syncing.
func appendN(t *testing.T, l *Log, n int) {
	t.Helper()
	for i := 1; i <= n; i++ {
		if _, err := l.Append(payload(i)); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
}

// TestGroupCommitBytesIdentical: a group of appends reaches the
// segment in one write, byte for byte what per-record writes leave.
func TestGroupCommitBytesIdentical(t *testing.T) {
	const n = 300
	grouped, single := t.TempDir(), t.TempDir()
	lg, _, err := Open(grouped, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ls, _, err := Open(single, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var want []byte
	for i := 1; i <= n; i++ {
		if _, err := lg.Append(payload(i)); err != nil {
			t.Fatal(err)
		}
		if _, err := ls.Append(payload(i)); err != nil {
			t.Fatal(err)
		}
		if err := ls.Sync(); err != nil {
			t.Fatal(err)
		}
		want = appendRecord(want, uint64(i), payload(i))
	}
	if lg.Writes() != 0 {
		t.Fatalf("%d writes before Sync, want 0", lg.Writes())
	}
	if err := lg.Sync(); err != nil {
		t.Fatal(err)
	}
	if lg.Writes() != 1 || ls.Writes() != n {
		t.Fatalf("writes: grouped %d (want 1), one per sync %d (want %d)", lg.Writes(), ls.Writes(), n)
	}
	for _, l := range []*Log{lg, ls} {
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if got := segmentBytes(t, grouped); !bytes.Equal(got, want) {
		t.Fatal("grouped segment differs from the records encoded one by one")
	}
	if got := segmentBytes(t, single); !bytes.Equal(got, want) {
		t.Fatal("per-record segment differs from the records encoded one by one")
	}
}

// TestGroupCommitVetoKeepsBuffer: a vetoed record leaves the records
// buffered before it in place, and its retry takes the same sequence.
func TestGroupCommitVetoKeepsBuffer(t *testing.T) {
	const k = 5
	dir := t.TempDir()
	l, _, err := Open(dir, Options{Hooks: &scriptHooks{vetoAt: k}})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, k-1)
	buffered := len(l.buf)
	if _, err := l.Append(payload(k)); !errors.Is(err, errVeto) {
		t.Fatalf("append %d = %v, want the veto", k, err)
	}
	if len(l.buf) != buffered || l.LastSeq() != k-1 {
		t.Fatalf("after the veto: %d bytes buffered (want %d), LastSeq %d (want %d)", len(l.buf), buffered, l.LastSeq(), k-1)
	}
	if seq, err := l.Append(payload(k)); err != nil || seq != k {
		t.Fatalf("retry: seq %d err %v, want seq %d", seq, err, k)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, info, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if info.Records != k {
		t.Fatalf("recovered %d records, want %d", info.Records, k)
	}
	_, got := collect(t, l2, 0)
	for i, p := range got {
		if p != string(payload(i+1)) {
			t.Fatalf("record %d = %q, want %q", i+1, p, payload(i+1))
		}
	}
}

// TestGroupCommitTornAfterBuffered: a tear after k buffered records
// writes them and the cut prefix; recovery keeps exactly the k.
func TestGroupCommitTornAfterBuffered(t *testing.T) {
	const k, keep = 7, 11
	dir := t.TempDir()
	l, _, err := Open(dir, Options{Hooks: &scriptHooks{tornAt: k + 1, keep: keep}})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, k)
	if _, err := l.Append(payload(k + 1)); !errors.Is(err, ErrTorn) {
		t.Fatalf("append %d = %v, want ErrTorn", k+1, err)
	}
	if _, err := l.Append(payload(k + 2)); !errors.Is(err, ErrClosed) {
		t.Fatalf("append after the tear = %v, want ErrClosed", err)
	}
	l2, info, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if info.Records != k || info.TornBytes != keep {
		t.Fatalf("recovered %d records and %d torn bytes, want %d and %d", info.Records, info.TornBytes, k, keep)
	}
}

// TestReplaySeesUnsyncedAppends: Replay writes the buffer out first.
func TestReplaySeesUnsyncedAppends(t *testing.T) {
	l, _, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	appendN(t, l, 9)
	seqs, got := collect(t, l, 3)
	if len(got) != 6 || seqs[0] != 4 {
		t.Fatalf("replay after 3: seqs %v, want 4..9", seqs)
	}
	for i, p := range got {
		if p != string(payload(i+4)) {
			t.Fatalf("seq %d = %q, want %q", seqs[i], p, payload(i+4))
		}
	}
}

// TestGroupCommitBufferBounded: a writer that never syncs holds at
// most flushBytes in memory, and every record still lands.
func TestGroupCommitBufferBounded(t *testing.T) {
	const n = 100_000
	dir := t.TempDir()
	l, _, err := Open(dir, Options{SegmentBytes: 64 << 20})
	if err != nil {
		t.Fatal(err)
	}
	var total int
	for i := 1; i <= n; i++ {
		p := payload(i)
		if _, err := l.Append(p); err != nil {
			t.Fatal(err)
		}
		total += headerSize + len(p)
		if len(l.buf) > flushBytes {
			t.Fatalf("append %d left %d bytes buffered, bound %d", i, len(l.buf), flushBytes)
		}
	}
	if min := uint64(total / (flushBytes + MaxRecord)); l.Writes() < min || l.Writes() > uint64(total/flushBytes) {
		t.Fatalf("%d writes for %d bytes, want between %d and %d", l.Writes(), total, min, total/flushBytes)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if got := len(segmentBytes(t, dir)); got != total {
		t.Fatalf("segment holds %d bytes, want %d", got, total)
	}
}

// TestFlushFailureIsSticky: once a buffered write fails, the log
// refuses appends and syncs for good, so nothing can land after a
// partial write.
func TestFlushFailureIsSticky(t *testing.T) {
	l, _, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 3)
	if err := l.f.Close(); err != nil { // the segment write will fail
		t.Fatal(err)
	}
	if err := l.Sync(); !errors.Is(err, errFlush) {
		t.Fatalf("Sync = %v, want a flush failure", err)
	}
	if _, err := l.Append([]byte("after")); !errors.Is(err, errFlush) {
		t.Fatalf("Append after the failure = %v, want the sticky error", err)
	}
	if err := l.Sync(); !errors.Is(err, errFlush) {
		t.Fatalf("second Sync = %v, want the sticky error", err)
	}
	if err := l.Replay(0, func(uint64, []byte) error { return nil }); !errors.Is(err, errFlush) {
		t.Fatalf("Replay = %v, want the sticky error", err)
	}
	if err := l.Close(); !errors.Is(err, errFlush) {
		t.Fatalf("Close = %v, want the sticky error", err)
	}
}

// TestAbandonDropsBuffer: a log released the way a dead process
// leaves it keeps what was written out and loses what was buffered.
func TestAbandonDropsBuffer(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	fill(t, l, 3, "synced")
	appendN(t, l, 2)
	if err := l.Abandon(); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append([]byte("late")); !errors.Is(err, ErrClosed) {
		t.Fatalf("Append after Abandon = %v, want ErrClosed", err)
	}
	l2, info, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if info.Records != 3 || info.TornBytes != 0 {
		t.Fatalf("reopened: %+v, want the 3 synced records and no torn bytes", info)
	}
}

// TestResetRestartsSequence: Reset drops every record and the next
// append starts a segment at the given sequence, which reopens clean.
func TestResetRestartsSequence(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, Options{SegmentBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	fill(t, l, 6, "covered")
	if err := l.Reset(4); err == nil {
		t.Fatal("Reset below LastSeq succeeded; it would reuse sequences")
	}
	if err := l.Reset(10); err != nil {
		t.Fatal(err)
	}
	if seq, err := l.Append([]byte("fresh")); err != nil || seq != 10 {
		t.Fatalf("append after Reset: seq %d err %v, want 10", seq, err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, info, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if info.FirstSeq != 10 || info.LastSeq != 10 || info.Segments != 1 {
		t.Fatalf("reopened: %+v, want one segment holding sequence 10", info)
	}
}

// BenchmarkAppendSyncBatch times one daemon-sized fsync group: 256
// appends of event-sized records, then Sync.
func BenchmarkAppendSyncBatch(b *testing.B) {
	l, _, err := Open(b.TempDir(), Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer l.Close()
	p := []byte("1600000000\tc\tuser0042\t4096\t/lustre/atlas/proj/user0042/run-0017/output/part-00031.h5")
	b.SetBytes(int64(256 * (headerSize + len(p))))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < 256; j++ {
			if _, err := l.Append(p); err != nil {
				b.Fatal(err)
			}
		}
		if err := l.Sync(); err != nil {
			b.Fatal(err)
		}
	}
}
