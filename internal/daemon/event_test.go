package daemon

import (
	"bytes"
	"encoding/hex"
	"os"
	"path/filepath"
	"testing"

	"activedr/internal/timeutil"
	"activedr/internal/trace"
	"activedr/internal/wal"
)

// TestWALRecordGolden pins the bytes the daemon's write path puts on
// disk for two events — an encoded create and unlink, appended through
// one reused encoding buffer as applyBatch does — to the segment a
// build with a fresh buffer per event wrote. Recovery of logs already
// on disk depends on these bytes never changing.
func TestWALRecordGolden(t *testing.T) {
	const golden = "32000000a20c794b01000000000000003134353637393034303009626f6209310934303936092f6c75737472652f61746c61732f626f622f72756e2f6f75742e6835" +
		"2f0000007c082bb502000000000000003134353637393034303009626f6209320930092f6c75737472652f61746c61732f626f622f72756e2f6f75742e6835"
	users := []trace.User{{ID: 0, Name: "alice"}, {ID: 1, Name: "bob"}}
	evs := []Event{
		{TS: timeutil.Time(1456790400), User: 1, Op: OpCreate, Size: 4096, Path: "/lustre/atlas/bob/run/out.h5"},
		{TS: timeutil.Time(1456790400), User: 1, Op: OpUnlink, Path: "/lustre/atlas/bob/run/out.h5"},
	}
	dir := t.TempDir()
	l, _, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var scratch []byte
	for i := range evs {
		if scratch, err = evs[i].AppendEncode(scratch[:0], users); err != nil {
			t.Fatal(err)
		}
		plain, err := evs[i].Encode(users)
		if err != nil || !bytes.Equal(plain, scratch) {
			t.Fatalf("Encode %q (%v) differs from AppendEncode %q", plain, err, scratch)
		}
		if _, err := l.Append(scratch); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join(dir, "00000000000000000001.wal"))
	if err != nil {
		t.Fatal(err)
	}
	if h := hex.EncodeToString(got); h != golden {
		t.Fatalf("WAL segment bytes changed:\n got  %s\n want %s", h, golden)
	}
	// A warm buffer encodes without allocating.
	if n := testing.AllocsPerRun(100, func() { scratch, _ = evs[0].AppendEncode(scratch[:0], users) }); n != 0 {
		t.Errorf("AppendEncode into a warm buffer allocated %.0f times", n)
	}
}
