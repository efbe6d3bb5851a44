package sim

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"activedr/internal/faults"
	"activedr/internal/randx"
	"activedr/internal/timeutil"
	"activedr/internal/trace"
)

// nsUsers is a user table of n users named u000, u001, ...
func nsUsers(n int) []trace.User {
	users := make([]trace.User, n)
	for i := range users {
		users[i] = trace.User{ID: trace.UserID(i), Name: fmt.Sprintf("u%03d", i)}
	}
	return users
}

// encodeNS writes recs (ascending) as one namespace file.
func encodeNS(t testing.TB, kind byte, taken timeutil.Time, fp userPrint, recs []nsRecord) []byte {
	t.Helper()
	var buf bytes.Buffer
	nw := newNSWriter(&buf, nil, &nsHeader{Kind: kind, Taken: taken, Count: len(recs), Users: fp.n, UserSum: fp.sum})
	for i := range recs {
		nw.add(&recs[i])
	}
	if _, err := nw.finish(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// decodeNS reads every record of a namespace file.
func decodeNS(data []byte, fp userPrint, kind byte) (nsHeader, []nsRecord, error) {
	d, err := openNS(data, fp, kind)
	if err != nil {
		return nsHeader{}, nil, err
	}
	var recs []nsRecord
	for {
		var r nsRecord
		switch err := d.decodeNSRecord(&r); err {
		case nil:
			recs = append(recs, r)
		case io.EOF:
			return d.hdr, recs, nil
		default:
			return nsHeader{}, nil, err
		}
	}
}

// withCRC returns data with its last four bytes replaced by the
// CRC-32C of the rest: arbitrary bytes that pass the checksum and so
// reach the record parser.
func withCRC(data []byte) []byte {
	out := slices.Clone(data)
	body := out[:len(out)-nsTrailer]
	binary.LittleEndian.PutUint32(out[len(body):], crc32.Checksum(body, castagnoli))
	return out
}

func upsert(path string, user int, size int64, stripes int, atime timeutil.Time) nsRecord {
	return nsRecord{Op: nsOpUpsert, Path: path, User: trace.UserID(user), Size: size, Stripes: stripes, ATime: atime}
}

func del(path string) nsRecord { return nsRecord{Op: nsOpDelete, Path: path} }

// randomRecords draws n distinct paths over a small alphabet (so
// prefixes are shared often), sorts them, and makes each an upsert or,
// with deletes, a removal.
func randomRecords(src *randx.Source, n, users int, deletes bool) []nsRecord {
	seen := make(map[string]bool)
	var paths []string
	for len(paths) < n {
		var b strings.Builder
		b.WriteString("/lustre")
		for d := src.Intn(6); d >= 0; d-- {
			b.WriteByte('/')
			for k := src.Intn(4); k >= 0; k-- {
				b.WriteByte("ab\xc3\xa9\xffz"[src.Intn(6)])
			}
		}
		if p := b.String(); !seen[p] {
			seen[p] = true
			paths = append(paths, p)
		}
	}
	slices.Sort(paths)
	recs := make([]nsRecord, n)
	for i, p := range paths {
		if deletes && src.Bool(0.3) {
			recs[i] = del(p)
			continue
		}
		recs[i] = upsert(p, src.Intn(users), src.Int63()>>src.Intn(63), src.Intn(64), timeutil.Time(src.Int63()-math.MaxInt64/2))
	}
	return recs
}

// TestNamespaceRoundTrip: every record written comes back unchanged,
// in order, with the header's stamp, for the shapes the codec must
// handle — empty files, one entry, paths sharing long prefixes or
// being prefixes of each other, non-ASCII and non-UTF-8 bytes,
// removal-only deltas, and metadata at the integer extremes.
func TestNamespaceRoundTrip(t *testing.T) {
	fp := fingerprintUsers(nsUsers(7))
	deep := "/lustre" + strings.Repeat("/deep", 300)
	cases := []struct {
		name string
		kind byte
		recs []nsRecord
	}{
		{"empty full", nsKindFull, nil},
		{"empty delta", nsKindDelta, nil},
		{"single", nsKindFull, []nsRecord{upsert("/lustre/u000/a.dat", 0, 1<<20, 4, 1456000000)}},
		{"deep shared prefixes", nsKindFull, []nsRecord{
			upsert(deep, 1, 1, 1, 1),
			upsert(deep+"/a", 2, 2, 2, 2),
			upsert(deep+"/a/b", 3, 3, 3, 3),
			upsert(deep+"/a/c", 4, 4, 4, 4),
			upsert(deep+"x", 5, 5, 5, 5),
		}},
		{"non-ascii", nsKindDelta, []nsRecord{
			upsert("/lustre/données/fichier.h5", 0, 10, 1, 100),
			del("/lustre/données/été"),
			upsert("/lustre/数据/文件", 6, 20, 2, 200),
			upsert("/lustre/\xfe\xff/raw", 3, 30, 3, 300),
		}},
		{"deletes only", nsKindDelta, []nsRecord{del("/a"), del("/a/b"), del("/b"), del("/c/d/e")}},
		{"extremes", nsKindFull, []nsRecord{
			upsert("/max", 6, math.MaxInt64, math.MaxInt32, math.MaxInt64),
			upsert("/min", 0, 0, math.MinInt32, math.MinInt64),
			upsert("/neg", 6, -1, -1, -1),
			upsert("/zero", 0, 0, 0, 0),
		}},
	}
	src := randx.New(42)
	for i := 0; i < 8; i++ {
		cases = append(cases, struct {
			name string
			kind byte
			recs []nsRecord
		}{fmt.Sprintf("random delta %d", i), nsKindDelta, randomRecords(src, 1+src.Intn(300), fp.n, true)})
		cases = append(cases, struct {
			name string
			kind byte
			recs []nsRecord
		}{fmt.Sprintf("random full %d", i), nsKindFull, randomRecords(src, 1+src.Intn(300), fp.n, false)})
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			taken := timeutil.Time(1456790400)
			data := encodeNS(t, tc.kind, taken, fp, tc.recs)
			h, got, err := decodeNS(data, fp, tc.kind)
			if err != nil {
				t.Fatal(err)
			}
			if h.Taken != taken || h.Count != len(tc.recs) || h.Kind != tc.kind {
				t.Fatalf("header %+v, want kind %d taken %d count %d", h, tc.kind, taken, len(tc.recs))
			}
			if len(got) != len(tc.recs) || (len(got) > 0 && !reflect.DeepEqual(got, tc.recs)) {
				t.Fatalf("round trip lost records:\n got  %+v\n want %+v", got, tc.recs)
			}
			// Encoding is deterministic: the decoded records re-encode
			// to the same bytes.
			if again := encodeNS(t, tc.kind, taken, fp, got); !bytes.Equal(again, data) {
				t.Fatal("re-encoding the decoded records changed the bytes")
			}
		})
	}
}

// TestNamespaceLargeFileChunks crosses the encoder's flush size, so the
// CRC must chain across several writes.
func TestNamespaceLargeFileChunks(t *testing.T) {
	fp := fingerprintUsers(nsUsers(3))
	recs := randomRecords(randx.New(7), 12000, fp.n, true)
	data := encodeNS(t, nsKindDelta, 0, fp, recs)
	if len(data) < 2*nsFlushAt {
		t.Fatalf("fixture only %d bytes; want several flushes", len(data))
	}
	if _, got, err := decodeNS(data, fp, nsKindDelta); err != nil || !reflect.DeepEqual(got, recs) {
		t.Fatalf("large round trip: err %v, %d of %d records", err, len(got), len(recs))
	}
}

// TestNamespaceCorruptionDetected truncates a written file at every
// byte and flips every byte of it: each damaged copy must fail with
// ErrCorruptCheckpoint, never panic and never decode.
func TestNamespaceCorruptionDetected(t *testing.T) {
	fp := fingerprintUsers(nsUsers(5))
	data := encodeNS(t, nsKindDelta, 1456790400, fp, randomRecords(randx.New(3), 40, fp.n, true))
	for n := 0; n < len(data); n++ {
		if _, _, err := decodeNS(data[:n], fp, nsKindDelta); !errors.Is(err, ErrCorruptCheckpoint) {
			t.Fatalf("truncated to %d of %d bytes: %v, want ErrCorruptCheckpoint", n, len(data), err)
		}
	}
	for i := range data {
		for _, mask := range []byte{0x01, 0x80, 0xff} {
			bad := slices.Clone(data)
			bad[i] ^= mask
			if _, _, err := decodeNS(bad, fp, nsKindDelta); !errors.Is(err, ErrCorruptCheckpoint) {
				t.Fatalf("byte %d ^ %#x: %v, want ErrCorruptCheckpoint", i, mask, err)
			}
		}
	}
}

// TestNamespaceRejectsUnsorted: paths out of ascending order — a
// descent, a duplicate, a path followed by its own prefix — fail to
// decode even under a valid CRC, and the encoder refuses to write them.
func TestNamespaceRejectsUnsorted(t *testing.T) {
	fp := fingerprintUsers(nsUsers(2))
	for _, pair := range [][2]string{
		{"/b", "/a"},
		{"/a", "/a"},
		{"/a/b", "/a"},
		{"/a/c", "/a/b/z"},
	} {
		recs := []nsRecord{upsert(pair[0], 0, 1, 1, 1), upsert(pair[1], 1, 2, 2, 2)}
		// Hand-assemble the file; the writer itself would refuse.
		h := nsHeader{Kind: nsKindFull, Count: 2, Users: fp.n, UserSum: fp.sum}
		data := appendNSHeader(nil, &h)
		data = appendNSRecord(data, "", &recs[0])
		data = appendNSRecord(data, recs[0].Path, &recs[1])
		data = withCRC(append(data, 0, 0, 0, 0))
		if _, _, err := decodeNS(data, fp, nsKindFull); !errors.Is(err, ErrCorruptCheckpoint) {
			t.Errorf("%q then %q decoded: %v", pair[0], pair[1], err)
		}
		var sink bytes.Buffer
		nw := newNSWriter(&sink, nil, &h)
		nw.add(&recs[0])
		nw.add(&recs[1])
		if _, err := nw.finish(); err == nil {
			t.Errorf("%q then %q: the encoder wrote an unsorted file", pair[0], pair[1])
		}
	}
}

// TestNamespaceUserTable: a file written against one user table does
// not load against a reordered or resized one, and the encoder refuses
// user IDs outside its table.
func TestNamespaceUserTable(t *testing.T) {
	users := nsUsers(4)
	fp := fingerprintUsers(users)
	data := encodeNS(t, nsKindFull, 0, fp, []nsRecord{upsert("/a", 3, 1, 1, 1)})
	swapped := slices.Clone(users)
	swapped[0].Name, swapped[1].Name = swapped[1].Name, swapped[0].Name
	for name, other := range map[string][]trace.User{"reordered": swapped, "resized": nsUsers(5)} {
		if _, _, err := decodeNS(data, fingerprintUsers(other), nsKindFull); err == nil || !strings.Contains(err.Error(), "different user table") {
			t.Errorf("%s user table: %v", name, err)
		}
	}
	var sink bytes.Buffer
	nw := newNSWriter(&sink, nil, &nsHeader{Kind: nsKindFull, Count: 1, Users: fp.n, UserSum: fp.sum})
	nw.add(&nsRecord{Op: nsOpUpsert, Path: "/a", User: 4})
	if _, err := nw.finish(); err == nil {
		t.Error("encoder accepted a user id outside the table")
	}
	// A full file admits no removals.
	delta := encodeNS(t, nsKindDelta, 0, fp, []nsRecord{del("/a")})
	if _, _, err := decodeNS(delta, fp, nsKindFull); !errors.Is(err, ErrCorruptCheckpoint) {
		t.Errorf("delta read as a full file: %v", err)
	}
}

// TestCheckpointCorruptNamespaceRejected damages the namespace files a
// resume reads — the full base and the delta on top of it — at every
// byte: truncated or flipped, the load fails with ErrCorruptCheckpoint
// instead of resuming from altered state.
func TestCheckpointCorruptNamespaceRejected(t *testing.T) {
	ds := tinyDataset()
	cfg := Config{TargetUtilization: 0.5}
	em, err := New(ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	o := RunOptions{CheckpointDir: dir, CheckpointFullEvery: 3, StopAfterTriggers: 5}
	if _, err := em.RunWith(em.NewFLT(), o); !errors.Is(err, ErrInterrupted) {
		t.Fatal(err)
	}
	name, cs := latestState(t, dir)
	if cs.Kind != kindDelta {
		t.Fatalf("latest checkpoint %s is %q, want a delta", name, cs.Kind)
	}
	load := func() error {
		_, err := em.loadCheckpoint(em.NewFLT(), RunOptions{CheckpointDir: dir})
		return err
	}
	if err := load(); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{filepath.Join(dir, cs.Base, fsFile), filepath.Join(dir, name, deltaFile)} {
		orig, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		damage := func(what string, data []byte) {
			if err := os.WriteFile(p, data, 0o644); err != nil {
				t.Fatal(err)
			}
			if err := load(); !errors.Is(err, ErrCorruptCheckpoint) {
				t.Fatalf("%s %s: load returned %v, want ErrCorruptCheckpoint", filepath.Base(p), what, err)
			}
		}
		for n := 0; n < len(orig); n++ {
			damage(fmt.Sprintf("truncated to %d bytes", n), orig[:n])
		}
		for i := range orig {
			bad := slices.Clone(orig)
			bad[i] ^= 0xff
			damage(fmt.Sprintf("byte %d flipped", i), bad)
		}
		if err := os.WriteFile(p, orig, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := load(); err != nil {
		t.Fatalf("restored checkpoint no longer loads: %v", err)
	}
}

// TestCheckpointV3Resumes resumes the committed version-3 chain in
// testdata/v3chain (a full checkpoint and two deltas, written by the
// last version-3 build; see its README): the resumed run's Result must
// equal an uninterrupted run's, and its first checkpoint must be a
// full version-4 one, since a delta cannot base on the old format.
func TestCheckpointV3Resumes(t *testing.T) {
	ds, err := trace.LoadDataset(filepath.Join("testdata", "v3chain", "data"))
	if err != nil {
		t.Fatal(err)
	}
	// cmd/simulate's FLT run with -snapshots: 90-day lifetime, weekly
	// triggers and series snapshots, the fault injector at its default
	// seed (its state is in the checkpoint; -fault-kill killed it).
	cfg := Config{
		Lifetime: timeutil.Days(90), TriggerInterval: timeutil.Days(7),
		TargetUtilization: 0.5, SnapshotEvery: timeutil.Days(7),
	}
	injector := func() *faults.Injector { return faults.New(faults.Config{Seed: 1}) }
	em, err := New(ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := em.RunWith(em.NewFLT(), RunOptions{Faults: injector()})
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	copyTree(t, filepath.Join("testdata", "v3chain", "flt"), dir)
	name, cs := latestState(t, dir)
	if cs.Version != 3 || cs.Kind != kindDelta {
		t.Fatalf("fixture: latest %s is version %d %q, want a version-3 delta", name, cs.Version, cs.Kind)
	}
	o := RunOptions{CheckpointDir: dir, CheckpointFullEvery: 4, Faults: injector()}
	o.StopAfterTriggers = cs.Triggers + 1
	em1, err := New(ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := em1.Resume(em1.NewFLT(), o); !errors.Is(err, ErrInterrupted) {
		t.Fatalf("want ErrInterrupted after one more trigger, got %v", err)
	}
	next, ncs := latestState(t, dir)
	if ncs.Version != checkpointVersion || ncs.Kind != kindFull || ncs.Base != "" {
		t.Fatalf("first checkpoint after the v3 resume, %s, is version %d %q (base %q); want a full version-%d one",
			next, ncs.Version, ncs.Kind, ncs.Base, checkpointVersion)
	}
	if _, err := os.Stat(filepath.Join(dir, next, fsFile)); err != nil {
		t.Fatalf("full version-4 checkpoint lacks %s: %v", fsFile, err)
	}

	o.StopAfterTriggers = 0
	o.Faults = injector()
	em2, err := New(ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := em2.Resume(em2.NewFLT(), o)
	if err != nil {
		t.Fatal(err)
	}
	requireSameResult(t, want, got)

	// The same chain resumed straight to the end matches as well.
	dir2 := t.TempDir()
	copyTree(t, filepath.Join("testdata", "v3chain", "flt"), dir2)
	em3, err := New(ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, err = em3.Resume(em3.NewFLT(), RunOptions{CheckpointDir: dir2, Faults: injector()})
	if err != nil {
		t.Fatal(err)
	}
	requireSameResult(t, want, got)
}

// FuzzCheckpointNamespace drives arbitrary bytes through the namespace
// decoder, as they are and with a valid CRC trailer so they reach the
// record parser. Every failure must wrap ErrCorruptCheckpoint; every
// success must re-encode to a file that decodes to the same records.
func FuzzCheckpointNamespace(f *testing.F) {
	fp := fingerprintUsers(nsUsers(3))
	f.Add(encodeNS(f, nsKindFull, 0, fp, nil))
	f.Add(encodeNS(f, nsKindFull, 9, fp, randomRecords(randx.New(1), 5, fp.n, false)))
	valid := encodeNS(f, nsKindDelta, 1, fp, randomRecords(randx.New(2), 8, fp.n, true))
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add([]byte(nsMagic))
	f.Fuzz(func(t *testing.T, data []byte) {
		inputs := [][]byte{data}
		if len(data) >= nsTrailer {
			inputs = append(inputs, withCRC(data))
		}
		for _, in := range inputs {
			// Take the user table from the header itself, so the
			// records rather than the fingerprint check decide.
			fp := userPrint{}
			if len(in) >= nsHeaderSize {
				fp = userPrint{n: int(binary.LittleEndian.Uint64(in[22:]) & math.MaxInt32), sum: binary.LittleEndian.Uint64(in[30:])}
			}
			for _, kind := range []byte{nsKindFull, nsKindDelta} {
				h, recs, err := decodeNS(in, fp, kind)
				if err != nil {
					if !errors.Is(err, ErrCorruptCheckpoint) && !strings.Contains(err.Error(), "different user table") {
						t.Fatalf("decode error %v not typed", err)
					}
					continue
				}
				again := encodeNS(t, h.Kind, h.Taken, fp, recs)
				if _, recs2, err := decodeNS(again, fp, kind); err != nil || !reflect.DeepEqual(recs, recs2) {
					t.Fatalf("re-encoded file does not decode to the same records: %v", err)
				}
			}
		}
	})
}
