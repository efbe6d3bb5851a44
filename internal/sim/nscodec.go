package sim

// Namespace files: the binary codec a version-4 checkpoint stores its
// file-system state in — the full tree, a delta against the base
// checkpoint, the CaptureAt clone and each snapshot-series member.
//
//	header   magic "ADRN", version u8, kind u8, taken i64,
//	         record count u64, user count u64, user-table hash u64
//	         (fixed-width little endian, 38 bytes)
//	records  ascending path order, each:
//	           op u8 (1 upsert, 2 delete)
//	           shared uvarint   bytes shared with the previous path
//	           suffix uvarint + bytes
//	           upserts only: user uvarint, size varint,
//	           stripes varint, atime varint
//	trailer  CRC-32C (Castagnoli) of everything before it, u32 LE
//
// Front coding makes a record cost its path's new suffix plus a few
// varint bytes, so encoding is a linear pass with no compressor; the
// records stream from FS.Walk or from the sorted AppendDirty working
// set, never from a materialized trace.Snapshot. A full file is a
// delta with no base and no deletes, so one decoder reads every kind.
//
// User IDs are stored raw. The header's user count and FNV-1a hash of
// the names in ID order tie a file to the user table it was written
// against: resuming over a reordered or different table fails instead
// of attributing files to the wrong owners.
//
// Decoding verifies the length and the CRC before it parses a record,
// so a truncated or bit-flipped file is rejected whole. Every decode
// failure wraps ErrCorruptCheckpoint and none panics (see
// FuzzCheckpointNamespace).

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"

	"activedr/internal/timeutil"
	"activedr/internal/trace"
	"activedr/internal/vfs"
)

const (
	nsMagic      = "ADRN"
	nsVersion    = 1
	nsHeaderSize = 38
	nsTrailer    = 4
	// nsFlushAt is the encoder's write granularity: records accumulate
	// in the caller's buffer and go out in chunks of about this size.
	nsFlushAt = 64 << 10

	nsKindFull  byte = 1 // every record an upsert: a whole namespace
	nsKindDelta byte = 2 // upserts and deletes against a base

	nsOpUpsert byte = 1
	nsOpDelete byte = 2
)

// ErrCorruptCheckpoint tags every namespace-file decode failure:
// truncation, bad magic or version, CRC mismatch, out-of-order paths,
// and records that do not parse all wrap it.
var ErrCorruptCheckpoint = errors.New("sim: corrupt checkpoint")

func corruptNS(format string, args ...any) error {
	return fmt.Errorf(format+": %w", append(args, ErrCorruptCheckpoint)...)
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// userPrint fingerprints a user table: its size and an FNV-1a hash of
// the names in ID order, each followed by a zero byte.
type userPrint struct {
	n   int
	sum uint64
}

func fingerprintUsers(users []trace.User) userPrint {
	const offset64, prime64 = 14695981039346656037, 1099511628211
	sum := uint64(offset64)
	for i := range users {
		name := users[i].Name
		for j := 0; j < len(name); j++ {
			sum = (sum ^ uint64(name[j])) * prime64
		}
		sum *= prime64 // the terminating zero byte: sum ^ 0 == sum
	}
	return userPrint{n: len(users), sum: sum}
}

// nsHeader is a namespace file's fixed-width front.
type nsHeader struct {
	Kind    byte
	Taken   timeutil.Time
	Count   int // records that follow
	Users   int // user-table size the file was written against
	UserSum uint64
}

func appendNSHeader(dst []byte, h *nsHeader) []byte {
	dst = append(dst, nsMagic...)
	dst = append(dst, nsVersion, h.Kind)
	dst = binary.LittleEndian.AppendUint64(dst, uint64(h.Taken))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(h.Count))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(h.Users))
	return binary.LittleEndian.AppendUint64(dst, h.UserSum)
}

// parseNSHeader decodes the header at the front of b, which holds at
// least nsHeaderSize bytes.
func parseNSHeader(b []byte) (nsHeader, error) {
	if string(b[:4]) != nsMagic {
		return nsHeader{}, corruptNS("bad magic %q", b[:4])
	}
	if b[4] != nsVersion {
		return nsHeader{}, corruptNS("namespace format version %d, want %d", b[4], nsVersion)
	}
	h := nsHeader{
		Kind:    b[5],
		Taken:   timeutil.Time(binary.LittleEndian.Uint64(b[6:])),
		UserSum: binary.LittleEndian.Uint64(b[30:]),
	}
	if h.Kind != nsKindFull && h.Kind != nsKindDelta {
		return nsHeader{}, corruptNS("unknown namespace kind %d", h.Kind)
	}
	count, users := binary.LittleEndian.Uint64(b[14:]), binary.LittleEndian.Uint64(b[22:])
	if count > math.MaxInt32 || users > math.MaxInt32 {
		return nsHeader{}, corruptNS("implausible counts: %d records, %d users", count, users)
	}
	h.Count, h.Users = int(count), int(users)
	return h, nil
}

// nsRecord is one namespace-file entry. Deletes carry only Op and
// Path.
type nsRecord struct {
	Op      byte
	Path    string
	User    trace.UserID
	Size    int64
	Stripes int
	ATime   timeutil.Time
}

// appendNSRecord front-codes r against prev, the path of the record
// before it ("" for the first). The caller guarantees r.Path > prev.
func appendNSRecord(dst []byte, prev string, r *nsRecord) []byte {
	shared := 0
	for shared < len(prev) && shared < len(r.Path) && prev[shared] == r.Path[shared] {
		shared++
	}
	dst = append(dst, r.Op)
	dst = binary.AppendUvarint(dst, uint64(shared))
	dst = binary.AppendUvarint(dst, uint64(len(r.Path)-shared))
	dst = append(dst, r.Path[shared:]...)
	if r.Op == nsOpUpsert {
		dst = binary.AppendUvarint(dst, uint64(r.User))
		dst = binary.AppendVarint(dst, r.Size)
		dst = binary.AppendVarint(dst, int64(r.Stripes))
		dst = binary.AppendVarint(dst, int64(r.ATime))
	}
	return dst
}

// nsWriter streams one namespace file to w: the header up front, then
// records in chunks of about nsFlushAt bytes, then the CRC trailer.
// The first error sticks; finish reports it.
type nsWriter struct {
	w     io.Writer
	buf   []byte
	crc   uint32
	prev  string
	left  int // records the header still owes
	users int
	err   error
}

// newNSWriter starts a file whose header promises h.Count records.
// buf is scratch the writer reuses (finish hands it back).
func newNSWriter(w io.Writer, buf []byte, h *nsHeader) *nsWriter {
	return &nsWriter{w: w, buf: appendNSHeader(buf[:0], h), left: h.Count, users: h.Users}
}

func (nw *nsWriter) add(r *nsRecord) {
	switch {
	case nw.err != nil:
		return
	case nw.left == 0:
		nw.err = errors.New("sim: namespace file holds more records than its header counts")
		return
	case r.Path <= nw.prev:
		nw.err = fmt.Errorf("sim: namespace path %q does not sort after %q", r.Path, nw.prev)
		return
	case r.Op == nsOpUpsert && (r.User < 0 || int(r.User) >= nw.users):
		nw.err = fmt.Errorf("sim: %s: user id %d outside the %d-user table", r.Path, r.User, nw.users)
		return
	}
	nw.buf = appendNSRecord(nw.buf, nw.prev, r)
	nw.prev = r.Path
	nw.left--
	if len(nw.buf) >= nsFlushAt {
		nw.flush()
	}
}

// upsert and remove are add for the two record ops.
func (nw *nsWriter) upsert(path string, m vfs.FileMeta) {
	nw.add(&nsRecord{Op: nsOpUpsert, Path: path, User: m.User, Size: m.Size, Stripes: m.Stripes, ATime: m.ATime})
}

func (nw *nsWriter) remove(path string) { nw.add(&nsRecord{Op: nsOpDelete, Path: path}) }

func (nw *nsWriter) flush() {
	if nw.err != nil || len(nw.buf) == 0 {
		return
	}
	nw.crc = crc32.Update(nw.crc, castagnoli, nw.buf)
	_, nw.err = nw.w.Write(nw.buf)
	nw.buf = nw.buf[:0]
}

// finish writes the remaining records and the trailer. It returns the
// scratch buffer for reuse and the first error of the whole file.
func (nw *nsWriter) finish() ([]byte, error) {
	if nw.err == nil && nw.left != 0 {
		nw.err = fmt.Errorf("sim: namespace file holds %d records fewer than its header counts", nw.left)
	}
	nw.flush()
	if nw.err == nil {
		_, nw.err = nw.w.Write(binary.LittleEndian.AppendUint32(nw.buf[:0], nw.crc))
	}
	return nw.buf[:0], nw.err
}

// walkInto emits every file of ns, in its (ascending) walk order.
func walkInto(nw *nsWriter, ns vfs.Namespace) {
	ns.Walk(func(path string, m vfs.FileMeta) bool {
		nw.upsert(path, m)
		return nw.err == nil
	})
}

// snapshotInto emits a snapshot's entries, which must ascend by path
// (vfs snapshots do: they are walks).
func snapshotInto(nw *nsWriter, s *trace.Snapshot) {
	for i := range s.Entries {
		e := &s.Entries[i]
		nw.add(&nsRecord{Op: nsOpUpsert, Path: e.Path, User: e.User, Size: e.Size, Stripes: e.Stripes, ATime: e.ATime})
		if nw.err != nil {
			return
		}
	}
}

// nsDecoder walks the records of one verified namespace file.
type nsDecoder struct {
	hdr  nsHeader
	b    []byte // records region
	off  int
	path []byte // current path, front-coded against
	seen int
}

// openNS verifies a whole namespace file — length, CRC, header, user
// table, kind — and returns a decoder over its records.
func openNS(data []byte, fp userPrint, kind byte) (*nsDecoder, error) {
	if len(data) < nsHeaderSize+nsTrailer {
		return nil, corruptNS("namespace file of %d bytes is shorter than its header", len(data))
	}
	body := data[:len(data)-nsTrailer]
	if want, got := binary.LittleEndian.Uint32(data[len(body):]), crc32.Checksum(body, castagnoli); want != got {
		return nil, corruptNS("namespace file CRC %08x, trailer says %08x", got, want)
	}
	h, err := parseNSHeader(body)
	if err != nil {
		return nil, err
	}
	if h.Kind != kind {
		return nil, corruptNS("namespace file of kind %d where kind %d belongs", h.Kind, kind)
	}
	if h.Users != fp.n || h.UserSum != fp.sum {
		return nil, fmt.Errorf("sim: namespace file was written against a different user table (%d users, hash %016x; this dataset has %d, %016x)",
			h.Users, h.UserSum, fp.n, fp.sum)
	}
	return &nsDecoder{hdr: h, b: body[nsHeaderSize:]}, nil
}

func (d *nsDecoder) uvarint() (uint64, error) {
	v, n := binary.Uvarint(d.b[d.off:])
	if n <= 0 {
		return 0, corruptNS("bad varint at record %d", d.seen)
	}
	d.off += n
	return v, nil
}

func (d *nsDecoder) varint() (int64, error) {
	v, n := binary.Varint(d.b[d.off:])
	if n <= 0 {
		return 0, corruptNS("bad varint at record %d", d.seen)
	}
	d.off += n
	return v, nil
}

// decodeNSRecord reads the next record into r. It returns io.EOF once
// exactly the header's count has been read and no byte is left.
func (d *nsDecoder) decodeNSRecord(r *nsRecord) error {
	if d.seen == d.hdr.Count {
		if d.off != len(d.b) {
			return corruptNS("%d bytes after the last record", len(d.b)-d.off)
		}
		return io.EOF
	}
	if d.off >= len(d.b) {
		return corruptNS("namespace file ends after %d of %d records", d.seen, d.hdr.Count)
	}
	op := d.b[d.off]
	d.off++
	if op != nsOpUpsert && (op != nsOpDelete || d.hdr.Kind != nsKindDelta) {
		return corruptNS("record %d: op %d not allowed in a kind-%d file", d.seen, op, d.hdr.Kind)
	}
	shared, err := d.uvarint()
	if err != nil {
		return err
	}
	suffix, err := d.uvarint()
	if err != nil {
		return err
	}
	if shared > uint64(len(d.path)) || suffix > uint64(len(d.b)-d.off) {
		return corruptNS("record %d: path (%d shared + %d new bytes) out of bounds", d.seen, shared, suffix)
	}
	prevLen := len(d.path)
	// Ascending order: the new path must differ within the suffix, and
	// its first new byte must exceed the previous path's byte there.
	if suffix == 0 || (shared < uint64(prevLen) && d.b[d.off] <= d.path[shared]) {
		return corruptNS("record %d: path does not sort after its predecessor", d.seen)
	}
	d.path = append(d.path[:shared], d.b[d.off:d.off+int(suffix)]...)
	d.off += int(suffix)
	*r = nsRecord{Op: op, Path: string(d.path)}
	if op == nsOpUpsert {
		user, err := d.uvarint()
		if err != nil {
			return err
		}
		if user >= uint64(d.hdr.Users) {
			return corruptNS("record %d: user id %d outside the %d-user table", d.seen, user, d.hdr.Users)
		}
		size, err := d.varint()
		if err != nil {
			return err
		}
		stripes, err := d.varint()
		if err != nil {
			return err
		}
		if stripes < math.MinInt32 || stripes > math.MaxInt32 {
			return corruptNS("record %d: stripe count %d out of range", d.seen, stripes)
		}
		atime, err := d.varint()
		if err != nil {
			return err
		}
		r.User, r.Size, r.Stripes, r.ATime = trace.UserID(user), size, int(stripes), timeutil.Time(atime)
	}
	d.seen++
	return nil
}

// readNS decodes the namespace file at path, handing each record to
// fn in order, and returns the header.
func readNS(path string, fp userPrint, kind byte, fn func(*nsRecord) error) (nsHeader, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nsHeader{}, err
	}
	d, err := openNS(data, fp, kind)
	if err != nil {
		return nsHeader{}, fmt.Errorf("%s: %w", path, err)
	}
	var r nsRecord
	for {
		switch err := d.decodeNSRecord(&r); err {
		case nil:
		case io.EOF:
			return d.hdr, nil
		default:
			return nsHeader{}, fmt.Errorf("%s: %w", path, err)
		}
		if err := fn(&r); err != nil {
			return nsHeader{}, fmt.Errorf("%s: %w", path, err)
		}
	}
}

// readNSSnapshot decodes a whole-namespace file as a snapshot.
func readNSSnapshot(path string, fp userPrint) (*trace.Snapshot, error) {
	var entries []trace.SnapshotEntry
	h, err := readNS(path, fp, nsKindFull, func(r *nsRecord) error {
		entries = append(entries, trace.SnapshotEntry{Path: r.Path, User: r.User, Size: r.Size, Stripes: r.Stripes, ATime: r.ATime})
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &trace.Snapshot{Taken: h.Taken, Entries: entries}, nil
}

func (r *nsRecord) meta() vfs.FileMeta {
	return vfs.FileMeta{User: r.User, Size: r.Size, Stripes: r.Stripes, ATime: r.ATime}
}
