// Package daemon implements activedrd's core: a long-running
// retention service that ingests a mutation feed (create / access /
// unlink events in the application-log schema) through a crash-safe
// write-ahead log, keeps the per-user candidate index and activeness
// scores updated online, and serves purge plans over a local
// HTTP/JSON API.
//
// The event semantics are sim.Stream's — the daemon and a batch
// replay of the same event sequence share one code path, so their
// purge plans are bit-for-bit identical (see
// TestDaemonMatchesBatchReplay).
package daemon

import (
	"fmt"
	"strconv"
	"strings"

	"activedr/internal/timeutil"
	"activedr/internal/trace"
)

// Op is a mutation event's kind. The wire values extend the access
// log's create column (0 = access, 1 = create) with 2 = unlink.
type Op uint8

const (
	OpAccess Op = 0
	OpCreate Op = 1
	OpUnlink Op = 2
)

// Event is one mutation: a file accessed, created, or unlinked.
type Event struct {
	TS   timeutil.Time
	User trace.UserID
	Op   Op
	Size int64
	Path string
}

// Encode renders the event as one WAL payload / feed line, the access
// log's TSV schema with the op in the create column:
//
//	ts \t user \t op \t size \t path
func (e *Event) Encode(users []trace.User) ([]byte, error) {
	return e.AppendEncode(nil, users)
}

// AppendEncode appends Encode's bytes to dst and returns the extended
// slice, so a caller that reuses dst encodes without allocating.
func (e *Event) AppendEncode(dst []byte, users []trace.User) ([]byte, error) {
	if e.User < 0 || int(e.User) >= len(users) {
		return dst, fmt.Errorf("daemon: event references unknown user id %d", e.User)
	}
	dst = strconv.AppendInt(dst, int64(e.TS), 10)
	dst = append(dst, '\t')
	dst = append(dst, users[e.User].Name...)
	dst = append(dst, '\t')
	dst = strconv.AppendInt(dst, int64(e.Op), 10)
	dst = append(dst, '\t')
	dst = strconv.AppendInt(dst, e.Size, 10)
	dst = append(dst, '\t')
	return append(dst, e.Path...), nil
}

// ParseEvent decodes one feed/WAL line. byName maps user names to IDs
// (trace.NameIndex over the dataset's user table).
func ParseEvent(line string, byName map[string]trace.UserID) (Event, error) {
	parts := strings.SplitN(line, "\t", 5)
	if len(parts) != 5 {
		return Event{}, fmt.Errorf("daemon: want 5 tab-separated fields, got %d", len(parts))
	}
	ts, err := strconv.ParseInt(parts[0], 10, 64)
	if err != nil {
		return Event{}, fmt.Errorf("daemon: bad timestamp %q", parts[0])
	}
	uid, ok := byName[parts[1]]
	if !ok {
		return Event{}, fmt.Errorf("daemon: unknown user %q", parts[1])
	}
	op, err := strconv.Atoi(parts[2])
	if err != nil || op < 0 || op > int(OpUnlink) {
		return Event{}, fmt.Errorf("daemon: bad op %q (want 0=access, 1=create, 2=unlink)", parts[2])
	}
	size, err := strconv.ParseInt(parts[3], 10, 64)
	if err != nil || size < 0 {
		return Event{}, fmt.Errorf("daemon: bad size %q", parts[3])
	}
	if parts[4] == "" {
		return Event{}, fmt.Errorf("daemon: empty path")
	}
	return Event{
		TS:   timeutil.Time(ts),
		User: uid,
		Op:   Op(op),
		Size: size,
		Path: parts[4],
	}, nil
}

// ParseFeed decodes a batch of newline-separated events, skipping
// blank lines and # comments (the app-log conventions).
func ParseFeed(body string, byName map[string]trace.UserID) ([]Event, error) {
	var evs []Event
	for i, line := range strings.Split(body, "\n") {
		line = strings.TrimSuffix(line, "\r")
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		ev, err := ParseEvent(line, byName)
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", i+1, err)
		}
		evs = append(evs, ev)
	}
	return evs, nil
}

// AccessEvent converts a trace access record to an event (the batch
// feed used by tests and by activedrd -feed).
func AccessEvent(a *trace.Access) Event {
	op := OpAccess
	if a.Create {
		op = OpCreate
	}
	return Event{TS: a.TS, User: a.User, Op: op, Size: a.Size, Path: a.Path}
}
