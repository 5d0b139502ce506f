package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark's own
// code around the call. Parent links a call to the cell or request
// that caused it (0 for roots); Count is the work the call did where
// that is countable (edges loaded, slots stepped, cells read).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Count  int64  `json:"count,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps every span of a run in memory until write. It is safe
// for concurrent use.
type tracer struct {
	origin time.Time
	mu     sync.Mutex
	next   int64
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// open is a started span; end records it.
type open struct {
	t      *tracer
	id     int64
	parent int64
	name   string
	start  time.Time
}

// begin starts a span under parent and reserves its id, so children
// can link to it before it ends.
func (t *tracer) begin(name string, parent int64) *open {
	return &open{t: t, id: t.newID(), parent: parent, name: name, start: time.Now()}
}

// newID reserves a span id.
func (t *tracer) newID() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	return t.next
}

// end records the span with its work count and returns its duration.
func (o *open) end(count int64) time.Duration {
	now := time.Now()
	o.t.add(span{ID: o.id, Parent: o.parent, Name: o.name,
		Start: int64(o.start.Sub(o.t.origin)), End: int64(now.Sub(o.t.origin)), Count: count})
	return now.Sub(o.start)
}

// record adds a span timed elsewhere (for example from server stamps)
// under a reserved id.
func (t *tracer) record(id int64, name string, parent int64, start, end time.Time, count int64) {
	t.add(span{ID: id, Parent: parent, Name: name,
		Start: int64(start.Sub(t.origin)), End: int64(end.Sub(t.origin)), Count: count})
}

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// named returns the spans with the given name, in record order.
func (t *tracer) named(name string) []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

// total sums the durations and counts of the spans with the given name.
func (t *tracer) total(name string) (sum time.Duration, count int64, n int) {
	for _, s := range t.named(name) {
		sum += s.dur()
		count += s.Count
		n++
	}
	return sum, count, n
}

// maxDur is the longest span with the given name.
func (t *tracer) maxDur(name string) time.Duration {
	var m time.Duration
	for _, s := range t.named(name) {
		if d := s.dur(); d > m {
			m = d
		}
	}
	return m
}

// write stores the spans as JSON lines under dir and returns the path.
func (t *tracer) write(dir, file string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("trace dir: %w", err)
	}
	path := filepath.Join(dir, file)
	f, err := os.Create(path)
	if err != nil {
		return "", fmt.Errorf("trace file: %w", err)
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return "", err
		}
	}
	t.mu.Unlock()
	if err := bw.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
