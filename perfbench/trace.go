package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the public function it calls. Spans of one op share Op; Parent is the
// ID of the span that caused this one (0 for an op's root span).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Op     int64  `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"startNs"` // since the tracer's epoch
	End    int64  `json:"endNs"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory; they are written out once, at the end of
// the run. A nil *tracer records nothing, so untraced code pays one nil
// check per layer boundary.
type tracer struct {
	epoch time.Time
	ids   atomic.Int64
	ops   atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// newOp allocates an op ID (0 on a nil tracer).
func (t *tracer) newOp() int64 {
	if t == nil {
		return 0
	}
	return t.ops.Add(1)
}

// openSpan is a span whose end is not yet recorded.
type openSpan struct {
	t *tracer
	s span
}

// begin opens a span named name under parent (0 for an op's root).
func (t *tracer) begin(op, parent int64, name string) *openSpan {
	if t == nil {
		return nil
	}
	return &openSpan{t: t, s: span{
		ID: t.ids.Add(1), Parent: parent, Op: op, Name: name,
		Start: int64(time.Since(t.epoch)),
	}}
}

// id is the span's ID, the parent of the spans it causes.
func (o *openSpan) id() int64 {
	if o == nil {
		return 0
	}
	return o.s.ID
}

// end records the span.
func (o *openSpan) end() {
	if o == nil {
		return
	}
	o.s.End = int64(time.Since(o.t.epoch))
	o.t.mu.Lock()
	o.t.spans = append(o.t.spans, o.s)
	o.t.mu.Unlock()
}

// snapshot returns a copy of the recorded spans.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// writeJSONL writes every span as one JSON line.
func (t *tracer) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes returns, for every span ID, its duration minus the part of its
// interval that its child spans cover. Overlapping children (concurrent
// calls) are counted once; child time outside the parent's interval is
// not subtracted.
func selfTimes(spans []span) map[int64]time.Duration {
	children := map[int64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[int64]time.Duration, len(spans))
	for _, s := range spans {
		out[s.ID] = s.dur() - covered(s, children[s.ID])
	}
	return out
}

// covered is the length of the union of the kids' intervals clipped to
// the parent's interval.
func covered(parent span, kids []span) time.Duration {
	type iv struct{ lo, hi int64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var total, curLo, curHi int64
	open := false
	for _, v := range ivs {
		switch {
		case !open:
			curLo, curHi, open = v.lo, v.hi, true
		case v.lo <= curHi:
			curHi = max(curHi, v.hi)
		default:
			total += curHi - curLo
			curLo, curHi = v.lo, v.hi
		}
	}
	if open {
		total += curHi - curLo
	}
	return time.Duration(total)
}
