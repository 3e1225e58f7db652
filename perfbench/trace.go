package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Track (Chrome trace "thread") numbers. Worker i of a sweep or probe
// records on track trackWorker+i.
const (
	trackMain   = 0
	trackWorker = 1
	trackMatrix = 100 // serve-mixed's closed-loop matrix client
	trackReader = 101 // serve-mixed's open-loop hit reader
)

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, which is how untraced runs avoid even the clock reads.
type tracer struct {
	t0    time.Time
	ids   atomic.Int64
	mu    sync.Mutex
	spans []span
}

// span is one recorded call into a layer. Calls made once per cycle or per
// instruction are never spans of their own: they are folded into their
// cell's span as a count and a time in args.
type span struct {
	id, parent int64
	name       string
	track      int
	start, end time.Time
	args       map[string]any
}

// open is a span that has started and not yet ended.
type open struct {
	t      *tracer
	id     int64
	parent int64
	name   string
	track  int
	start  time.Time
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin starts a span under parent (0 for a root).
func (t *tracer) begin(name string, parent int64, track int) open {
	if t == nil {
		return open{}
	}
	return open{t: t, id: t.ids.Add(1), parent: parent, name: name, track: track, start: time.Now()}
}

// end records the span with the given arguments.
func (o open) end(args map[string]any) {
	if o.t == nil {
		return
	}
	o.t.add(span{id: o.id, parent: o.parent, name: o.name, track: o.track, start: o.start, end: time.Now(), args: args})
}

// record adds a span whose interval was measured elsewhere.
func (t *tracer) record(name string, parent int64, track int, start, end time.Time, args map[string]any) {
	if t == nil {
		return
	}
	t.add(span{id: t.ids.Add(1), parent: parent, name: name, track: track, start: start, end: end, args: args})
}

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// writeChrome writes the spans as Chrome trace-event JSON, which Perfetto
// and chrome://tracing open directly.
func (t *tracer) writeChrome(path string) error {
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat,omitempty"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`
		Dur  float64        `json:"dur,omitempty"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		Args map[string]any `json:"args,omitempty"`
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	evs := make([]event, 0, len(t.spans)+8)
	tracks := map[int]bool{}
	for _, s := range t.spans {
		args := map[string]any{"span": s.id}
		if s.parent != 0 {
			args["parent"] = s.parent
		}
		for k, v := range s.args {
			args[k] = v
		}
		evs = append(evs, event{
			Name: s.name, Cat: "perfbench", Ph: "X",
			TS:  float64(s.start.Sub(t.t0).Nanoseconds()) / 1e3,
			Dur: float64(s.end.Sub(s.start).Nanoseconds()) / 1e3,
			PID: 1, TID: s.track, Args: args,
		})
		tracks[s.track] = true
	}
	for tr := range tracks {
		evs = append(evs, event{Name: "thread_name", Ph: "M", PID: 1, TID: tr,
			Args: map[string]any{"name": trackName(tr)}})
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(map[string]any{"traceEvents": evs, "displayTimeUnit": "ms"}); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func trackName(tr int) string {
	switch {
	case tr == trackMain:
		return "main"
	case tr == trackMatrix:
		return "matrix client"
	case tr == trackReader:
		return "hit reader"
	default:
		return fmt.Sprintf("worker %d", tr-trackWorker)
	}
}

// selfTimes sums, per span name, the spans' total duration and their self
// time: the duration minus the part of it that child spans cover.
func (t *tracer) selfTimes() []layerTime {
	t.mu.Lock()
	defer t.mu.Unlock()
	kids := map[int64][]span{}
	for _, s := range t.spans {
		if s.parent != 0 {
			kids[s.parent] = append(kids[s.parent], s)
		}
	}
	by := map[string]*layerTime{}
	for _, s := range t.spans {
		lt := by[s.name]
		if lt == nil {
			lt = &layerTime{name: s.name}
			by[s.name] = lt
		}
		d := s.end.Sub(s.start)
		lt.count++
		lt.total += d
		lt.self += d - covered(s, kids[s.id])
	}
	out := make([]layerTime, 0, len(by))
	for _, lt := range by {
		out = append(out, *lt)
	}
	sort.Slice(out, func(i, k int) bool { return out[i].self > out[k].self })
	return out
}

type layerTime struct {
	name        string
	count       int
	total, self time.Duration
}

// covered is the length of the union of the children's intervals clipped
// to the parent's; children of one span may run in parallel and overlap.
func covered(p span, kids []span) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]time.Time, 0, len(kids))
	for _, k := range kids {
		s, e := k.start, k.end
		if s.Before(p.start) {
			s = p.start
		}
		if e.After(p.end) {
			e = p.end
		}
		if e.After(s) {
			iv = append(iv, [2]time.Time{s, e})
		}
	}
	sort.Slice(iv, func(i, k int) bool { return iv[i][0].Before(iv[k][0]) })
	var sum time.Duration
	var cur [2]time.Time
	for i, v := range iv {
		switch {
		case i == 0:
			cur = v
		case v[0].After(cur[1]):
			sum += cur[1].Sub(cur[0])
			cur = v
		case v[1].After(cur[1]):
			cur[1] = v[1]
		}
	}
	return sum + cur[1].Sub(cur[0])
}

func printSelfTimes(w io.Writer, t *tracer) {
	fmt.Fprintf(w, "layer self time from the trace (self = span minus its child spans):\n")
	fmt.Fprintf(w, "  %-22s %8s %12s %12s\n", "span", "count", "total_s", "self_s")
	for _, lt := range t.selfTimes() {
		fmt.Fprintf(w, "  %-22s %8d %12.4f %12.4f\n", lt.name, lt.count, lt.total.Seconds(), lt.self.Seconds())
	}
}
