package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer: which op (trace) it belongs
// to, which span caused it, and when it ran. Allocs is the number of
// heap objects the process allocated inside it, where measured (-1
// otherwise).
type span struct {
	Trace  int64  `json:"trace"`
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Allocs int64  `json:"allocs"`
}

func (s span) dur() int64 { return s.End - s.Start }

// recorder keeps spans in memory until the run ends. A nil recorder
// records nothing, so the same re-enactment code runs traced and
// untraced (the difference between the two is the tracing overhead).
type recorder struct {
	epoch time.Time

	mu     sync.Mutex
	nextID int64
	spans  []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// spanRef is an open span; end closes it.
type spanRef struct {
	r             *recorder
	trace, parent int64
	id            int64
	name          string
	start         int64
}

func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

// newID reserves a span id (0 is "no parent").
func (r *recorder) newID() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.nextID++
	return r.nextID
}

// begin opens a span under parent (0 for a root span of the op).
func (r *recorder) begin(trace, parent int64, name string) spanRef {
	if r == nil {
		return spanRef{}
	}
	return spanRef{r: r, trace: trace, parent: parent, id: r.newID(), name: name, start: r.now()}
}

// end closes the span and records it.
func (s spanRef) end() { s.endAllocs(-1) }

// endAllocs closes the span, recording the allocations made inside it.
func (s spanRef) endAllocs(allocs int64) {
	if s.r == nil {
		return
	}
	s.r.add(span{Trace: s.trace, ID: s.id, Parent: s.parent, Name: s.name, Start: s.start, End: s.r.now(), Allocs: allocs})
}

func (r *recorder) add(s span) {
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// snapshot returns the spans recorded so far.
func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval covered by its children. Children that overlap each
// other (concurrent calls) are counted once, and a child running past
// its parent's end only covers the parent's own interval.
func selfTimes(spans []span) []int64 {
	idx := make(map[int64]int, len(spans))
	for i, s := range spans {
		idx[s.ID] = i
	}
	kids := make(map[int][]span)
	for _, s := range spans {
		if p, ok := idx[s.Parent]; ok && s.Parent != 0 {
			kids[p] = append(kids[p], s)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.dur() - covered(s, kids[i])
	}
	return self
}

// covered measures the union of the children's intervals clipped to
// the parent's.
func covered(parent span, children []span) int64 {
	type iv struct{ lo, hi int64 }
	ivs := make([]iv, 0, len(children))
	for _, c := range children {
		lo, hi := max(c.Start, parent.Start), min(c.End, parent.End)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(a, b int) bool { return ivs[a].lo < ivs[b].lo })
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
	return total
}

// layerTotals sums self time (ns), calls and measured allocations per
// span name.
type layerTotal struct {
	selfNS, calls, allocs int64
}

func layerTotals(spans []span) map[string]layerTotal {
	self := selfTimes(spans)
	out := make(map[string]layerTotal)
	for i, s := range spans {
		t := out[s.Name]
		t.selfNS += self[i]
		t.calls++
		if s.Allocs > 0 {
			t.allocs += s.Allocs
		}
		out[s.Name] = t
	}
	return out
}

// writeSpans writes the spans as JSON lines and returns the file name.
func writeSpans(dir, name string, spans []span) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return "", fmt.Errorf("write spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", fmt.Errorf("write spans: %w", err)
	}
	return path, f.Close()
}
