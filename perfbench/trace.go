package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"time"
)

// span is one timed call the benchmark made into a layer of the program.
// Parent indexes the enclosing span in the tracer (-1 for a root); Op groups
// the spans of one measured operation.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Op     int64  `json:"op"`
}

// tracer records spans in memory. The nil tracer records nothing, so the
// untraced run executes the same code with one pointer test per span site.
// Spans are begun and ended on the benchmark's driving goroutine only.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id (-1 on the nil tracer).
func (t *tracer) begin(name string, parent int, op int64) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Start: int64(time.Since(t.t0)), Parent: parent, Op: op})
	return len(t.spans) - 1
}

// end closes the span begun as id.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	t.spans[id].End = int64(time.Since(t.t0))
}

// spanStat aggregates every span of one name.
type spanStat struct {
	Count   int
	TotalNs int64
	SelfNs  int64
}

// MeanMs is the mean span duration in milliseconds (0 when none ran).
func (s spanStat) MeanMs() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.TotalNs) / float64(s.Count) / 1e6
}

// stats aggregates spans by name. A span's self time is its duration minus
// the part of its interval that its child spans cover.
func (t *tracer) stats() map[string]spanStat {
	out := map[string]spanStat{}
	if t == nil {
		return out
	}
	children := make([][]int, len(t.spans))
	for i, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	for i, s := range t.spans {
		st := out[s.Name]
		st.Count++
		st.TotalNs += s.End - s.Start
		st.SelfNs += s.End - s.Start - t.covered(s, children[i])
		out[s.Name] = st
	}
	return out
}

// covered is the length of the union of the child intervals, clipped to the
// parent's interval.
func (t *tracer) covered(parent span, kids []int) int64 {
	type iv struct{ lo, hi int64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(t.spans[k].Start, parent.Start), min(t.spans[k].End, parent.End)
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
		case v.lo > curHi:
			total += curHi - curLo
			curLo, curHi = v.lo, v.hi
		case v.hi > curHi:
			curHi = v.hi
		}
	}
	if open {
		total += curHi - curLo
	}
	return total
}

// write dumps every span as one JSON object per line.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("write spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}
