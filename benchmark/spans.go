package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's side
// of the call. Times are nanoseconds since the traced run began. Spans of
// one request share op; parent is the index+1 of the enclosing span in the
// same list, 0 for a request's outermost span.
type span struct {
	name       string
	op         uint32
	parent     uint32
	start, end int64
}

func (s span) duration() time.Duration { return time.Duration(s.end - s.start) }

// selfTimes sums, per span name, each span's duration minus the part of it
// its direct children cover. Children may overlap each other and may stick
// out of their parent; only their union inside the parent's interval is
// subtracted.
func selfTimes(spans []span) map[string]time.Duration {
	children := make(map[uint32][]int)
	for i, s := range spans {
		if s.parent != 0 {
			children[s.parent] = append(children[s.parent], i)
		}
	}
	self := make(map[string]time.Duration)
	for i, s := range spans {
		kids := children[uint32(i+1)]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].start < spans[kids[b]].start })
		covered, edge := int64(0), s.start
		for _, k := range kids {
			lo, hi := max(spans[k].start, edge), min(spans[k].end, s.end)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[s.name] += time.Duration(s.end - s.start - covered)
	}
	return self
}

// maxSpansWritten bounds a trace file: the first spans of a rung describe it
// as well as the last, and the totals in the result come from all of them.
const maxSpansWritten = 20000

// writeSpans writes one rung's spans as a JSON array of
// {"name","op","id","parent","start_ns","end_ns"} objects, at most
// maxSpansWritten of them, and reports how many it wrote.
func writeSpans(w *bufio.Writer, rung string, spans []span) int {
	n := min(len(spans), maxSpansWritten)
	fmt.Fprintf(w, "{\"rung\":%q,\"spans_recorded\":%d,\"spans\":[", rung, len(spans))
	for i, s := range spans[:n] {
		if i > 0 {
			w.WriteByte(',')
		}
		fmt.Fprintf(w, "\n{\"name\":%q,\"op\":%d,\"id\":%d,\"parent\":%d,\"start_ns\":%d,\"end_ns\":%d}",
			s.name, s.op, i+1, s.parent, s.start, s.end)
	}
	w.WriteString("]}")
	return n
}

// rungSpans is one rung's recorded spans, kept until the trace file is
// written at the end of the run.
type rungSpans struct {
	rung  string
	spans []span
}

// writeTraceFile writes every rung's spans to dir/trace-<workload>.json.
func writeTraceFile(dir, workload string, rungs []rungSpans) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintf(w, "{\"workload\":%q,\"rungs\":[\n", workload)
	for i, r := range rungs {
		if i > 0 {
			w.WriteString(",\n")
		}
		writeSpans(w, r.rung, r.spans)
	}
	w.WriteString("\n]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
