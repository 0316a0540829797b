package main

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
)

// metric is one named number with its unit, as the result line carries it.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is everything one run has to say. Only the result line is a
// contract (see resultLine); the rest is for a person reading the output.
type report struct {
	workload string
	seed     int64
	sha      string
	drivers  int
	batch    int
	viewers  int

	attempted, failed int
	metrics           map[string]metric
	order             []string // metric names in the order they were set
	problems          []string // failed output checks; any makes the run incorrect
	notes             []string
	table             string // the traced run's "where a join goes" table
}

func newReport(s spec, sched schedule) report {
	return report{workload: s.name, seed: sched.seed, sha: sched.sha256(),
		drivers: s.drivers, batch: s.batch, viewers: s.viewers,
		metrics: make(map[string]metric)}
}

func (r *report) set(name string, value float64, unit string) {
	if _, seen := r.metrics[name]; !seen {
		r.order = append(r.order, name)
	}
	r.metrics[name] = metric{Value: value, Unit: unit}
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// fatal records a problem that ended the run before it measured anything.
func (r *report) fatal(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

func (r report) correct() bool { return len(r.problems) == 0 }

// resultLine is the one-line JSON object a run ends with: exactly the keys
// correct, attempted, failed and metrics.
func (r report) resultLine() string {
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.correct(), max(r.attempted, 1), r.failed, r.metrics}
	b, err := json.Marshal(out)
	if err != nil {
		// Only a NaN or an infinity can get here; say which run had it.
		return fmt.Sprintf(`{"correct":false,"attempted":1,"failed":1,"metrics":{},"error":%q}`, err.Error())
	}
	return string(b)
}

// print writes the human-readable part of a report, then the result line.
func (r report) print(w io.Writer) {
	fmt.Fprintf(w, "workload %s  seed %d  drivers %d (closed loop)  batch %d  audience %d\n",
		r.workload, r.seed, r.drivers, r.batch, r.viewers)
	fmt.Fprintf(w, "schedule sha256 %s\n", r.sha)
	fmt.Fprintln(w, "transport: loopback only; no real link is measured")
	for _, n := range r.notes {
		fmt.Fprintln(w, n)
	}
	if r.table != "" {
		fmt.Fprint(w, r.table)
	}
	width := 0
	for _, name := range r.order {
		width = max(width, len(name))
	}
	for _, name := range r.order {
		m := r.metrics[name]
		fmt.Fprintf(w, "  %-*s %14.6g %s\n", width, name, m.Value, m.Unit)
	}
	fmt.Fprintf(w, "  attempted %d  failed %d  failed_share %g\n",
		r.attempted, r.failed, float64(r.failed)/float64(max(r.attempted, 1)))
	for _, p := range r.problems {
		fmt.Fprintf(w, "CHECK FAILED: %s\n", p)
	}
	fmt.Fprintln(w, r.resultLine())
}

// formatTable renders rows of cells with the columns padded to line up.
func formatTable(rows [][]string) string {
	var widths []int
	for _, row := range rows {
		for i, c := range row {
			if i >= len(widths) {
				widths = append(widths, 0)
			}
			widths[i] = max(widths[i], len([]rune(c)))
		}
	}
	var b strings.Builder
	for _, row := range rows {
		for i, c := range row {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(c)
			if i < len(row)-1 {
				b.WriteString(strings.Repeat(" ", widths[i]-len([]rune(c))))
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}
