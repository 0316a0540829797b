package main

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"time"

	"telecast/internal/session"
	"telecast/internal/workload"
)

// tally is what the drivers saw, classified the way httpapi classifies
// outcomes for /metricz Totals — so that on a wire run the two must be equal.
type tally struct {
	attempted, failed int
	// calls counts hand-offs to the entry point: one per op, or one per
	// batch.
	calls               uint64
	joinsAccepted       uint64
	joinsRejected       uint64
	leaves              uint64
	viewChanges         uint64
	viewChangesRejected uint64
	// rejections counts refused joins and view changes by the reason the
	// overlay gave.
	rejections [session.ReasonInboundBound + 1]uint64
}

// cdnRefused is the number of joins and view changes refused because the CDN
// could not take the stream: its egress exhausted with no peer layer to turn
// to, or the peer layer full and the CDN unable to absorb the overflow.
func (t tally) cdnRefused() uint64 {
	return t.rejections[session.ReasonCDNEgress] + t.rejections[session.ReasonDegreeExhausted]
}

// reasons renders the non-zero rejection counts.
func (t tally) reasons() string {
	var parts []string
	for r, n := range t.rejections {
		if n > 0 {
			parts = append(parts, fmt.Sprintf("%q: %d", session.RejectReason(r), n))
		}
	}
	return "{" + strings.Join(parts, ", ") + "}"
}

func (t *tally) add(o tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	t.calls += o.calls
	t.joinsAccepted += o.joinsAccepted
	t.joinsRejected += o.joinsRejected
	t.leaves += o.leaves
	t.viewChanges += o.viewChanges
	t.viewChangesRejected += o.viewChangesRejected
	for r, n := range o.rejections {
		t.rejections[r] += n
	}
}

// classify folds one outcome into the tally. An admission rejection is an
// outcome; any other error an op ends in is a failure, and its text is
// returned.
func (t *tally) classify(kind workload.EventKind, o workload.Outcome) string {
	rejected := errors.Is(o.Err, session.ErrRejected)
	if o.Err != nil && !rejected {
		t.failed++
		return fmt.Sprintf("%v %s: %v", kind, o.ID, o.Err)
	}
	if rejected {
		var rej *session.RejectionError
		if errors.As(o.Err, &rej) && int(rej.Reason) < len(t.rejections) {
			t.rejections[rej.Reason]++
		}
	}
	switch kind {
	case workload.EventJoin:
		if rejected {
			t.joinsRejected++
		} else {
			t.joinsAccepted++
		}
	case workload.EventLeave:
		t.leaves++
	case workload.EventViewChange:
		t.viewChanges++
		if !o.Admitted {
			t.viewChangesRejected++
		}
	}
	return ""
}

// driverLog is one driver's private record of a run: no two drivers write
// the same log, so recording takes no lock.
type driverLog struct {
	driver int
	tally
	// lat holds one latency sample per call, by the kind of op it carried.
	lat [opView + 1][]time.Duration
	// failure is the first failure this driver saw.
	failure string
	// win is the window being filled, begun at winStart; windows holds the
	// closed ones.
	win      window
	winStart time.Time
	windows  []window
	// spans is filled only by a traced rung.
	spans []span
	// open is the index+1 in spans of the call in flight, for a layer below
	// that records a child span.
	open uint32
	// bytes counts request and response body bytes, where the transport is
	// this benchmark's own and can see them.
	bytes int64
}

// window is a slice of the measured part over which the end-to-end metrics
// are computed before the median across windows is reported: ops completed,
// the time they took, and the latency of every join call among them.
type window struct {
	ops   int
	dur   time.Duration
	joins []time.Duration
}

func (w window) opsPerSecond() float64 { return float64(w.ops) / w.dur.Seconds() }

type logKey struct{}

// logFrom returns the log of the driver whose call carries ctx, or nil.
func logFrom(ctx context.Context) *driverLog {
	l, _ := ctx.Value(logKey{}).(*driverLog)
	return l
}

// childSpan records a span inside the driver's call in flight.
func (l *driverLog) childSpan(name string, epoch time.Time, start, end time.Time) {
	if l == nil || l.open == 0 {
		return
	}
	l.spans = append(l.spans, span{name: name, op: l.spans[l.open-1].op, parent: l.open,
		start: int64(start.Sub(epoch)), end: int64(end.Sub(epoch))})
}

// runner replays schedule phases into one target with one goroutine per
// driver. Each driver is a closed loop: it hands the entry point its next
// op, or batch, when the previous reply has been decoded.
type runner struct {
	tgt target
	// batch is the number of same-kind ops handed over per call; 1 uses the
	// entry point's single-op form.
	batch   int
	oneView bool
	logs    []*driverLog
	// windowOps, when positive, makes each driver close a window every that
	// many ops; otherwise the caller closes windows with cutWindow.
	windowOps int
	// spanNames, when set, makes every call a recorded span named after its
	// op kind, timed from epoch.
	spanNames [opView + 1]string
	epoch     time.Time
	// afterCall, if set, runs on the driver's goroutine after each call.
	afterCall func(*driverLog)
}

func (r *runner) recording() bool { return r.spanNames[opJoin] != "" }

func newRunner(tgt target, drivers, batch int, oneView bool) *runner {
	r := &runner{tgt: tgt, batch: batch, oneView: oneView, logs: make([]*driverLog, drivers)}
	r.reset()
	return r
}

// giveUpAfter is the number of consecutive failed calls after which a driver
// stops sending and counts the rest of its ops as failed: the system under
// test is gone, and a run must still end.
const giveUpAfter = 50

// runPhase runs one phase to its end, or until deadline if that is set, and
// returns the wall time from the drivers' common start to the last driver's
// finish.
func (r *runner) runPhase(ctx context.Context, ph phase, deadline time.Time) time.Duration {
	var wg sync.WaitGroup
	start := time.Now()
	for d := range r.logs {
		wg.Add(1)
		go func(log *driverLog, ops []op) {
			defer wg.Done()
			r.drive(context.WithValue(ctx, logKey{}, log), log, ops, deadline)
		}(r.logs[d], ph.ops[d])
	}
	wg.Wait()
	return time.Since(start)
}

func (r *runner) drive(ctx context.Context, log *driverLog, ops []op, deadline time.Time) {
	reqs := make([]workload.Request, 0, r.batch)
	badCalls := 0
	if r.windowOps > 0 {
		log.win, log.winStart = window{}, time.Now()
	}
	for i := 0; i < len(ops); {
		n := 1
		for n < r.batch && i+n < len(ops) && ops[i+n].kind == ops[i].kind {
			n++
		}
		reqs = reqs[:0]
		for _, o := range ops[i : i+n] {
			reqs = append(reqs, o.request(r.oneView))
		}
		begin := time.Now()
		if !deadline.IsZero() && begin.After(deadline) {
			return
		}
		kind := ops[i].kind
		i += n
		log.attempted += n
		if badCalls >= giveUpAfter {
			log.failed += n
			continue
		}
		if r.recording() {
			opID := uint32((i-n)*len(r.logs) + log.driver)
			log.spans = append(log.spans, span{name: r.spanNames[kind], op: opID, start: int64(begin.Sub(r.epoch))})
			log.open = uint32(len(log.spans))
		}
		var outs []workload.Outcome
		var err error
		if r.batch == 1 {
			var o workload.Outcome
			o, err = r.tgt.do(ctx, reqs[0])
			outs = append(outs, o)
		} else {
			outs, err = r.tgt.exec(ctx, reqs)
		}
		end := time.Now()
		if r.recording() {
			log.spans[log.open-1].end = int64(end.Sub(r.epoch))
			log.open = 0
		}
		log.calls++
		log.lat[kind] = append(log.lat[kind], end.Sub(begin))
		log.win.ops += n
		if kind == opJoin {
			log.win.joins = append(log.win.joins, end.Sub(begin))
		}
		if r.windowOps > 0 && log.win.ops >= r.windowOps {
			log.win.dur = end.Sub(log.winStart)
			log.windows = append(log.windows, log.win)
			log.win, log.winStart = window{}, end
		}

		if err == nil && len(outs) != n {
			err = fmt.Errorf("%d outcomes for %d requests", len(outs), n)
		}
		if err != nil {
			badCalls++
			log.failed += n
			if log.failure == "" {
				log.failure = fmt.Sprintf("%v call: %v", kind, err)
			}
			continue
		}
		badCalls = 0
		for k, o := range outs {
			if msg := log.classify(reqs[k].Kind, o); msg != "" && log.failure == "" {
				log.failure = msg
			}
		}
		if r.afterCall != nil {
			r.afterCall(log)
		}
	}
}

// cutWindow closes one window over all drivers: what they did since the
// last cut, in the given wall time. It is how a looping schedule makes each
// cycle a window.
func (r *runner) cutWindow(wall time.Duration) {
	w := window{dur: wall}
	for _, l := range r.logs {
		w.ops += l.win.ops
		w.joins = append(w.joins, l.win.joins...)
		l.win = window{}
	}
	r.logs[0].windows = append(r.logs[0].windows, w)
}

// windowStats reduces the closed windows to the medians the end-to-end
// metrics report. A window a single driver closed covers that driver's share
// of the throughput, so it is scaled by the driver count.
func (r *runner) windowStats() (opsPerS, joinP50, joinP95 float64, n int) {
	scale := 1.0
	if r.windowOps > 0 {
		scale = float64(len(r.logs))
	}
	var rate, p50, p95 []float64
	for _, l := range r.logs {
		for _, w := range l.windows {
			slices.Sort(w.joins)
			rate = append(rate, scale*w.opsPerSecond())
			p50 = append(p50, ms(percentile(w.joins, 50)))
			p95 = append(p95, ms(percentile(w.joins, 95)))
		}
	}
	return median(rate), median(p50), median(p95), len(rate)
}

// total merges the drivers' tallies.
func (r *runner) total() tally {
	var t tally
	for _, l := range r.logs {
		t.add(l.tally)
	}
	return t
}

// latencies merges the drivers' samples of one op kind, ascending.
func (r *runner) latencies(kind opKind) []time.Duration {
	var all []time.Duration
	for _, l := range r.logs {
		all = append(all, l.lat[kind]...)
	}
	slices.Sort(all)
	return all
}

// allLatencies merges every sample of every kind, ascending.
func (r *runner) allLatencies() []time.Duration {
	var all []time.Duration
	for _, l := range r.logs {
		for _, s := range l.lat {
			all = append(all, s...)
		}
	}
	slices.Sort(all)
	return all
}

// failure returns the first failure any driver saw.
func (r *runner) failure() string {
	for _, l := range r.logs {
		if l.failure != "" {
			return l.failure
		}
	}
	return ""
}

// reset forgets everything recorded so far: called between the warm-up and
// the measured part.
func (r *runner) reset() {
	for d := range r.logs {
		r.logs[d] = &driverLog{driver: d}
	}
}

// spans merges the drivers' spans into one list, fixing up parent indices.
func (r *runner) spans() []span {
	var all []span
	for _, l := range r.logs {
		base := uint32(len(all))
		for _, s := range l.spans {
			if s.parent != 0 {
				s.parent += base
			}
			all = append(all, s)
		}
	}
	return all
}

// mergeDrivers folds a phase's per-driver lists into one list, round-robin:
// the single-threaded replay the overlay rung needs. A viewer's ops all sit
// in one driver's list, so their order survives.
func mergeDrivers(ph phase) phase {
	var merged []op
	for i := 0; ; i++ {
		took := false
		for _, ops := range ph.ops {
			if i < len(ops) {
				merged = append(merged, ops[i])
				took = true
			}
		}
		if !took {
			break
		}
	}
	return phase{name: ph.name, ops: [][]op{merged}}
}
