package main

import (
	"context"
	"fmt"
	"net/http"
	"os"
	"runtime"
	"time"

	"telecast/internal/httpapi"
	"telecast/internal/httpapi/client"
	"telecast/internal/session"
	"telecast/internal/workload"
)

// sut is a started system under test: a child behind a client, or a
// controller in this process.
type sut struct {
	tgt   target
	child *child
	cl    *client.Client
	ctrl  *session.Controller
}

// newHTTPClient returns a keep-alive client with one connection per driver.
// The timeout is far above any stall seen (a couple of seconds): an op that
// hits it is a failure, not a slow success.
func newHTTPClient(drivers int) *http.Client {
	return &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxIdleConns:        drivers,
			MaxIdleConnsPerHost: drivers,
			IdleConnTimeout:     time.Minute,
		},
	}
}

// start brings the workload's system up once and returns it with the time
// that took: spawn until /healthz answers for a child, latency matrix plus
// NewController for the in-process plane.
func (s spec) start(nodeBin string, hc *http.Client) (*sut, time.Duration, error) {
	if s.wire {
		c, ready, err := startChild(nodeBin, s.sys.seed, s.sys.maxViewers, s.sys.cdnMbps, hc)
		if err != nil {
			return nil, 0, err
		}
		cl := client.New(c.base, client.WithHTTPClient(hc))
		return &sut{tgt: clientTarget{cl}, child: c, cl: cl}, ready, nil
	}
	// Start from a collected heap: at a millisecond a start, whether the
	// previous instance's garbage is collected during this one decides the
	// number.
	runtime.GC()
	begin := time.Now()
	producers, err := newProducers()
	if err != nil {
		return nil, 0, err
	}
	lat, err := s.sys.latency()
	if err != nil {
		return nil, 0, err
	}
	ctrl, err := s.sys.controller(producers, lat, false)
	if err != nil {
		return nil, 0, err
	}
	took := time.Since(begin)
	return &sut{tgt: newSessionTarget(ctrl, producers), ctrl: ctrl}, took, nil
}

func (u *sut) stop() {
	if u.child != nil {
		u.child.stop()
	}
	if u.ctrl != nil {
		u.ctrl.Close()
	}
}

// totals reads the child's request-level outcome counters; the in-process
// plane has none, and the zero value it returns is never compared.
func (u *sut) totals(ctx context.Context) (httpapi.Totals, error) {
	if u.cl == nil {
		return httpapi.Totals{}, nil
	}
	m, err := u.cl.Metrics(ctx)
	return m.Totals, err
}

// peakRSSMB is the resident-set high-water mark of the process that hosts
// the control plane: the child, or this process.
func (u *sut) peakRSSMB() (float64, error) {
	if u.child != nil {
		return u.child.peakRSSMB()
	}
	return vmHWM(os.Getpid())
}

// checker accumulates the output checks of a run. A run with any problem is
// not correct, whatever its numbers.
type checker struct{ problems []string }

func (c *checker) failf(format string, args ...any) {
	if len(c.problems) < 20 {
		c.problems = append(c.problems, fmt.Sprintf(format, args...))
	}
}

// checkViewers holds the control plane's live viewer count against what the
// schedule says it must be at this point.
func (c *checker) checkViewers(ctx context.Context, tgt target, at string, want int) {
	got, err := tgt.counters(ctx)
	if err != nil {
		c.failf("%s: read counters: %v", at, err)
	} else if got.Viewers != want {
		c.failf("%s: control plane holds %d viewers, schedule says %d", at, got.Viewers, want)
	}
}

// runCycle runs a looping schedule's cycle with its checks: the audience is
// exactly the ramp's size at the peak and zero after the drain, and with
// validate the in-process controller's invariants hold at both points.
// atPeak, if set, is called at the peak, outside the timed phases.
func runCycle(ctx context.Context, r *runner, u *sut, sched schedule, chk *checker, validate bool, atPeak func()) (wall time.Duration) {
	for _, ph := range sched.cycle {
		wall += r.runPhase(ctx, ph, time.Time{})
		want := 0
		if ph.name == "ramp" {
			want = ph.len()
		}
		chk.checkViewers(ctx, r.tgt, "after "+ph.name, want)
		if validate && u.ctrl != nil {
			if err := u.ctrl.Validate(); err != nil {
				chk.failf("after %s: Controller.Validate: %v", ph.name, err)
			}
		}
		if ph.name == "ramp" && atPeak != nil {
			atPeak()
		}
		if u.ctrl != nil {
			// The controller lives in this process, and so does the garbage
			// of the checks above. Collecting it here, outside the timed
			// phases, starts every phase from the same heap; without it the
			// peak RSS depends on where in a phase a collection happened to
			// fall.
			runtime.GC()
		}
	}
	return wall
}

// measurement is what the measured part of a run produced, whichever rung
// it ran on.
type measurement struct {
	wall          time.Duration // sum of the phases' wall times
	warm          time.Duration
	tally         tally
	before, after workload.Counters
}

// acceptRatio is ρ over the measured part: streams accepted over streams
// requested, from the control plane's own counters.
func (m measurement) acceptRatio() float64 {
	req := m.after.StreamsRequested - m.before.StreamsRequested
	if req <= 0 {
		return 1
	}
	return float64(m.after.StreamsAccepted-m.before.StreamsAccepted) / float64(req)
}

// churnWindowOps is the length of a churn window per driver: long enough
// that a window's join p95 has some twenty samples beyond it, short enough
// that a run has dozens of windows and the few that hold a stall cannot
// move the median.
const churnWindowOps = 200

// measure warms the system up and then runs the measured part of sched on r
// for about the given time, with every output check the workload has.
// validate additionally runs Controller.Validate at each cycle's peak and
// drain (in-process systems only). atPeak, if set, is called once, when the
// warm-up has its full audience loaded.
func measure(ctx context.Context, r *runner, u *sut, sched schedule, seconds time.Duration, chk *checker, validate bool, atPeak func()) measurement {
	var m measurement
	warmStart := time.Now()
	live := 0
	if sched.loop {
		runCycle(ctx, r, u, sched, chk, validate, atPeak)
	} else {
		for _, ph := range sched.warm {
			r.runPhase(ctx, ph, time.Time{})
			live += ph.len()
		}
		chk.checkViewers(ctx, r.tgt, "after warm-up", live)
		if atPeak != nil {
			atPeak()
		}
	}
	m.warm = time.Since(warmStart)
	if t := r.total(); t.failed > 0 {
		chk.failf("warm-up: %d of %d ops failed; first: %s", t.failed, t.attempted, r.failure())
	}
	r.reset()

	var err error
	var totalsBefore, totalsAfter httpapi.Totals
	if totalsBefore, err = u.totals(ctx); err != nil {
		chk.failf("read /metricz before the run: %v", err)
	}
	if m.before, err = r.tgt.counters(ctx); err != nil {
		chk.failf("read counters before the run: %v", err)
	}
	begin := time.Now()
	if sched.loop {
		for time.Since(begin) < seconds {
			wall := runCycle(ctx, r, u, sched, chk, validate, nil)
			r.cutWindow(wall)
			m.wall += wall
		}
	} else {
		r.windowOps = churnWindowOps
		for _, ph := range sched.cycle {
			m.wall += r.runPhase(ctx, ph, begin.Add(seconds))
		}
	}
	m.tally = r.total()
	if m.after, err = r.tgt.counters(ctx); err != nil {
		chk.failf("read counters after the run: %v", err)
	}
	if totalsAfter, err = u.totals(ctx); err != nil {
		chk.failf("read /metricz after the run: %v", err)
	}

	t := m.tally
	if !sched.loop {
		// Rejected joins leave a routed record behind, so every join adds a
		// viewer and every leave removes one.
		want := live + int(t.joinsAccepted+t.joinsRejected) - int(t.leaves)
		if m.after.Viewers != want {
			chk.failf("after the run: control plane holds %d viewers, the drivers' tally says %d", m.after.Viewers, want)
		}
	}
	if u.cl != nil {
		checkTotals(chk, t, totalsBefore, totalsAfter)
	}
	if t.failed > 0 {
		chk.failf("%d of %d ops failed; first: %s", t.failed, t.attempted, r.failure())
	}
	if sched.loop && m.acceptRatio() != 1 {
		chk.failf("acceptance ratio %v on an unbounded CDN, want exactly 1", m.acceptRatio())
	}
	return m
}

// checkTotals requires the drivers' tally to equal the child's /metricz
// Totals deltas: both ends count the same outcomes independently, so a lost
// request, a duplicate or a decode skew breaks an equality.
func checkTotals(chk *checker, t tally, before, after httpapi.Totals) {
	pairs := []struct {
		name           string
		client, server uint64
	}{
		{"joins accepted", t.joinsAccepted, after.JoinsAccepted - before.JoinsAccepted},
		{"joins rejected", t.joinsRejected, after.JoinsRejected - before.JoinsRejected},
		{"leaves", t.leaves, after.Leaves - before.Leaves},
		{"view changes", t.viewChanges, after.ViewChanges - before.ViewChanges},
		{"view changes rejected", t.viewChangesRejected, after.ViewChangesRejected - before.ViewChangesRejected},
		{"requests", uint64(t.attempted), after.Requests - before.Requests},
	}
	for _, p := range pairs {
		if p.client != p.server {
			chk.failf("tally mismatch: %s: drivers %d, /metricz %d", p.name, p.client, p.server)
		}
	}
}

// startRepeatedly starts the workload's system several times, stopping all
// but the last, and returns the last with the median start time: at least
// three starts, and more — up to 200 — while they have taken under a second
// and a half in all, so that a start of a few milliseconds is not reported
// from three samples.
func (s spec) startRepeatedly(nodeBin string, hc *http.Client) (*sut, float64, []float64, error) {
	var took []float64
	var u *sut
	total := time.Duration(0)
	for len(took) < 3 || (len(took) < 200 && total < 1500*time.Millisecond) {
		if u != nil {
			u.stop()
		}
		var d time.Duration
		var err error
		if u, d, err = s.start(nodeBin, hc); err != nil {
			return nil, 0, nil, err
		}
		took = append(took, d.Seconds())
		total += d
	}
	return u, median(took), took, nil
}

// runE2E is one end-to-end run of a workload, tracing off: start the system
// (several times, for setup_s), warm up, measure, check, stop.
func runE2E(ctx context.Context, s spec, seed int64, seconds time.Duration, nodeBin string) report {
	s.sys.seed = seed
	sched := s.schedule(seed, int(seconds/time.Second)+1)
	rep := newReport(s, sched)
	chk := &checker{}
	hc := newHTTPClient(s.drivers)
	defer hc.CloseIdleConnections()

	u, setup, setups, err := s.startRepeatedly(nodeBin, hc)
	if err != nil {
		rep.fatal("start the system under test: %v", err)
		return rep
	}
	defer u.stop()

	r := newRunner(u.tgt, s.drivers, s.batch, s.oneView)
	m := measure(ctx, r, u, sched, seconds, chk, true, nil)

	rss, err := u.peakRSSMB()
	if err != nil {
		chk.failf("read peak RSS: %v", err)
	}
	if u.child != nil && !u.child.alive() {
		chk.failf("telecast-node exited during the run: %v; stderr tail:\n%s", u.child.err, u.child.stderr)
	}

	opsPerS, p50, p95, windows := r.windowStats()
	if windows == 0 {
		chk.failf("the measured part closed no window: nothing to report")
	}
	rep.attempted, rep.failed = m.tally.attempted, m.tally.failed
	rep.problems = chk.problems
	rep.set("setup_s", setup, "s")
	rep.set("ops_per_s", opsPerS, "1/s")
	rep.set("join_p50_ms", p50, "ms")
	rep.set("join_p95_ms", p95, "ms")
	rep.set("accept_ratio", m.acceptRatio(), "ratio")
	rep.set("peak_rss_mb", rss, "MB")
	rep.note("measured %.2f s after a %.2f s warm-up: %d ops in %d calls, %d join calls, %d windows; whole-run mean %.0f ops/s",
		m.wall.Seconds(), m.warm.Seconds(), m.tally.attempted, m.tally.calls, len(r.latencies(opJoin)), windows,
		float64(m.tally.attempted-m.tally.failed)/m.wall.Seconds())
	rep.note("setup_s is the median of %d starts: %.4g", len(setups), setups)
	return rep
}
