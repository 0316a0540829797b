package main

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"time"

	"telecast/internal/cdn"
	"telecast/internal/httpapi"
	"telecast/internal/httpapi/client"
	"telecast/internal/model"
	"telecast/internal/telemetry"
	"telecast/internal/trace"
	"telecast/internal/workload"
)

// The traced run replays one seeded schedule down a ladder of entry points,
// each a layer's public functions called from this file:
//
//	wire     client.Do / client.Exec → telecast-node child over loopback
//	socket   the same client → the same handler on a loopback socket of
//	         this process (net/http both ends, no second process)
//	httpapi  the same client → httpapi.NewServer(...).Handler() called
//	         directly (codec, mux and handlers, no socket)
//	plane    workload.NewLocalPlane(...).Exec
//	session  Controller.Admit/Leave/ChangeView, JoinBatch/DepartBatch
//	overlay  a bare overlay.Manager per region
//	cdn, model  micro-loops at the call volume the overlay rung counted
//
// A rung's time per op is the mean of what its drivers saw around their
// calls, stalled calls left out — on churn the median (see perOpMicros); a
// layer's self time is its rung minus the rung below, so the self times sum
// to the wire rung.
//
// The two socket rungs run the workload's own driver count, because what
// they add — connections, wake-ups, a second process — is about concurrency.
// Every rung below runs one driver over the drivers' lists merged: two
// drivers in one process mostly measure each other (a shard-lock collision
// parks a goroutine, and a wake-up costs more than the op), which is the
// socket rungs' business, not a layer's service time.

// stallThreshold is what counts as a stalled op: three orders of magnitude
// above the median op and still well under the ~1 s stalls seen.
const stallThreshold = 250 * time.Millisecond

// rung is one pass of the ladder.
type rung struct {
	name string
	r    *runner
	m    measurement
	// perOp is the rung's time per op in µs; see perOpMicros.
	perOp float64
}

// perOpMicros reduces call latencies to one time per op in µs. On the cycle
// workloads it is the mean over the calls that did not stall, divided by the
// ops a call carries: means add up, so the layers' self times sum to the
// wire rung, and the rare one-second stall (reported on its own) would turn a
// mean into a count of stalls. On churn even the calls under the stall
// threshold have a tail two orders of magnitude above the median, so there it
// is the median call.
func perOpMicros(lat []time.Duration, batch int, churn bool) float64 {
	if churn {
		return us(percentile(lat, 50)) / float64(batch)
	}
	var sum time.Duration
	n := 0
	for _, d := range lat {
		if d <= stallThreshold {
			sum += d
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return us(sum) / float64(n) / float64(batch)
}

// spanNames name a rung's spans after the public function a call of each op
// kind enters.
func spanNames(rungName string, batch int) [opView + 1]string {
	switch rungName {
	case "wire", "socket", "httpapi":
		if batch > 1 {
			return [opView + 1]string{opJoin: "client.Exec", opLeave: "client.Exec", opView: "client.Exec"}
		}
		return [opView + 1]string{opJoin: "client.Do", opLeave: "client.Do", opView: "client.Do"}
	case "plane":
		return [opView + 1]string{opJoin: "ControlPlane.Exec", opLeave: "ControlPlane.Exec", opView: "ControlPlane.Exec"}
	case "overlay":
		return [opView + 1]string{opJoin: "Manager.Join", opLeave: "Manager.Leave", opView: "Manager.ChangeView"}
	}
	if batch > 1 {
		return [opView + 1]string{opJoin: "Controller.JoinBatch", opLeave: "Controller.DepartBatch", opView: "Controller.ChangeView"}
	}
	return [opView + 1]string{opJoin: "Controller.Admit", opLeave: "Controller.Leave", opView: "Controller.ChangeView"}
}

// phaseSampler reads the controller's own phase breakdown, the only inside
// view there is. Phases are kept only in the slow-op flight recorder, a ring
// of 256, so the sampler lowers the recorder's threshold to zero for a short
// burst every samplePeriod ops, copies the ring, and restores the threshold:
// one op in 16 pays the recorder's mutex, and the armed pass stays honest.
type phaseSampler struct {
	tel      *telemetry.Collector
	restore  time.Duration
	nextArm  int
	harvest  int
	lastSeq  uint64
	sum      [telemetry.NumPhases]time.Duration
	joins    int
	joinTime time.Duration
}

const (
	samplePeriod = 4096
	sampleBurst  = 256
)

func newPhaseSampler(tel *telemetry.Collector) *phaseSampler {
	return &phaseSampler{tel: tel, restore: tel.SlowOpThreshold(), nextArm: samplePeriod / 8}
}

// afterCall runs on driver 0 after each of its calls.
func (p *phaseSampler) afterCall(log *driverLog) {
	if log.driver != 0 {
		return
	}
	switch {
	case p.harvest == 0 && log.attempted >= p.nextArm:
		p.tel.SetSlowOpThreshold(0)
		p.harvest = log.attempted + sampleBurst
	case p.harvest != 0 && log.attempted >= p.harvest:
		p.tel.SetSlowOpThreshold(p.restore)
		for _, e := range p.tel.Snapshot().SlowOps {
			if e.Seq <= p.lastSeq {
				continue
			}
			p.lastSeq = e.Seq
			if e.Op != telemetry.OpJoin {
				continue
			}
			p.joins++
			p.joinTime += e.Total
			for i, d := range e.Phases {
				p.sum[i] += d
			}
		}
		p.harvest = 0
		p.nextArm = log.attempted + samplePeriod
	}
}

// meanMicros is the mean time a sampled join spent in a phase.
func (p *phaseSampler) meanMicros(ph telemetry.Phase) float64 {
	if p.joins == 0 {
		return 0
	}
	return us(p.sum[ph]) / float64(p.joins)
}

// ladder holds what the rungs share and what they found.
type ladder struct {
	ctx     context.Context
	s       spec
	sched   schedule
	slice   time.Duration // measured time per rung
	chk     *checker
	rep     *report
	epoch   time.Time
	spans   []rungSpans
	rungs   map[string]*rung
	nodeBin string

	producers *model.Session
	lat       *trace.LatencyMatrix
}

func heapAlloc() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// run executes one rung: warm up, measure for the ladder's slice, keep the
// spans. record=false is the one pass that runs without span recording.
func (l *ladder) run(name string, tgt target, u *sut, drivers, batch int, record bool, atPeak func(), afterCall func(*driverLog)) *rung {
	r := newRunner(tgt, drivers, batch, l.s.oneView)
	r.afterCall = afterCall
	if record {
		r.spanNames = spanNames(name, batch)
		r.epoch = l.epoch
	}
	sched := l.sched
	if drivers == 1 && sched.drivers > 1 {
		sched = mergedSchedule(sched)
	}
	rg := &rung{name: name, r: r}
	rg.m = measure(l.ctx, r, u, sched, l.slice, l.chk, false, atPeak)
	rg.perOp = perOpMicros(r.allLatencies(), batch, l.s.churn)
	if record {
		l.spans = append(l.spans, rungSpans{rung: name, spans: r.spans()})
	}
	l.rungs[name] = rg
	return rg
}

// mergedSchedule is the schedule with every phase folded onto one driver.
func mergedSchedule(s schedule) schedule {
	m := s
	m.drivers = 1
	m.warm, m.cycle = nil, nil
	for _, ph := range s.warm {
		m.warm = append(m.warm, mergeDrivers(ph))
	}
	for _, ph := range s.cycle {
		m.cycle = append(m.cycle, mergeDrivers(ph))
	}
	return m
}

// runTraced is one traced run of a workload: every rung of the ladder,
// the per-layer metrics, the "where a join goes" table, and the span file.
func runTraced(ctx context.Context, s spec, seed int64, seconds time.Duration, nodeBin, outDir string) report {
	s.sys.seed = seed
	sched := s.schedule(seed, int(seconds/time.Second)+1)
	rep := newReport(s, sched)
	rungCount := 4 // session ×3, overlay
	if s.wire {
		rungCount += 4 // wire, socket, httpapi, plane
	}
	l := &ladder{ctx: ctx, s: s, sched: sched, slice: seconds / time.Duration(rungCount),
		chk: &checker{}, rep: &rep, epoch: time.Now(), rungs: make(map[string]*rung), nodeBin: nodeBin}
	for _, m := range perLayerMetrics {
		rep.set(m.name, 0, m.unit)
	}

	var err error
	if l.producers, err = newProducers(); err != nil {
		rep.fatal("producers: %v", err)
		return rep
	}
	begin := time.Now()
	if l.lat, err = s.sys.latency(); err != nil {
		rep.fatal("latency matrix: %v", err)
		return rep
	}
	rep.set("matrix_gen_s", time.Since(begin).Seconds(), "s")

	if s.wire {
		if !l.wireRung() {
			return rep
		}
		l.socketRung()
		l.httpapiRung()
		l.planeRung()
	}
	l.sessionRungs()
	l.overlayRung()
	l.microLoops()
	l.selfTimes()

	path, err := writeTraceFile(outDir, s.name, l.spans)
	if err != nil {
		l.chk.failf("write spans: %v", err)
	} else {
		rep.note("spans written to %s (at most %d per rung)", path, maxSpansWritten)
	}
	top := l.rungs["session"]
	if s.wire {
		top = l.rungs["wire"]
	}
	if top != nil {
		l.census(top)
		rep.attempted, rep.failed = top.m.tally.attempted, top.m.tally.failed
	}
	rep.problems = l.chk.problems
	return rep
}

// wireRung runs the top rung against a child.
func (l *ladder) wireRung() bool {
	hc := newHTTPClient(l.s.drivers)
	defer hc.CloseIdleConnections()
	u, _, err := l.s.start(l.nodeBin, hc)
	if err != nil {
		l.rep.fatal("start the system under test: %v", err)
		return false
	}
	defer u.stop()
	rg := l.run("wire", u.tgt, u, l.s.drivers, l.s.batch, true, nil, nil)
	if !u.child.alive() {
		l.chk.failf("telecast-node exited during the traced run: %v; stderr tail:\n%s", u.child.err, u.child.stderr)
	}
	l.rep.set("wire_us_per_op", rg.perOp, "us")
	l.rep.set("httpapi_requests", float64(rg.m.tally.calls), "count")
	l.rep.set("warm_s", rg.m.warm.Seconds(), "s")
	return true
}

// census reports what only whole-run figures of the workload's own entry
// point show, and the windowed end-to-end metrics leave out: mean throughput
// with the stalls in it, the stalls themselves, the far tail of join latency,
// and the CDN's refusals.
func (l *ladder) census(top *rung) {
	t := top.m.tally
	all, joins := top.r.allLatencies(), top.r.latencies(opJoin)
	var stalled int
	var stallTime, total time.Duration
	for _, d := range all {
		total += d
		if d > stallThreshold {
			stalled++
			stallTime += d
		}
	}
	rep := l.rep
	rep.set("mean_ops_per_s", float64(t.attempted-t.failed)/top.m.wall.Seconds(), "1/s")
	rep.set("stall_ops_per_10k", 1e4*float64(stalled)/float64(max(len(all), 1)), "count")
	rep.set("stall_time_share", float64(stallTime)/float64(max(total, 1)), "ratio")
	rep.set("join_p99_ms", ms(percentile(joins, 99)), "ms")
	rep.set("join_max_ms", ms(percentile(joins, 100)), "ms")
	if tries := t.joinsAccepted + t.joinsRejected + t.viewChanges; tries > 0 {
		rep.set("cdn_refused_share", float64(t.cdnRefused())/float64(tries), "ratio")
	}
	rep.note("%s rung tally: %d joins accepted, %d rejected, %d leaves, %d view changes (%d rejected); rejections by reason %v",
		top.name, t.joinsAccepted, t.joinsRejected, t.leaves, t.viewChanges, t.viewChangesRejected, t.reasons())
	hp := highestPercentile(len(joins))
	rep.note("%s rung: %d join calls; the highest percentile with ten samples beyond it is p%g = %.4g ms",
		top.name, len(joins), hp, ms(percentile(joins, hp)))
}

// socketRung serves the handler from a loopback socket of this process, so
// the wire rung differs from it by the second process alone.
func (l *ladder) socketRung() {
	ctrl, err := l.s.sys.controller(l.producers, l.lat, false)
	if err != nil {
		l.chk.failf("socket rung: %v", err)
		return
	}
	defer ctrl.Close()
	srv := httptest.NewServer(httpapi.NewServer(ctrl, l.producers, 0).Handler())
	defer srv.Close()
	hc := newHTTPClient(l.s.drivers)
	defer hc.CloseIdleConnections()
	cl := client.New(srv.URL, client.WithHTTPClient(hc))
	l.run("socket", clientTarget{cl}, &sut{}, l.s.drivers, l.s.batch, true, nil, nil)
}

// httpapiRung drives the handler in process through the real client: the
// codec, the mux and the handlers, without the kernel or a second process.
// The handler call is a child span of the client call, so the client's
// codec time is the parent's self time.
func (l *ladder) httpapiRung() {
	ctrl, err := l.s.sys.controller(l.producers, l.lat, false)
	if err != nil {
		l.chk.failf("httpapi rung: %v", err)
		return
	}
	defer ctrl.Close()
	tr := handlerTransport{h: httpapi.NewServer(ctrl, l.producers, 0).Handler(), epoch: l.epoch}
	cl := client.New("http://in-process", client.WithHTTPClient(&http.Client{Transport: tr}))
	rg := l.run("httpapi", clientTarget{cl}, &sut{}, 1, l.s.batch, true, nil, nil)
	ops := float64(max(rg.m.tally.attempted, 1))
	self := selfTimes(l.spans[len(l.spans)-1].spans)
	var bytes int64
	for _, log := range rg.r.logs {
		bytes += log.bytes
	}
	l.rep.set("httpapi_codec_us_per_op", us(self["client.Do"]+self["client.Exec"])/ops, "us")
	l.rep.set("httpapi_bytes_per_op", float64(bytes)/ops, "B")
}

func (l *ladder) planeRung() {
	ctrl, err := l.s.sys.controller(l.producers, l.lat, false)
	if err != nil {
		l.chk.failf("plane rung: %v", err)
		return
	}
	defer ctrl.Close()
	plane := workload.NewLocalPlane(ctrl, l.producers, 0)
	l.run("plane", planeTarget{plane}, &sut{}, 1, l.s.batch, true, nil, nil)
}

// sessionRungs runs the controller's own methods three times: bare, with
// this benchmark's span recording, and with the controller's telemetry armed
// as well. The first gives the allocation and heap figures, the differences
// give the two overheads, and the last yields the phase breakdown.
func (l *ladder) sessionRungs() {
	rep := l.rep
	pass := func(name string, record, armed bool) *rung {
		base := heapAlloc()
		begin := time.Now()
		ctrl, err := l.s.sys.controller(l.producers, l.lat, armed)
		if err != nil {
			l.chk.failf("%s rung: %v", name, err)
			return nil
		}
		defer ctrl.Close()
		if name == "session-bare" {
			rep.set("controller_new_s", time.Since(begin).Seconds(), "s")
		}
		u := &sut{ctrl: ctrl}
		tgt := newSessionTarget(ctrl, l.producers)
		var sampler *phaseSampler
		var afterCall func(*driverLog)
		if armed {
			sampler = newPhaseSampler(ctrl.Telemetry())
			afterCall = sampler.afterCall
		}
		var atPeak func()
		var before runtime.MemStats
		if name == "session-bare" {
			atPeak = func() {
				c, _ := tgt.counters(l.ctx)
				if c.Viewers > 0 {
					rep.set("heap_bytes_per_viewer", float64(heapAlloc()-base)/float64(c.Viewers), "B")
				}
				// The warm-up ends soon after the peak; the allocation count
				// below starts here and is divided by the ops that follow.
				runtime.ReadMemStats(&before)
			}
		}
		rg := l.run(name, tgt, u, 1, l.s.batch, record, atPeak, afterCall)
		if name == "session-bare" {
			var after runtime.MemStats
			runtime.ReadMemStats(&after)
			// Ops since the peak: the rest of the warm-up cycle (its drain)
			// plus the measured part.
			ops := float64(rg.m.tally.attempted)
			if l.sched.loop {
				ops += float64(l.sched.cycle[1].len())
			}
			rep.set("allocs_per_op", float64(after.Mallocs-before.Mallocs)/ops, "count")
			rep.set("bytes_per_op", float64(after.TotalAlloc-before.TotalAlloc)/ops, "B")
			clean := 1.0
			if err := ctrl.Validate(); err != nil {
				clean = 0
				rep.note("Controller.Validate after the session rung: %v", err)
				if !l.s.churn {
					l.chk.failf("Controller.Validate after the session rung: %v", err)
				}
			}
			rep.set("validate_clean", clean, "bool")
		}
		if sampler != nil {
			for ph := telemetry.Phase(0); int(ph) < telemetry.NumPhases; ph++ {
				rep.set("phase_"+ph.String()+"_us", sampler.meanMicros(ph), "us")
			}
			rep.note("telemetry phases: means over %d sampled joins, mean total %.3g us", sampler.joins,
				us(sampler.joinTime)/float64(max(sampler.joins, 1)))
		}
		return rg
	}
	bare := pass("session-bare", false, false)
	plain := pass("session", true, false)
	armed := pass("session-armed", true, true)
	if bare == nil || plain == nil || armed == nil {
		return
	}
	rep.set("trace_overhead_share", (plain.perOp-bare.perOp)/bare.perOp, "ratio")
	rep.set("telemetry_tax_share", (armed.perOp-plain.perOp)/plain.perOp, "ratio")
}

// overlayRung replays the schedule single-threaded into bare managers.
func (l *ladder) overlayRung() {
	// The overlay parameters are the controller's: build one to read them.
	ctrl, err := l.s.sys.controller(l.producers, l.lat, false)
	if err != nil {
		l.chk.failf("overlay rung: %v", err)
		return
	}
	params := ctrl.LSCs()[0].Params()
	ctrl.Close()
	tgt, err := newOverlayTarget(l.s.sys, l.producers, l.lat, params)
	if err != nil {
		l.chk.failf("overlay rung: %v", err)
		return
	}
	var attachesAtPeak uint64
	rg := l.run("overlay", tgt, &sut{}, 1, 1, true, func() {
		l.rep.set("tree_depth_mean", tgt.meanTreeDepth(), "levels")
		attachesAtPeak = tgt.cdnAttaches
	}, nil)
	l.rep.set("overlay_us_per_join", perOpMicros(rg.r.latencies(opJoin), 1, l.s.churn), "us")
	l.rep.set("overlay_us_per_leave", perOpMicros(rg.r.latencies(opLeave), 1, l.s.churn), "us")
	l.rep.set("overlay_us_per_view", perOpMicros(rg.r.latencies(opView), 1, l.s.churn), "us")
	l.rep.set("cdn_reserves", float64(tgt.cdnAttaches-attachesAtPeak), "count")
	if err := tgt.validate(); err != nil && !l.s.churn {
		l.chk.failf("overlay rung: %v", err)
	}
}

// microLoops time the two leaf layers alone, at least at the volume the
// overlay rung counted.
func (l *ladder) microLoops() {
	n := max(int(l.rep.metrics["cdn_reserves"].Value), 200000)
	dist := cdn.New(l.s.sys.cdnConfig())
	stream := l.producers.Sites[0].Streams[0]
	begin := time.Now()
	for i := 0; i < n; i++ {
		if err := dist.Allocate(stream.ID, stream.BitrateMbps); err != nil {
			l.chk.failf("cdn micro-loop: %v", err)
			return
		}
		if err := dist.Release(stream.ID, stream.BitrateMbps); err != nil {
			l.chk.failf("cdn micro-loop: %v", err)
			return
		}
	}
	l.rep.set("cdn_ns_per_reserve", float64(time.Since(begin).Nanoseconds())/float64(n), "ns")

	views := newAngleViews(l.producers)
	begin = time.Now()
	streams := 0
	for i := 0; i < n; i++ {
		streams += len(model.ComposeView(l.producers, views[i%len(views)], 0.5).Streams)
	}
	l.rep.set("compose_ns_per_view", float64(time.Since(begin).Nanoseconds())/float64(n), "ns")
	if streams == 0 {
		l.chk.failf("compose micro-loop: no view composed any stream")
	}
}

// selfTimes turns the rungs into per-layer self times and the table.
func (l *ladder) selfTimes() {
	per := func(name string) float64 {
		if rg := l.rungs[name]; rg != nil {
			return rg.perOp
		}
		return 0
	}
	rep := l.rep
	wire, sock, hapi, plane, sess, over := per("wire"), per("socket"), per("httpapi"), per("plane"), per("session"), per("overlay")
	if sess == 0 || over == 0 {
		return // a rung failed to start; the checker already says so
	}
	ops := float64(max(l.rungs["overlay"].m.tally.attempted, 1))
	cdnPerOp := rep.metrics["cdn_ns_per_reserve"].Value * rep.metrics["cdn_reserves"].Value / ops / 1e3

	type row struct {
		layer, how string
		rung, self float64
	}
	var rows []row
	if l.s.wire {
		rep.set("process_self_us_per_op", wire-sock, "us")
		rep.set("nethttp_self_us_per_op", sock-hapi, "us")
		rep.set("httpapi_self_us_per_op", hapi-plane, "us")
		rep.set("plane_self_us_per_op", plane-sess, "us")
		rows = append(rows,
			row{"process", "wire rung - socket rung: the server being a second process", wire, wire - sock},
			row{"net/http", "socket rung - httpapi rung: net/http both ends, loopback TCP, the drivers' concurrency", sock, sock - hapi},
			row{"httpapi", "httpapi rung - plane rung: client codec, mux, handlers", hapi, hapi - plane},
			row{"workload", "plane rung - session rung: LocalPlane.Exec", plane, plane - sess})
	}
	rep.set("session_self_us_per_op", sess-over, "us")
	rows = append(rows,
		row{"session", "session rung - overlay rung: route, locks, fan-out, publish", sess, sess - over},
		row{"overlay", "overlay rung - cdn: placement, adaptation", over, over - cdnPerOp},
		row{"cdn", "Allocate+Release micro-loop x reserves per op", cdnPerOp, cdnPerOp})

	for _, name := range []string{"wire", "socket", "httpapi", "plane", "session-bare", "session", "session-armed", "overlay"} {
		if rg := l.rungs[name]; rg != nil {
			rep.note("rung %-13s %8.2f us/op over %d ops in %.2f s", name, rg.perOp, rg.m.tally.attempted, rg.m.wall.Seconds())
		}
	}
	total := rows[0].rung
	cells := [][]string{{"layer", "rung us/op", "self us/op", "share", "how"}}
	for _, r := range rows {
		cells = append(cells, []string{r.layer, fmt.Sprintf("%.2f", r.rung), fmt.Sprintf("%.2f", r.self),
			fmt.Sprintf("%.1f%%", 100*r.self/total), r.how})
	}
	stat := fmt.Sprintf("mean time per op seen by the drivers, stalls over %v left out", stallThreshold)
	if l.s.churn {
		stat = "median time per op seen by the drivers"
	}
	rep.table = fmt.Sprintf("where a join goes: %s (%s; total %.2f us)\n%s", l.s.name, stat, total, formatTable(cells))
}

// perLayerMetrics is every metric a traced run prints, in table order. A
// layer a workload does not cross reports 0.
var perLayerMetrics = []struct{ name, unit string }{
	{"wire_us_per_op", "us"},
	{"process_self_us_per_op", "us"},
	{"nethttp_self_us_per_op", "us"},
	{"httpapi_self_us_per_op", "us"},
	{"httpapi_codec_us_per_op", "us"},
	{"httpapi_bytes_per_op", "B"},
	{"httpapi_requests", "count"},
	{"plane_self_us_per_op", "us"},
	{"session_self_us_per_op", "us"},
	{"phase_route_us", "us"},
	{"phase_prepare_us", "us"},
	{"phase_admit_us", "us"},
	{"phase_reserve_us", "us"},
	{"phase_publish_us", "us"},
	{"allocs_per_op", "count"},
	{"bytes_per_op", "B"},
	{"heap_bytes_per_viewer", "B"},
	{"overlay_us_per_join", "us"},
	{"overlay_us_per_leave", "us"},
	{"overlay_us_per_view", "us"},
	{"tree_depth_mean", "levels"},
	{"mean_ops_per_s", "1/s"},
	{"stall_ops_per_10k", "count"},
	{"stall_time_share", "ratio"},
	{"join_p99_ms", "ms"},
	{"join_max_ms", "ms"},
	{"validate_clean", "bool"},
	{"cdn_ns_per_reserve", "ns"},
	{"cdn_reserves", "count"},
	{"cdn_refused_share", "ratio"},
	{"compose_ns_per_view", "ns"},
	{"matrix_gen_s", "s"},
	{"controller_new_s", "s"},
	{"warm_s", "s"},
	{"telemetry_tax_share", "ratio"},
	{"trace_overhead_share", "ratio"},
}

// endToEndMetrics is every metric an end-to-end run prints, with the share
// of the parent's median by which a later change may worsen it. BENCHMARK.json
// repeats this table; a test keeps the two equal.
var endToEndMetrics = []struct {
	name, unit, better string
	bound              float64
}{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"join_p50_ms", "ms", "lower", 0.25},
	{"join_p95_ms", "ms", "lower", 0.25},
	{"accept_ratio", "ratio", "higher", 0.05},
	{"peak_rss_mb", "MB", "lower", 0.15},
}
