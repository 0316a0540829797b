package experiments

import (
	"sync"
	"testing"

	"telecast/internal/trace"
)

// testSetup shrinks the sweeps so the shape assertions run in seconds while
// staying in the regime where the paper's qualitative claims hold.
func testSetup() Setup {
	s := DefaultSetup(42)
	s.Audience = 600
	s.Sizes = []int{100, 400, 800}
	return s
}

func TestOutboundSpec(t *testing.T) {
	if got := FixedObw(6).Label(); got != "obw=6" {
		t.Errorf("label = %q", got)
	}
	if got := UniformObw(0, 12).Label(); got != "obw=0-12" {
		t.Errorf("label = %q", got)
	}
}

func TestFig13aShape(t *testing.T) {
	if testing.Short() {
		t.Skip("full sweep")
	}
	res, err := RunFig13a(testSetup())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	for i, row := range res.Rows {
		zero := row.Values["obw=0"]
		// With no peer bandwidth every stream comes from the CDN:
		// exactly 12 Mbps per viewer (6 × 2 Mbps).
		want := float64(12 * row.Viewers)
		if zero != want {
			t.Errorf("row %d: obw=0 needs %v Mbps, want %v", i, zero, want)
		}
		// More peer bandwidth strictly reduces the CDN requirement.
		if row.Values["obw=6"] >= zero {
			t.Errorf("row %d: obw=6 (%v) not below obw=0 (%v)", i, row.Values["obw=6"], zero)
		}
		if row.Values["obw=10"] >= row.Values["obw=6"] {
			t.Errorf("row %d: obw=10 not below obw=6", i)
		}
		// The uniform 4–14 range beats 0–12 (more donors).
		if row.Values["obw=4-14"] >= row.Values["obw=0-12"] {
			t.Errorf("row %d: 4-14 not below 0-12", i)
		}
		// The requirement grows with the audience.
		if i > 0 && row.Values["obw=0-12"] <= res.Rows[i-1].Values["obw=0-12"] {
			t.Errorf("row %d: requirement did not grow with audience", i)
		}
	}
}

func TestFig13bShape(t *testing.T) {
	if testing.Short() {
		t.Skip("full sweep")
	}
	res, err := RunFig13b(testSetup())
	if err != nil {
		t.Fatal(err)
	}
	last := res.Rows[len(res.Rows)-1]
	if got := last.Values["obw=0"]; got != 1 {
		t.Errorf("obw=0 CDN fraction = %v, want 1", got)
	}
	// Paper: at obw ≥ 8 or 4–14 uniform, ≥55% of requests come from P2P,
	// i.e. CDN fraction ≤ 0.45.
	if got := last.Values["obw=8"]; got > 0.45 {
		t.Errorf("obw=8 CDN fraction = %v, want <= 0.45", got)
	}
	if got := last.Values["obw=4-14"]; got > 0.45 {
		t.Errorf("obw=4-14 CDN fraction = %v, want <= 0.45", got)
	}
	// Monotone: more outbound, less CDN.
	for _, pair := range [][2]string{{"obw=2", "obw=0"}, {"obw=4", "obw=2"}, {"obw=8", "obw=6"}} {
		if last.Values[pair[0]] >= last.Values[pair[1]] {
			t.Errorf("%s fraction %v not below %s %v",
				pair[0], last.Values[pair[0]], pair[1], last.Values[pair[1]])
		}
	}
}

func TestFig13cShape(t *testing.T) {
	if testing.Short() {
		t.Skip("full sweep")
	}
	res, err := RunFig13c(testSetup())
	if err != nil {
		t.Fatal(err)
	}
	last := res.Rows[len(res.Rows)-1]
	// Paper: perfect acceptance at obw ≥ 8 fixed or 4–14 uniform.
	if got := last.Values["obw=8"]; got != 1 {
		t.Errorf("obw=8 acceptance = %v, want 1", got)
	}
	if got := last.Values["obw=4-14"]; got != 1 {
		t.Errorf("obw=4-14 acceptance = %v, want 1", got)
	}
	// Zero-outbound audiences overload the CDN once 6000/12 = 500 viewers
	// arrive; acceptance at 800 viewers must reflect it.
	if got := last.Values["obw=0"]; got >= 0.9 {
		t.Errorf("obw=0 acceptance = %v, want well below 1", got)
	}
	// Acceptance grows with outbound.
	if last.Values["obw=4"] <= last.Values["obw=0"] || last.Values["obw=8"] <= last.Values["obw=4"] {
		t.Error("acceptance not increasing in outbound capacity")
	}
}

func TestFig14aShape(t *testing.T) {
	if testing.Short() {
		t.Skip("full sweep")
	}
	res, err := RunFig14a(testSetup())
	if err != nil {
		t.Fatal(err)
	}
	// Paper: ~30% of viewers at Layer-0, ~80% within Layer-4.
	if res.Layer0Share < 0.1 || res.Layer0Share > 0.6 {
		t.Errorf("layer-0 share = %v, want around 0.3", res.Layer0Share)
	}
	if res.AtMost4Share < 0.6 {
		t.Errorf("<=layer-4 share = %v, want >= 0.6", res.AtMost4Share)
	}
	// Cumulative must be monotone and reach 1.
	prev := 0.0
	for l, c := range res.Cumulative {
		if c < prev {
			t.Fatalf("cumulative dips at layer %d", l)
		}
		prev = c
	}
	if prev < 0.999 {
		t.Errorf("cumulative tops at %v", prev)
	}
}

func TestFig14bShape(t *testing.T) {
	if testing.Short() {
		t.Skip("full sweep")
	}
	res, err := RunFig14b(testSetup())
	if err != nil {
		t.Fatal(err)
	}
	// Paper: >70% of viewers receive every requested stream; a minority
	// receives none (rejected).
	if res.AllStreamsShare < 0.7 {
		t.Errorf("all-streams share = %v, want >= 0.7", res.AllStreamsShare)
	}
	if res.ZeroStreamsShare > 0.3 {
		t.Errorf("zero-streams share = %v, want modest", res.ZeroStreamsShare)
	}
	last := res.CumulativeByCount[len(res.CumulativeByCount)-1]
	if last < 0.999 {
		t.Errorf("cumulative tops at %v", last)
	}
}

func TestFig14cShape(t *testing.T) {
	if testing.Short() {
		t.Skip("full sweep")
	}
	res, err := RunFig14c(testSetup())
	if err != nil {
		t.Fatal(err)
	}
	// Paper: joins complete within ~1.5 s, view changes within ~500 ms.
	if res.JoinDelays.Max() > 2.5 {
		t.Errorf("max join delay = %vs, want <= 2.5", res.JoinDelays.Max())
	}
	if res.ViewChange95th > 0.6 {
		t.Errorf("view change 95th = %vs, want <= 0.6", res.ViewChange95th)
	}
	// View changes must be visibly faster than joins at the median.
	if res.ViewChangeDelays.Quantile(0.5) >= res.JoinDelays.Quantile(0.5) {
		t.Error("median view change not faster than median join")
	}
}

func TestFig15aShape(t *testing.T) {
	if testing.Short() {
		t.Skip("full sweep")
	}
	s := testSetup()
	s.Audience = 1000 // the gap over Random only opens under contention
	res, err := RunFig15a(s)
	if err != nil {
		t.Fatal(err)
	}
	// TeleCast must never lose materially, and must win somewhere in the
	// middle of the sweep (the paper reports ~20-point gains).
	won := false
	for _, row := range res.Rows {
		if row.Random > row.TeleCast+0.03 {
			t.Errorf("obw=%v: random %v beats telecast %v", row.X, row.Random, row.TeleCast)
		}
		if row.TeleCast > row.Random+0.05 {
			won = true
		}
	}
	if !won {
		t.Error("telecast never meaningfully beat random")
	}
}

func TestFig15bShape(t *testing.T) {
	if testing.Short() {
		t.Skip("full sweep")
	}
	s := testSetup()
	s.Sizes = []int{600, 1000}
	res, err := RunFig15b(s)
	if err != nil {
		t.Fatal(err)
	}
	last := res.Rows[len(res.Rows)-1]
	// Paper: 98–99% vs 80–88% at scale.
	if last.TeleCast < 0.97 {
		t.Errorf("telecast at 1000 = %v, want >= 0.97", last.TeleCast)
	}
	if last.Random >= last.TeleCast {
		t.Errorf("random %v not below telecast %v at scale", last.Random, last.TeleCast)
	}
}

func TestAblationOutbound(t *testing.T) {
	if testing.Short() {
		t.Skip("full sweep")
	}
	s := testSetup()
	s.Audience = 400
	rows, err := RunAblationOutbound(s)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range rows {
		// Fig. 8's trade-off: priority-only supports at least as many
		// viewers but at lower quality; round-robin sits in the middle.
		if row.PriorityOnly.Admitted < row.RoundRobin.Admitted {
			t.Errorf("obw=%v: priority-only admits %d, fewer than round-robin %d",
				row.OutboundMbps, row.PriorityOnly.Admitted, row.RoundRobin.Admitted)
		}
		if row.PriorityOnly.MeanStreams > row.RoundRobin.MeanStreams+1e-9 {
			t.Errorf("obw=%v: priority-only quality %v beats round-robin %v",
				row.OutboundMbps, row.PriorityOnly.MeanStreams, row.RoundRobin.MeanStreams)
		}
		// Equal split wastes sub-bitrate remainders: it must not admit
		// more viewers than round-robin.
		if row.EqualSplit.Admitted > row.RoundRobin.Admitted {
			t.Errorf("obw=%v: equal-split admits %d, more than round-robin %d",
				row.OutboundMbps, row.EqualSplit.Admitted, row.RoundRobin.Admitted)
		}
	}
}

func TestAblationPushdown(t *testing.T) {
	if testing.Short() {
		t.Skip("full sweep")
	}
	rows, err := RunAblationPushdown(testSetup())
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range rows {
		if row.PushDown.Acceptance < row.FIFO.Acceptance-1e-9 {
			t.Errorf("n=%d: push-down acceptance %v below FIFO %v",
				row.Viewers, row.PushDown.Acceptance, row.FIFO.Acceptance)
		}
	}
	// At scale, push-down should yield flatter or equal trees.
	last := rows[len(rows)-1]
	if last.PushDownDepth > last.FIFODepth+1e-9 {
		t.Errorf("push-down depth %v deeper than FIFO %v", last.PushDownDepth, last.FIFODepth)
	}
}

func TestAblationGrouping(t *testing.T) {
	if testing.Short() {
		t.Skip("full sweep")
	}
	s := testSetup()
	s.Audience = 400
	rows, err := RunAblationGrouping(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	// More distinct views fragment the seed pools: CDN dependence must
	// not decrease from 1 view to 8 views.
	if rows[len(rows)-1].CDNFraction < rows[0].CDNFraction-0.05 {
		t.Errorf("grouping: cdn fraction fell from %v to %v with more views",
			rows[0].CDNFraction, rows[len(rows)-1].CDNFraction)
	}
}

func TestAblationLayerFade(t *testing.T) {
	if testing.Short() {
		t.Skip("full sweep")
	}
	s := testSetup()
	rows, err := RunAblationLayerFade(s)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		// The ℜ=τr offset exists to make push-downs fade out; without
		// it, delays compound down the serving chains and the mean max
		// layer inflates.
		if r.FadeMeanMaxLayer >= r.NaiveMeanMaxLayer {
			t.Errorf("n=%d: fade-out layers %.2f not below naive %.2f",
				r.Viewers, r.FadeMeanMaxLayer, r.NaiveMeanMaxLayer)
		}
	}
}

func TestAblationViewChange(t *testing.T) {
	if testing.Short() {
		t.Skip("full sweep")
	}
	s := testSetup()
	s.Audience = 400
	row, err := RunAblationViewChange(s)
	if err != nil {
		t.Fatal(err)
	}
	// The fast CDN path must beat the plain re-join at both the median
	// and the tail.
	if row.TwoPhaseMedian >= row.PlainMedian {
		t.Errorf("two-phase median %.3f not below plain %.3f", row.TwoPhaseMedian, row.PlainMedian)
	}
	if row.TwoPhaseP95 >= row.PlainP95 {
		t.Errorf("two-phase p95 %.3f not below plain %.3f", row.TwoPhaseP95, row.PlainP95)
	}
}

func TestChurnExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("full sweep")
	}
	s := testSetup()
	s.Audience = 300
	res, err := RunChurn(s)
	if err != nil {
		t.Fatal(err)
	}
	if res.Joins == 0 || res.Leaves == 0 || res.ViewChanges == 0 {
		t.Fatalf("degenerate schedule: %+v", res)
	}
	// A 6000 Mbps CDN comfortably absorbs this audience: churn must not
	// push acceptance below 0.95 at any sample.
	if res.MinAcceptance < 0.95 {
		t.Errorf("min acceptance %.3f under churn", res.MinAcceptance)
	}
	if len(res.Samples) == 0 {
		t.Fatal("no samples")
	}
}

func TestScenarioExperimentWallclock(t *testing.T) {
	s := testSetup()
	s.Audience = 200
	res, err := RunScenario(s, "regional-hotspot", ScenarioOptions{Wallclock: true, Duration: 10e9, Validate: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Joins == 0 || res.Regions < 2 {
		t.Fatalf("degenerate wall-clock run: %+v", res)
	}
	if res.JoinsPerSec <= 0 {
		t.Error("no achieved throughput reported")
	}
	if res.Executor != "wallclock" {
		t.Errorf("executor = %q, want wallclock", res.Executor)
	}
	if res.Stream.EventsDropped == 0 && res.Stream.Accepted != res.Joins {
		t.Errorf("stream counted %d admissions, runner %d", res.Stream.Accepted, res.Joins)
	}
}

func TestScenarioExperimentUnknownName(t *testing.T) {
	if _, err := RunScenario(testSetup(), "no-such-scenario", ScenarioOptions{}); err == nil {
		t.Fatal("unknown scenario accepted")
	}
}

// TestLatencySubstrateBuiltOncePerRun checks the run's latency substrate:
// every copy of a DefaultSetup, from several goroutines at once, gets the
// one matrix its config generated, and a different config gets its own.
func TestLatencySubstrateBuiltOncePerRun(t *testing.T) {
	s := DefaultSetup(3)
	s.MaxViewers = 40
	const callers = 4
	got := make([]*trace.LatencyMatrix, callers)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func(i int, s Setup) {
			defer wg.Done()
			lat, err := s.latency()
			if err != nil {
				t.Error(err)
				return
			}
			got[i] = lat
		}(i, s)
	}
	wg.Wait()
	for i, lat := range got {
		if lat == nil || lat != got[0] {
			t.Fatalf("caller %d got matrix %p, caller 0 %p", i, lat, got[0])
		}
	}
	bigger := s
	bigger.MaxViewers++
	if lat, err := bigger.latency(); err != nil || lat == got[0] || lat.Nodes() != got[0].Nodes()+1 {
		t.Fatalf("a larger config shared the matrix or failed: %v", err)
	}
}
