package session

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"telecast/internal/model"
)

// TestConcurrentJoinsAcrossRegions drives parallel joins from many
// goroutines and checks that every shard and the global CDN accounting stay
// consistent. Run with -race.
func TestConcurrentJoinsAcrossRegions(t *testing.T) {
	c := testController(t, 1024, 6000)
	view := model.NewUniformView(c.cfg.Producers, 0)
	const workers, perWorker = 8, 40
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				id := model.ViewerID(fmt.Sprintf("w%d-%04d", w, i))
				if _, err := c.Join(testCtx, id, 12, float64(i%13), view); err != nil {
					t.Errorf("join %s: %v", id, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	st := c.Stats()
	if st.Overlay.Viewers != workers*perWorker {
		t.Fatalf("viewers = %d, want %d", st.Overlay.Viewers, workers*perWorker)
	}
	if st.JoinDelays.Len() != workers*perWorker {
		t.Fatalf("join delay samples = %d", st.JoinDelays.Len())
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentMixedOpsKeepInvariants runs joins, departures, and view
// changes in parallel on disjoint viewer fleets and validates afterwards.
func TestConcurrentMixedOpsKeepInvariants(t *testing.T) {
	c := testController(t, 1024, 800)
	angles := []float64{0, math.Pi / 2, math.Pi}
	const workers, perWorker = 8, 30
	// Seed each worker's fleet.
	for w := 0; w < workers; w++ {
		view := model.NewUniformView(c.cfg.Producers, angles[w%3])
		for i := 0; i < perWorker; i++ {
			id := model.ViewerID(fmt.Sprintf("w%d-%04d", w, i))
			if _, err := c.Join(testCtx, id, 12, float64(i%13), view); err != nil && !errors.Is(err, ErrRejected) {
				t.Fatal(err)
			}
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				id := model.ViewerID(fmt.Sprintf("w%d-%04d", w, i))
				switch i % 3 {
				case 0: // churn: leave and rejoin
					if err := c.Leave(testCtx, id); err != nil {
						t.Errorf("leave %s: %v", id, err)
						return
					}
					view := model.NewUniformView(c.cfg.Producers, angles[(w+i)%3])
					if _, err := c.Join(testCtx, id, 12, float64(i%13), view); err != nil && !errors.Is(err, ErrRejected) {
						t.Errorf("rejoin %s: %v", id, err)
						return
					}
				case 1: // view change
					view := model.NewUniformView(c.cfg.Producers, angles[(w+i+1)%3])
					if _, err := c.ChangeView(testCtx, id, view); err != nil && !errors.Is(err, ErrRejected) {
						t.Errorf("view change %s: %v", id, err)
						return
					}
				default: // read paths race against writers
					_ = c.Stats()
				}
			}
		}(w)
	}
	wg.Wait()
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if usage := c.CDN().Snapshot(); usage.OutTotalMbps > 800+1e-9 {
		t.Fatalf("cdn over cap: %v", usage.OutTotalMbps)
	}
}

// TestConcurrentJoinsNeverOversubscribeCDN pins a tight CDN egress bound and
// admits far more demand than it can hold, in parallel; neither the live
// total nor the peak may ever exceed the bound.
func TestConcurrentJoinsNeverOversubscribeCDN(t *testing.T) {
	const capMbps = 48
	c := testController(t, 1024, capMbps)
	view := model.NewUniformView(c.cfg.Producers, 0)
	reqs := make([]JoinRequest, 200)
	for i := range reqs {
		// Zero outbound: every admitted stream must come from the CDN.
		reqs[i] = JoinRequest{ID: vid(i), InboundMbps: 12, OutboundMbps: 0, View: view}
	}
	outs := c.JoinBatch(testCtx, reqs)
	admitted := 0
	for _, o := range outs {
		if o.Err != nil && !errors.Is(o.Err, ErrRejected) {
			t.Fatalf("join %s: %v", o.ID, o.Err)
		}
		if o.Outcome == nil {
			t.Fatalf("join %s: no outcome (err %v)", o.ID, o.Err)
		}
		if o.Outcome.Result.Admitted {
			admitted++
		}
	}
	usage := c.CDN().Snapshot()
	if usage.OutTotalMbps > capMbps+1e-9 {
		t.Fatalf("cdn egress oversubscribed: %v > %v", usage.OutTotalMbps, capMbps)
	}
	if usage.PeakOutMbps > capMbps+1e-9 {
		t.Fatalf("cdn peak oversubscribed: %v > %v", usage.PeakOutMbps, capMbps)
	}
	if admitted < 4 {
		t.Fatalf("admitted %d viewers, want >= 4", admitted)
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestJoinBatchAndDepartBatch(t *testing.T) {
	c := testController(t, 512, 6000)
	view := model.NewUniformView(c.cfg.Producers, 0)
	n := 100
	reqs := make([]JoinRequest, n)
	for i := range reqs {
		reqs[i] = JoinRequest{ID: vid(i), InboundMbps: 12, OutboundMbps: float64(i % 13), View: view}
	}
	outs := c.JoinBatch(testCtx, reqs)
	if len(outs) != n {
		t.Fatalf("outcomes = %d, want %d", len(outs), n)
	}
	regions := map[int]bool{}
	for i, o := range outs {
		if o.ID != reqs[i].ID {
			t.Fatalf("outcome %d is for %s, want %s (input order lost)", i, o.ID, reqs[i].ID)
		}
		if o.Err != nil {
			t.Fatalf("join %s: %v", o.ID, o.Err)
		}
		regions[o.Outcome.LSCRegion] = true
	}
	if len(regions) < 2 {
		t.Fatalf("batch landed on %d regions, want a spread", len(regions))
	}
	if st := c.Stats(); st.Overlay.Viewers != n {
		t.Fatalf("viewers = %d, want %d", st.Overlay.Viewers, n)
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}

	// Duplicate joins fail per-request without poisoning the batch.
	dup := c.JoinBatch(testCtx, []JoinRequest{
		{ID: vid(0), InboundMbps: 12, View: view},
		{ID: vid(n), InboundMbps: 12, View: view},
	})
	if !errors.Is(dup[0].Err, ErrViewerExists) {
		t.Errorf("duplicate join: err = %v, want ErrViewerExists", dup[0].Err)
	}
	if dup[1].Err != nil {
		t.Errorf("fresh join in mixed batch failed: %v", dup[1].Err)
	}

	// Depart everyone, including one unknown.
	ids := make([]model.ViewerID, 0, n+2)
	for i := 0; i <= n; i++ {
		ids = append(ids, vid(i))
	}
	ids = append(ids, "ghost")
	douts := c.DepartBatch(testCtx, ids)
	for i := 0; i <= n; i++ {
		if douts[i].Err != nil {
			t.Fatalf("depart %s: %v", douts[i].ID, douts[i].Err)
		}
	}
	if !errors.Is(douts[n+1].Err, ErrUnknownViewer) {
		t.Errorf("unknown depart: err = %v, want ErrUnknownViewer", douts[n+1].Err)
	}
	if st := c.Stats(); st.Overlay.Viewers != 0 {
		t.Fatalf("viewers after depart = %d, want 0", st.Overlay.Viewers)
	}
	if usage := c.CDN().Snapshot(); usage.OutTotalMbps > 1e-9 {
		t.Fatalf("cdn not drained: %v", usage.OutTotalMbps)
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestJoinBatchChunksMatchSerialAdmit checks that JoinBatch fan-outs in
// chunks of 32 admit the same audience a serial Admit loop does over the
// same requests. The CDN is unbounded, so admission is order-independent:
// concurrent shards race for no shared capacity.
func TestJoinBatchChunksMatchSerialAdmit(t *testing.T) {
	const n, chunk = 150, 32
	serial := testController(t, 256, 0)
	batched := testController(t, 256, 0)
	view := model.NewUniformView(serial.cfg.Producers, 0)
	rng := rand.New(rand.NewSource(3))
	reqs := make([]JoinRequest, n)
	for i := range reqs {
		reqs[i] = JoinRequest{ID: vid(i), InboundMbps: 12, OutboundMbps: 12 * rng.Float64(), View: view}
	}
	for _, rq := range reqs {
		if _, err := serial.Admit(testCtx, rq); err != nil && !errors.Is(err, ErrRejected) {
			t.Fatalf("admit %s: %v", rq.ID, err)
		}
	}
	for at := 0; at < n; at += chunk {
		for _, out := range batched.JoinBatch(testCtx, reqs[at:min(at+chunk, n)]) {
			if out.Err != nil && !errors.Is(out.Err, ErrRejected) {
				t.Fatalf("batch join %s: %v", out.ID, out.Err)
			}
		}
	}
	for _, c := range []*Controller{serial, batched} {
		if err := c.Validate(); err != nil {
			t.Fatal(err)
		}
	}
	s, b := serial.Stats().Overlay, batched.Stats().Overlay
	if s.Viewers != n || s.StreamsAccepted == 0 {
		t.Fatalf("serial run admitted %d viewers with %d streams, want %d viewers", s.Viewers, s.StreamsAccepted, n)
	}
	if s.Viewers != b.Viewers {
		t.Errorf("viewers: serial %d, batched %d", s.Viewers, b.Viewers)
	}
	if s.StreamsRequested != b.StreamsRequested {
		t.Errorf("requested: serial %d, batched %d", s.StreamsRequested, b.StreamsRequested)
	}
	if s.StreamsAccepted != b.StreamsAccepted {
		t.Errorf("accepted: serial %d, batched %d", s.StreamsAccepted, b.StreamsAccepted)
	}
}

// TestPropFuncPanicsOnUnregisteredViewer pins the registration-order
// contract: after the sharding refactor a missing viewer in the
// propagation-delay lookup is a bug, not a condition to paper over with a
// fabricated delay.
func TestPropFuncPanicsOnUnregisteredViewer(t *testing.T) {
	c := testController(t, 64, 6000)
	var lsc *LSC
	for _, l := range c.lscs {
		lsc = l
		break
	}
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("propFunc did not panic on unregistered viewers")
		}
		if msg := fmt.Sprint(r); !strings.Contains(msg, "registration-order bug") {
			t.Fatalf("panic message %q does not name the bug class", msg)
		}
	}()
	lsc.propFunc()("nobody-a", "nobody-b")
}
