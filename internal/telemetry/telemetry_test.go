package telemetry

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"
)

func TestBucketIndexContiguous(t *testing.T) {
	// Every nanosecond value up to 64k lands in a bucket whose bounds
	// contain it, and bucket indices never decrease as values grow.
	last := 0
	for v := time.Duration(0); v < 65536; v++ {
		i := bucketIndex(v)
		if i < last {
			t.Fatalf("bucket index decreased: %d ns -> bucket %d after %d", v, i, last)
		}
		if v > bucketUpper(i) {
			t.Fatalf("%d ns above its bucket %d upper %d", v, i, bucketUpper(i))
		}
		if i > 0 && v <= bucketUpper(i-1) {
			t.Fatalf("%d ns not above previous bucket %d upper %d", v, i-1, bucketUpper(i-1))
		}
		last = i
	}
	// The largest representable duration still lands inside the array and
	// under its bucket's bound.
	max := time.Duration(1<<63 - 1)
	i := bucketIndex(max)
	if i >= NumBuckets {
		t.Fatalf("max duration bucket %d out of range", i)
	}
	if bucketUpper(i) < max {
		t.Fatalf("max duration %d above its bucket %d upper %d", max, i, bucketUpper(i))
	}
}

func TestHistogramQuantiles(t *testing.T) {
	var h Histogram
	for i := 1; i <= 1000; i++ {
		h.Record(time.Duration(i) * time.Microsecond)
	}
	s := h.Snapshot()
	if s.Count != 1000 {
		t.Fatalf("count = %d", s.Count)
	}
	if s.Max != 1000*time.Microsecond {
		t.Fatalf("max = %v", s.Max)
	}
	// Quarter-octave buckets bound the quantile error at 25%.
	checks := []struct {
		q    float64
		want time.Duration
	}{{0.5, 500 * time.Microsecond}, {0.9, 900 * time.Microsecond}, {0.99, 990 * time.Microsecond}}
	for _, c := range checks {
		got := s.Quantile(c.q)
		if got < c.want || got > c.want+c.want/4 {
			t.Errorf("p%v = %v, want within +25%% of %v", c.q*100, got, c.want)
		}
	}
	if got := s.Quantile(1.0); got != s.Max {
		t.Errorf("p100 = %v, want max %v", got, s.Max)
	}
	// The sum is tracked exactly, so the mean is exact: (1+…+1000)/1000 µs.
	if mean := s.Mean(); mean != 500500*time.Nanosecond {
		t.Errorf("mean = %v, want 500.5µs", mean)
	}
}

// TestSnapshotMergeAssociative pins the merge algebra the per-shard
// design relies on: combining shard snapshots in any grouping yields the
// same aggregate, bucket for bucket — so metrics.CDF ingestion and live
// exposition agree no matter who merges first.
func TestSnapshotMergeAssociative(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	parts := make([]HistSnapshot, 3)
	for p := range parts {
		var h Histogram
		for i := 0; i < 500; i++ {
			h.Record(time.Duration(rng.Intn(50_000_000)) * time.Nanosecond)
		}
		parts[p] = h.Snapshot()
	}
	left := parts[0]
	left.Merge(parts[1])
	left.Merge(parts[2])

	right := parts[1]
	right.Merge(parts[2])
	ab := parts[0]
	ab.Merge(right)

	if left != ab {
		t.Fatalf("merge not associative:\n(a+b)+c = %+v\na+(b+c) = %+v", left.Count, ab.Count)
	}
	if q1, q2 := left.Quantile(0.99), ab.Quantile(0.99); q1 != q2 {
		t.Fatalf("p99 differs across groupings: %v vs %v", q1, q2)
	}
}

func TestSnapshotSubWindow(t *testing.T) {
	var h Histogram
	h.Record(time.Millisecond)
	before := h.Snapshot()
	h.Record(2 * time.Millisecond)
	h.Record(3 * time.Millisecond)
	after := h.Snapshot()
	after.Sub(before)
	if after.Count != 2 {
		t.Fatalf("window count = %d, want 2", after.Count)
	}
	if after.Sum != 5*time.Millisecond {
		t.Fatalf("window sum = %v, want 5ms", after.Sum)
	}
}

// TestRecorderWraparound pins the flight-recorder ring semantics: once
// full it overwrites oldest-first, keeps sequence numbers monotonic, and
// reports how many captures the ring no longer holds.
func TestRecorderWraparound(t *testing.T) {
	c := New(2, 4)
	c.Enable()
	c.SetSlowOpThreshold(0) // capture everything
	for i := 0; i < 10; i++ {
		var tr OpTrace
		c.StartOp(&tr, OpJoin)
		tr.Finish(i%2, fmt.Sprintf("w%02d", i), OutcomeOK)
	}
	ops, seen := c.armed.Load().rec.snapshot()
	if seen != 10 {
		t.Fatalf("captures seen = %d, want 10", seen)
	}
	if len(ops) != 4 {
		t.Fatalf("ring holds %d, want 4", len(ops))
	}
	for i, op := range ops {
		if want := uint64(7 + i); op.Seq != want {
			t.Errorf("ring[%d].Seq = %d, want %d (oldest-first)", i, op.Seq, want)
		}
	}
	if ops[3].Viewer != "w09" {
		t.Errorf("newest entry viewer = %q, want w09", ops[3].Viewer)
	}
}

func TestDisabledTraceIsInert(t *testing.T) {
	c := New(2, 0)
	var tr OpTrace
	c.StartOp(&tr, OpJoin)
	if tr.Active() {
		t.Fatal("trace active on disabled collector")
	}
	tr.Phase(PhaseRoute)
	tr.Finish(0, "w", OutcomeOK)
	s := c.Snapshot()
	if s.Ops[OpJoin].OutcomeTotal() != 0 || s.Ops[OpJoin].Total().Count != 0 {
		t.Fatal("disabled collector recorded an operation")
	}
}

func TestFinishIdempotent(t *testing.T) {
	c := New(1, 0)
	c.Enable()
	var tr OpTrace
	c.StartOp(&tr, OpLeave)
	tr.Finish(0, "w", OutcomeOK)
	tr.Finish(0, "w", OutcomeError)
	s := c.Snapshot()
	if got := s.Ops[OpLeave].OutcomeTotal(); got != 1 {
		t.Fatalf("double Finish recorded %d ops, want 1", got)
	}
	if s.Ops[OpLeave].Outcomes[OutcomeError] != 0 {
		t.Fatal("second Finish recorded an outcome")
	}
}

// TestHistogramCountMatchesOutcomes pins the invariant the obs-smoke
// equality check builds on: every Finish does exactly one histogram
// record and one outcome count, so at quiescence the merged histogram
// count equals the outcome total, per op.
func TestHistogramCountMatchesOutcomes(t *testing.T) {
	c := New(3, 0)
	c.Enable()
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 2000; i++ {
		var tr OpTrace
		op := Op(rng.Intn(NumOps))
		c.StartOp(&tr, op)
		tr.Phase(PhaseRoute)
		tr.Finish(rng.Intn(5)-1, "w", Outcome(rng.Intn(NumOutcomes)))
	}
	s := c.Snapshot()
	for _, op := range s.Ops {
		if hist, outs := op.Total().Count, op.OutcomeTotal(); hist != outs {
			t.Errorf("op %s: histogram count %d != outcome total %d", op.Op, hist, outs)
		}
	}
}

// TestConcurrentRecordSnapshot races recording against snapshots and
// enable/disable flips; run under -race this pins that the lock-free
// paths are data-race-free and that concurrent snapshots stay internally
// sane (cumulative, never negative).
func TestConcurrentRecordSnapshot(t *testing.T) {
	c := New(4, 8)
	c.Enable()
	c.SetSlowOpThreshold(0)
	var writers sync.WaitGroup
	for g := 0; g < 4; g++ {
		writers.Add(1)
		go func(g int) {
			defer writers.Done()
			for i := 0; i < 3000; i++ {
				var tr OpTrace
				c.StartOp(&tr, OpJoin)
				tr.Phase(PhasePrepare)
				tr.Carve(PhasePrepare, PhaseReserve, time.Nanosecond)
				tr.Finish(g, "w", OutcomeOK)
				c.SetInFlight(int64(i))
			}
		}(g)
	}
	writers.Add(1)
	go func() {
		defer writers.Done()
		for i := 0; i < 100; i++ {
			c.Disable()
			c.Enable()
		}
	}()
	stop := make(chan struct{})
	var reader sync.WaitGroup
	reader.Add(1)
	go func() {
		defer reader.Done()
		var lastCount uint64
		for {
			s := c.Snapshot()
			n := s.Ops[OpJoin].Total().Count
			if n < lastCount {
				t.Errorf("histogram count went backwards: %d after %d", n, lastCount)
				return
			}
			lastCount = n
			select {
			case <-stop:
				return
			default:
			}
		}
	}()
	writers.Wait()
	close(stop)
	reader.Wait()
	// The flipper may have disarmed some records mid-trace, so the final
	// count is <= 12000 — but histogram count and outcome totals must
	// still agree exactly.
	s := c.Snapshot()
	if hist, outs := s.Ops[OpJoin].Total().Count, s.Ops[OpJoin].OutcomeTotal(); hist != outs {
		t.Fatalf("histogram count %d != outcome total %d", hist, outs)
	}
}

// TestNeverArmedSnapshotMatchesIdleArmed pins that allocating the histograms
// and the slow-op ring on the first Enable changes no output: a collector
// that was never armed snapshots and exposes exactly what one armed and
// disarmed again without recording does.
func TestNeverArmedSnapshotMatchesIdleArmed(t *testing.T) {
	never, idle := New(3, 0), New(3, 0)
	idle.Enable()
	idle.Disable()
	if never.armed.Load() != nil {
		t.Fatal("a never-armed collector allocated its histograms")
	}
	a, b := never.Snapshot(), idle.Snapshot()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("snapshots differ:\nnever armed %+v\nidle armed  %+v", a, b)
	}
	var wa, wb bytes.Buffer
	if err := WritePrometheus(&wa, a); err != nil {
		t.Fatal(err)
	}
	if err := WritePrometheus(&wb, b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(wa.Bytes(), wb.Bytes()) {
		t.Fatalf("exposition differs:\nnever armed\n%s\nidle armed\n%s", wa.Bytes(), wb.Bytes())
	}
}

// TestEnableWhileScraping arms a never-armed collector while scrapes and
// traced operations run. Under -race it pins that the histograms the first
// Enable allocates are published race-free to both; afterwards every
// recorded operation is in the histograms and the outcome counts alike.
func TestEnableWhileScraping(t *testing.T) {
	c := New(2, 8)
	c.SetSlowOpThreshold(0)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				var tr OpTrace
				c.StartOp(&tr, OpLeave)
				tr.Finish(g, "w", OutcomeOK)
				c.Record(OpJoin, g, time.Microsecond, OutcomeOK)
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := WritePrometheus(io.Discard, c.Snapshot()); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	time.Sleep(5 * time.Millisecond)
	c.Enable()
	time.Sleep(5 * time.Millisecond)
	close(stop)
	wg.Wait()
	s := c.Snapshot()
	for _, op := range []Op{OpJoin, OpLeave} {
		if hist, outs := s.Ops[op].Total().Count, s.Ops[op].OutcomeTotal(); hist == 0 || hist != outs {
			t.Fatalf("%s: histogram count %d, outcome total %d", op, hist, outs)
		}
	}
}
