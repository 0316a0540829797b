// Command exergaming emulates the paper's motivating scenario at audience
// scale: two players fight with virtual light sabers (the TEEVE "I'm the
// Jedi!" session), and a flash crowd of spectators arrives, watches, and
// churns. The example drives the control plane through a mass-arrival wave,
// steady-state churn, and a mass departure, validating the overlay
// invariants after every phase and reporting acceptance, CDN offload, and
// the join-latency distribution. A subscription to the control plane's
// event stream tallies admission rejections by cause while the phases run.
package main

import (
	"context"
	"errors"
	"fmt"
	"log"
	"math"
	"math/rand"
	"slices"
	"sync"
	"time"

	"telecast"
)

const (
	audience = 400
	cdnMbps  = 2400 // deliberately scarce: the crowd must self-serve
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	producers, err := telecast.NewSession(
		telecast.NewRingSite("jedi-urbana", 8, 2.0, 10),
		telecast.NewRingSite("jedi-seattle", 8, 2.0, 10),
	)
	if err != nil {
		return err
	}
	lat, err := telecast.GenerateLatencyMatrix(telecast.DefaultLatencyConfig(2*audience+16, 7))
	if err != nil {
		return err
	}
	cdnCfg := telecast.DefaultCDNConfig()
	cdnCfg.OutboundCapacityMbps = cdnMbps
	ctrl, err := telecast.NewController(producers, lat, telecast.WithCDN(cdnCfg))
	if err != nil {
		return err
	}

	// Watch the control plane while the scenario runs: every rejection is
	// tallied by its admission-failure cause, every CDN high-water mark
	// is printed as it is crossed.
	sub := ctrl.Subscribe()
	var watch sync.WaitGroup
	rejections := make(map[telecast.RejectReason]int)
	watch.Add(1)
	go func() {
		defer watch.Done()
		for ev := range sub.Events() {
			switch ev.Kind {
			case telecast.EventJoinRejected:
				rejections[ev.Reason]++
			case telecast.EventCDNHighWater:
				fmt.Printf("  [event] CDN egress high water: %.0f Mbps\n", ev.PeakMbps)
			}
		}
	}()

	ctx := context.Background()
	rng := rand.New(rand.NewSource(7))
	view := telecast.NewUniformView(producers, 0)
	// Every join returns its protocol delay, admitted or rejected; the
	// latency report is built from them.
	var delays []time.Duration
	join := func(id telecast.ViewerID) error {
		out, err := ctrl.Join(ctx, id, 12, 12*rng.Float64(), view)
		if out != nil {
			delays = append(delays, out.Delay)
		}
		if err != nil && !errors.Is(err, telecast.ErrRejected) {
			return err
		}
		return nil
	}

	// Phase 1 — flash crowd: the stream goes viral and the whole audience
	// arrives in one wave, outbound capacities uniform in [0, 12] Mbps.
	fmt.Printf("phase 1: flash crowd of %d spectators\n", audience)
	for i := 0; i < audience; i++ {
		if err := join(telecast.ViewerID(fmt.Sprintf("fan-%04d", i))); err != nil {
			return err
		}
	}
	if err := report(ctrl, "after arrival wave", delays); err != nil {
		return err
	}

	// Phase 2 — churn: a third of the audience leaves and is replaced.
	fmt.Println("\nphase 2: churn (leave + replacement)")
	for i := 0; i < audience/3; i++ {
		leaving := telecast.ViewerID(fmt.Sprintf("fan-%04d", rng.Intn(audience)))
		if err := ctrl.Leave(ctx, leaving); err != nil {
			continue // already left in an earlier iteration
		}
		if err := join(telecast.ViewerID(fmt.Sprintf("late-%04d", i))); err != nil {
			return err
		}
	}
	if err := report(ctrl, "after churn", delays); err != nil {
		return err
	}

	// Phase 3 — the match ends: everyone still watching leaves in one
	// batched departure fanned out across the LSC shards.
	fmt.Println("\nphase 3: mass departure")
	ids := make([]telecast.ViewerID, 0, audience+audience/3)
	for i := 0; i < audience; i++ {
		ids = append(ids, telecast.ViewerID(fmt.Sprintf("fan-%04d", i)))
	}
	for i := 0; i < audience/3; i++ {
		ids = append(ids, telecast.ViewerID(fmt.Sprintf("late-%04d", i)))
	}
	left := 0
	for _, out := range ctrl.DepartBatch(ctx, ids) {
		if out.Err == nil {
			left++
		}
	}
	fmt.Printf("%d spectators departed cleanly\n", left)
	st := ctrl.Stats()
	fmt.Printf("residual CDN egress: %.0f Mbps (must be 0)\n", st.Overlay.CDNUsage.OutTotalMbps)

	sub.Close()
	watch.Wait()
	if len(rejections) > 0 {
		fmt.Println("\nadmission rejections by cause:")
		for reason, n := range rejections {
			fmt.Printf("  %-36s %d\n", reason, n)
		}
	}
	return ctrl.Validate()
}

func report(ctrl *telecast.Controller, label string, delays []time.Duration) error {
	st := ctrl.Stats()
	fmt.Printf("  [%s] viewers=%d accepted-ratio=%.3f cdn-share=%.2f p2p-share=%.2f\n",
		label, st.Overlay.Viewers, st.Overlay.AcceptanceRatio(),
		st.Overlay.CDNFraction(), 1-st.Overlay.CDNFraction())
	fmt.Printf("  [%s] join delay: median=%.0f ms  p95=%.0f ms  max=%.0f ms\n",
		label, quantileMs(delays, 0.5), quantileMs(delays, 0.95), quantileMs(delays, 1))
	return ctrl.Validate()
}

// quantileMs returns the nearest-rank q-quantile of ds in milliseconds.
func quantileMs(ds []time.Duration, q float64) float64 {
	sorted := slices.Clone(ds)
	slices.Sort(sorted)
	rank := max(int(math.Ceil(q*float64(len(sorted))))-1, 0)
	return sorted[rank].Seconds() * 1000
}
