// Command viewchange demonstrates 4D TeleCast's signature capability:
// viewers of a collaborative dance performance rotate around the virtual
// stage at run time. Each rotation is a view change — the stream set shifts
// to the cameras facing the new gaze — and the paper's two-phase protocol
// hides the re-join latency behind an instantaneous CDN switch. The example
// prints, for a sequence of rotations, which streams were swapped and both
// latencies (perceived switch vs. background join completion).
package main

import (
	"context"
	"errors"
	"fmt"
	"log"
	"math"
	"slices"
	"sort"
	"time"

	"telecast"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	producers, err := telecast.NewSession(
		telecast.NewRingSite("dancer-east", 8, 2.0, 10),
		telecast.NewRingSite("dancer-west", 8, 2.0, 10),
	)
	if err != nil {
		return err
	}
	lat, err := telecast.GenerateLatencyMatrix(telecast.DefaultLatencyConfig(128, 13))
	if err != nil {
		return err
	}
	ctrl, err := telecast.NewController(producers, lat)
	if err != nil {
		return err
	}

	// Seed the room with a few spectators so the peer layer exists.
	ctx := context.Background()
	front := telecast.NewUniformView(producers, 0)
	for i := 0; i < 6; i++ {
		id := telecast.ViewerID(fmt.Sprintf("spectator-%d", i))
		if _, err := ctrl.Join(ctx, id, 12, 10, front); err != nil {
			return err
		}
	}

	// One roving viewer walks around the stage in 45° steps.
	rover := telecast.ViewerID("rover")
	out, err := ctrl.Join(ctx, rover, 12, 6, front)
	if err != nil {
		return err
	}
	fmt.Printf("rover joined with %d streams: %v\n\n",
		len(out.Result.Accepted), streamNames(out.Result.Accepted))

	prev := out.Result.Accepted
	var switches []time.Duration
	for step := 1; step <= 8; step++ {
		angle := float64(step) * math.Pi / 4
		change, err := ctrl.ChangeView(ctx, rover, telecast.NewUniformView(producers, angle))
		if err != nil && !errors.Is(err, telecast.ErrRejected) {
			return err
		}
		added, removed := diff(prev, change.Result.Accepted)
		fmt.Printf("rotate to %3.0f°: +%v -%v\n", angle*180/math.Pi, added, removed)
		fmt.Printf("               switch %4.0f ms (CDN fast path: %v), background join %4.0f ms\n",
			change.SwitchDelay.Seconds()*1000, change.FastPathUsed,
			change.BackgroundDelay.Seconds()*1000)
		prev = change.Result.Accepted
		switches = append(switches, change.SwitchDelay)
	}

	fmt.Printf("\nview-change latency: median=%.0f ms p95=%.0f ms (paper: within 500 ms)\n",
		quantileMs(switches, 0.5), quantileMs(switches, 0.95))
	return ctrl.Validate()
}

// quantileMs returns the nearest-rank q-quantile of ds in milliseconds.
func quantileMs(ds []time.Duration, q float64) float64 {
	sorted := slices.Clone(ds)
	slices.Sort(sorted)
	rank := max(int(math.Ceil(q*float64(len(sorted))))-1, 0)
	return sorted[rank].Seconds() * 1000
}

// diff reports stream IDs entering and leaving the view.
func diff(before, after []telecast.StreamID) (added, removed []string) {
	was := make(map[telecast.StreamID]bool, len(before))
	for _, id := range before {
		was[id] = true
	}
	is := make(map[telecast.StreamID]bool, len(after))
	for _, id := range after {
		is[id] = true
		if !was[id] {
			added = append(added, id.String())
		}
	}
	for _, id := range before {
		if !is[id] {
			removed = append(removed, id.String())
		}
	}
	sort.Strings(added)
	sort.Strings(removed)
	return added, removed
}

func streamNames(ids []telecast.StreamID) []string {
	names := make([]string, len(ids))
	for i, id := range ids {
		names[i] = id.String()
	}
	sort.Strings(names)
	return names
}
