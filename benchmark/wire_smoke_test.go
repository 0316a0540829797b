//go:build bench

package main

import (
	"context"
	"testing"
	"time"
)

// The wire workloads spawn a telecast-node child, so their smoke sits behind
// the bench tag, out of the default tier: go test -tags bench .
func TestSmokeWireWorkloads(t *testing.T) {
	bin, err := buildNode(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range specs(true) {
		if !s.wire {
			continue
		}
		t.Run(s.name, func(t *testing.T) {
			rep := runE2E(context.Background(), s, 1, time.Second, bin)
			checkReport(t, rep, endToEndNames())
			rep = runTraced(context.Background(), s, 1, 2*time.Second, bin, t.TempDir())
			checkReport(t, rep, perLayerNames())
			if rep.metrics["wire_us_per_op"].Value <= rep.metrics["httpapi_self_us_per_op"].Value {
				t.Errorf("the wire rung (%v us/op) is not above httpapi's self time (%v)",
					rep.metrics["wire_us_per_op"].Value, rep.metrics["httpapi_self_us_per_op"].Value)
			}
		})
	}
}
